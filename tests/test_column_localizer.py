"""Failure items of the right-projected checks, pinned against products.

`commutator_items`, the exchange and same-sign checks of the half vertex
operators, and the auxiliary Lax relations and Toda intertwining decide
their identities on a random projection and locate a failure column by
column (`graded.column_items`).  Each is run here on one perturbed
operator, and its items must equal those of the products built in the
test through `mul`, `sum_of_scaled_products` and `mismatches`, as
`tq_product_route` does for `tq_check`: the same entries, column by
column with rows ascending, the first three per identity.
"""

from fractions import Fraction as F

import pytest

from integrable_lab import baxter_q, lattice
from integrable_lab.graded import (
    SparseMatrix,
    commutator_items,
    mismatch_items,
    sum_of_scaled_products,
)
from integrable_lab.partitions import occupation_basis, partition_basis, weight
from integrable_lab.vertex_ops import (
    build_gamma,
    commutation_series,
    gamma_commutation_check,
    pair_commutation_check,
)
from oracles import intertwine_factors, translation_representatives

T, X = F(2, 7), F(3, 5)


def bumped_gamma(family, sign, basis, k, at, by):
    """Gamma_{family,sign} with `by` added to the `at`-th stored entry of block k."""
    vop = build_gamma(family, sign, basis, T)
    r, c, _ = sorted(vop.block(k).entries())[at]
    vop.op.blocks[k].add_to(r, c, by)
    return vop


def items_on(lhs, rhs, cols, rows, basis, **where):
    """Items of lhs = rhs on the columns `cols` (in that order), rows in
    `rows` (every row when None)."""
    found = [m for m in lhs.mismatches(rhs, cols) if rows is None or m[0] in rows]
    return mismatch_items(found, basis, **where)


def window(basis, b):
    """The sources whose lowering intermediate of degree b stays in the basis."""
    cap = max(map(weight, basis.states))
    return [j for j, mu in enumerate(basis.states) if weight(mu) + b <= cap]


def commutator_case():
    # Lambda of the (4, 4) sector bumped on an orbit representative column
    N = n = 4
    basis = occupation_basis(N, n)
    reps = translation_representatives(N, n)
    lam = lattice.periodic_transfer(basis, X, T)
    q = baxter_q.build_qmatrix(basis, X, T)
    lam.blocks[1].add_to(2, reps[len(reps) // 2], F(1, 7))
    got = commutator_items(lam, q, reps, basis, 0, N=N, n=n)
    want = [item for i, a in lam.blocks.items() for j, b in q.blocks.items()
            for item in items_on(a.mul(b), b.mul(a), reps, None, basis, N=N, n=n,
                                 bidegree=(i, j))]
    return got, want


def exchange_case():
    # Gamma_{L,-} at D = 6 with one entry of its degree-1 block bumped
    basis, top = partition_basis(6), 4
    plus = build_gamma("L", "+", basis, T)
    minus = bumped_gamma("L", "-", basis, 1, 3, F(1, 3))
    _, got = gamma_commutation_check(plus, minus, top, 0)
    K = commutation_series("L", "L", T, top)
    want = []
    for a in range(top + 1):
        for b in range(top + 1 - a):
            lhs = plus.block(a).mul(minus.block(b))
            rhs = sum_of_scaled_products((K[r], minus.block(b - r), plus.block(a - r))
                                         for r in range(min(a, b) + 1))
            want += items_on(lhs, rhs, window(basis, b), None, basis, bidegree=(a, b))
    return got, want


def pair_case():
    # Gamma_{R,-} at D = 6 with one entry of its degree-2 block bumped
    basis, top = partition_basis(6), 4
    vop = bumped_gamma("R", "-", basis, 2, 5, F(-2, 5))
    _, got = pair_commutation_check(vop, top, 0)
    want = [item for a in range(top + 1) for b in range(a + 1, top + 1)
            for item in items_on(vop.block(a).mul(vop.block(b)), vop.block(b).mul(vop.block(a)),
                                 window(basis, b), None, basis, bidegree=(a, b))]
    return got, want


def bumped_LL(cap, u):
    """build_LL(u, T, cap, cap) with one extra entry between two inner
    states, (2, 1) <- (1, 1)."""
    extra = [(2 * (cap + 1) + 1, cap + 2, F(1))]
    return baxter_q.build_LL(u, T, cap, cap).add(SparseMatrix.from_entries((cap + 1) ** 2, extra))


def ll_relations_case():
    cap, u = 6, F(5, 3)
    windows = baxter_q.spin_windows(cap, T)
    LL = bumped_LL(cap, u)
    _, got = baxter_q.ll_relations_check(LL, u, T, windows, 0)
    _, pair, inner, S, sdiag, sinv = windows
    side = cap + 1
    Lc = SparseMatrix.from_entries(len(pair), ((r, c % side * side + c // side, v)
                                               for r, c, v in LL.entries()))
    X2 = lattice.toda_shift_op(pair, [2], +1)
    xdiag, xinv = lattice.toda_x_op(pair, 2, T), lattice.toda_x_op(pair, 2, T, -1)
    I = SparseMatrix.identity(len(pair))
    x_over_s, s_over_x, SX = xdiag.mul(sinv), sdiag.mul(xinv), S.mul(X2)
    relations = [
        ("Lc x = x Lc", Lc.mul(xdiag), xdiag.mul(Lc)),
        ("Lc SX = SX Lc", Lc.mul(SX), SX.mul(Lc)),
        ("Lc x/s = x/s (1-S) Lc", Lc.mul(x_over_s), x_over_s.mul(I.add(S.scale(-1))).mul(Lc)),
        ("u Lc (1-s/x) S = S Lc", Lc.mul(I.add(s_over_x.scale(-1))).mul(S).scale(u), S.mul(Lc)),
    ]
    rows = set(inner)
    want = [item for name, lhs, rhs in relations
            for item in items_on(lhs, rhs, inner, rows, pair, relation=name)]
    return got, want


def intertwine_case():
    cap, u, z = 6, F(5, 3), F(3, 4)
    windows = baxter_q.spin_windows(cap, T)
    LL = bumped_LL(cap, u)
    _, got = baxter_q.toda_intertwine_check(LL, z, u, T, windows, 0)
    _, pair, inner, *_ = windows
    R, L_toda, L_tilde = intertwine_factors(windows, z, u, T)
    want = []
    for i in range(2):
        for j in range(2):
            left = sum_of_scaled_products((1, R[i][k], L_toda[k][j]) for k in range(2))
            right = sum_of_scaled_products((1, L_tilde[i][k], R[k][j]) for k in range(2))
            want += items_on(left.mul(LL), LL.mul(right), inner, set(inner), pair, aux=(i, j))
    return got, want


@pytest.mark.parametrize("case", [commutator_case, exchange_case, pair_case, ll_relations_case,
                                  intertwine_case])
def test_failure_items_equal_the_products(case):
    got, want = case()
    assert want and got == want
