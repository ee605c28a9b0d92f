import random
from fractions import Fraction as F

import pytest

from integrable_lab.graded import GradedOperator, SparseMatrix
from integrable_lab import partitions, scalars
from integrable_lab.hall_littlewood import (
    complete_q_coeffs,
    hl_Q,
    pieri_coeff,
    skew_Q_omega,
)
from integrable_lab.partitions import (
    horizontal_strips_above,
    partition_basis,
    state_norm,
    vertical_strips_above,
    weight,
)
from integrable_lab.scalars import format_scalar, tfact
from integrable_lab.vertex_ops import (
    VertexOp,
    adjoint_pair_check,
    build_eigencovector,
    build_eigenstate,
    build_gamma,
    commutation_series,
    covector_pieri_check,
    gamma_commutation_check,
    gamma_eigen_check,
    pair_commutation_check,
    skew_Q_via_ops,
)


def distinct_draws(rng, n, den=7):
    out = []
    while len(out) < n:
        v = F(rng.randint(-9, 9), rng.randint(1, den))
        if v != 0 and v not in out:
            out.append(v)
    return out


def test_gamma_minus_degree_zero_is_identity():
    basis = partition_basis(4)
    vop = build_gamma("L", "-", basis, F(1, 3))
    assert vop.block(0) == SparseMatrix.identity(len(basis))
    vop_r = build_gamma("R", "-", basis, F(1, 3))
    assert vop_r.block(0) == SparseMatrix.identity(len(basis))


def test_gamma_entries_match_branching_coeffs():
    t = F(2, 7)
    basis = partition_basis(5)
    gm = build_gamma("L", "-", basis, t)
    # psi_{[1]/[]} = 1: no multiplicity decreases
    assert gm.block(1).entry(basis.index[(1,)], basis.index[()]) == 1
    gr = build_gamma("R", "-", basis, t)
    val = gr.block(1).entry(basis.index[(1, 1)], basis.index[(1,)])
    assert val == pieri_coeff("phi'", (1, 1), (1,), t)
    gp = build_gamma("L", "+", basis, t)
    assert gp.block(1).entry(basis.index[()], basis.index[(1,)]) == pieri_coeff("phi", (1,), (), t)


@pytest.mark.parametrize("t", [F(2, 7), F(-3, 5), F(9, 4)])
def test_every_gamma_entry_is_its_pieri_coefficient(t):
    basis = partition_basis(8)
    cases = [("L", "-", horizontal_strips_above, "psi"), ("L", "+", horizontal_strips_above, "phi"),
             ("R", "-", vertical_strips_above, "phi'"), ("R", "+", vertical_strips_above, "psi'")]
    for family, sign, strips, kind in cases:
        op = build_gamma(family, sign, basis, t)
        for j, mu in enumerate(basis.states):
            for lam in strips(mu, 8 - weight(mu)):
                i, k = basis.index[lam], weight(lam) - weight(mu)
                entry = op.block(k).entry(i, j) if sign == "-" else op.block(k).entry(j, i)
                assert entry == pieri_coeff(kind, lam, mu, t), (family, sign, lam, mu)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_gamma_makes_few_literal_t_factorials(monkeypatch, sign):
    calls = []  # every literal tpoch/tfact/tbinom/state_norm multiplies this kernel
    literal = scalars._poch_ratio

    def counting(a, m, t):
        calls.append(m)
        return literal(a, m, t)

    monkeypatch.setattr(scalars, "_poch_ratio", counting)
    monkeypatch.setattr(partitions, "_poch_ratio", counting)
    D = 8
    vop = build_gamma("R", sign, partition_basis(D), F(2, 7))
    assert vop.block(1).nnz() > 0
    # one t-table serves every entry: at most one literal m!_t for each m <= D
    assert len(calls) <= D + 1


@pytest.mark.parametrize("D", [8, 10])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_gamma_on_a_part_cap_is_the_restriction_of_the_full_gamma(sign, D):
    # a horizontal strip below lam keeps lam_1 <= n, and the targets of
    # Gamma_{L,-} with a part above n are the rows the restriction drops
    basis = partition_basis(D)
    for t in (F(2, 7), F(-5, 3)):
        full = build_gamma("L", sign, basis, t)
        for n in (1, 2, 3):
            cap = partition_basis(D, max_part=n)
            to_cap = {basis.index[lam]: k for k, lam in enumerate(cap.states)}
            restricted = full.op.restrict(to_cap, len(cap), D)
            built = build_gamma("L", sign, cap, t)
            for k in range(D + 1):
                assert built.block(k) == restricted.block(k), (sign, D, t, n, k)
            assert built.block(1).nnz() > 0


def test_ll_bidegree_11_two_state_oracle():
    # on the vacuum-vacuum element: LHS = phi_{[1]/[]} psi_{[1]/[]} = 1-t,
    # RHS picks the r=1 scalar K_1 = 1-t times the identity
    t = F(3, 11)
    basis = partition_basis(4)
    plus = build_gamma("L", "+", basis, t)
    minus = build_gamma("L", "-", basis, t)
    v0 = basis.index[()]
    lhs = plus.block(1).mul(minus.block(1)).entry(v0, v0)
    assert lhs == (1 - t) * 1
    K = commutation_series("L", "L", t, 2)
    rhs = K[1]  # B_0 A_0 = Id on the vacuum
    assert lhs == rhs


def test_commutation_series_shapes():
    t = F(2, 5)
    assert commutation_series("L", "L", t, 3) == [1, 1 - t, 1 - t, 1 - t]
    assert commutation_series("L", "R", t, 3) == [1, 1, 0, 0]
    assert commutation_series("R", "R", t, 3) == [1, 1 / tfact(1, t), 1 / tfact(2, t), 1 / tfact(3, t)]
    # t -> 0: the LL factor degenerates to the plain geometric kernel
    assert commutation_series("L", "L", F(0), 3) == [1, 1, 1, 1]


def test_gamma_commutation_all_families():
    t = F(3, 7)
    basis = partition_basis(7)
    for fp, fm in [("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")]:
        ok, failures = gamma_commutation_check(build_gamma(fp, "+", basis, t),
                                               build_gamma(fm, "-", basis, t), max_degree=3)
        assert ok, (fp, fm, failures[:2])


def test_same_sign_commutation():
    t = F(2, 9)
    basis = partition_basis(6)
    for fam in ("L", "R"):
        for sign in ("-", "+"):
            ok, failures = pair_commutation_check(build_gamma(fam, sign, basis, t), 3)
            assert ok and failures == [], (fam, sign, failures)


def test_eigenstate_components():
    t = F(2, 5)
    basis = partition_basis(5)
    v = F(3, 7)
    # kind L, one variable: component on [k] is v^k
    st = build_eigenstate("L", [v], basis, t)
    for k in range(1, 5):
        assert st[basis.index[(k,)]] == v**k
    # kind R, one variable: component on 1^k is v^k / k!_t
    st_r = build_eigenstate("R", [v], basis, t)
    for k in range(1, 5):
        assert st_r[basis.index[(1,) * k]] == v**k / tfact(k, t)
    # empty alphabet: vacuum unit vector
    assert build_eigenstate("L", [], basis, t) == {basis.index[()]: 1}


def test_vacuum_fixed_by_raising():
    t = F(1, 3)
    basis = partition_basis(4)
    vop = build_gamma("L", "+", basis, t)
    ok, _ = gamma_eigen_check(vop, "L", [], max_degree=3,
                              state=build_eigenstate("L", [], basis, t))
    assert ok


def test_eigen_L_plus_on_L_state():
    t = F(2, 7)
    basis = partition_basis(6)
    vop = build_gamma("L", "+", basis, t)
    rng = random.Random(4)
    V = distinct_draws(rng, 2)
    ok, report = gamma_eigen_check(vop, "L", V, max_degree=3,
                                   state=build_eigenstate("L", V, basis, t))
    assert ok, report
    # degree-1 eigenvalue coefficient is (1-t) * sum(V)
    from integrable_lab.hall_littlewood import complete_q_coeffs

    assert complete_q_coeffs(V, t, 1)[1] == (1 - t) * sum(V)


def test_eigen_L_plus_on_R_state():
    # open Toda eigenvector relation, elementary-symmetric eigenvalue series
    t = F(3, 8)
    basis = partition_basis(7)
    vop = build_gamma("L", "+", basis, t)
    rng = random.Random(5)
    V = distinct_draws(rng, 2)
    ok, report = gamma_eigen_check(vop, "R", V, max_degree=4,
                                   state=build_eigenstate("R", V, basis, t))
    assert ok, report


def test_eigen_R_plus_on_L_state():
    # the graded expansion of this relation is the Hall Pieri rule
    t = F(2, 9)
    basis = partition_basis(6)
    vop = build_gamma("R", "+", basis, t)
    rng = random.Random(6)
    V = distinct_draws(rng, 2)
    ok, report = gamma_eigen_check(vop, "L", V, max_degree=3,
                                   state=build_eigenstate("L", V, basis, t))
    assert ok, report


def test_covector_pieri():
    t = F(4, 11)
    basis = partition_basis(6)
    rng = random.Random(7)
    U = distinct_draws(rng, 2)
    ok, report = covector_pieri_check(build_gamma("L", "-", basis, t), U, max_degree=3)
    assert ok, report


def test_eigen_check_reports_a_perturbed_entry():
    # d added at (row [], col [1]) of the degree-1 raising block moves the
    # [] component of Gamma_+ |L,V> by d times the [1] component; the
    # eigenvalue side q_1(V) times the [] component stays
    t, d = F(2, 7), F(1, 5)
    basis = partition_basis(6)
    V = distinct_draws(random.Random(4), 2)
    vop = build_gamma("L", "+", basis, t)
    i, j = basis.index[()], basis.index[(1,)]
    state = build_eigenstate("L", V, basis, t)
    q1 = complete_q_coeffs(V, t, 1)[1]
    old = vop.block(1).entry(i, j)
    vop.block(1).add_to(i, j, d)
    ok, failures = gamma_eigen_check(vop, "L", V, max_degree=3, state=state)
    assert not ok
    assert failures == [{"degree": 1, "row": "[]",
                         "lhs": format_scalar((old + d) * state[j]),
                         "rhs": format_scalar(q1 * state[i])}]


def test_covector_pieri_reports_a_perturbed_entry():
    # d added at (row [1], col []) of the degree-1 lowering block moves the
    # [] component of <U| Gamma_- by d times the [1] component of <U|
    t, d = F(4, 11), F(-2, 3)
    basis = partition_basis(6)
    U = distinct_draws(random.Random(7), 2)
    minus = build_gamma("L", "-", basis, t)
    i, j = basis.index[(1,)], basis.index[()]
    cov = build_eigencovector(U, basis, t)
    q1 = complete_q_coeffs(U, t, 1)[1]
    old = minus.block(1).entry(i, j)
    minus.block(1).add_to(i, j, d)
    ok, failures = covector_pieri_check(minus, U, max_degree=3)
    assert not ok
    assert failures == [{"degree": 1, "row": "[]",
                         "lhs": format_scalar(old * cov[i] + d * cov[i]),
                         "rhs": format_scalar(q1 * cov[j])}]


def test_skew_extraction_and_product_rule():
    t = F(2, 7)
    basis = partition_basis(5)
    rng = random.Random(8)
    U = distinct_draws(rng, 2, den=5)
    Up = distinct_draws(rng, 2, den=6)
    # straight skew from the vacuum reproduces Q
    for lam in partition_basis(4):
        assert skew_Q_via_ops(lam, (), U, basis, t) == hl_Q(lam, U, t)
    # product decomposition Q_lam(U + U') = sum_mu Q_{lam/mu}(U) Q_mu(U')
    for lam in partition_basis(4):
        lhs = hl_Q(lam, U + Up, t)
        rhs = F(0)
        for mu in partition_basis(weight(lam)):
            from integrable_lab.partitions import contains

            if contains(lam, mu):
                rhs += skew_Q_via_ops(lam, mu, U, basis, t) * hl_Q(mu, Up, t)
        assert lhs == rhs, lam


def test_adjoint_pairs():
    t = F(3, 10)
    basis = partition_basis(6)
    assert adjoint_pair_check("L", basis, t) == (True, [])
    assert adjoint_pair_check("R", basis, t) == (True, [])


def test_dual_state_column_homogeneity():
    # adding a full column (one boson at the top site) multiplies the
    # monic dual polynomial by v_1 ... v_N
    t = F(2, 7)
    rng = random.Random(11)
    N = 3
    V = distinct_draws(rng, N)
    prod_v = V[0] * V[1] * V[2]
    from integrable_lab.partitions import partition, partition_basis

    # P^omega_{lam'} = <lam|lam> Q^omega_{lam'}
    for lam in partition_basis(4, max_part=N):
        lifted = partition(sorted((N,) + lam, reverse=True))
        assert state_norm(lifted, t) * skew_Q_omega(lifted, (), V, t) == \
            prod_v * state_norm(lam, t) * skew_Q_omega(lam, (), V, t)


def test_top_annihilation_on_dual_state():
    # (1 - t^{m_N(lam)}) Qomega(lam) = v_1 ... v_N Qomega(lam minus a part N):
    # the matrix-level form of "annihilation at the top site scales the dual
    # state by the variable product".  Decreasing-integer windows represent
    # spins shifted by +K, so K inverse applications of this relation define
    # the extended components there; the partition-level identity is the
    # entire content.
    t = F(3, 8)
    rng = random.Random(12)
    N = 2
    V = distinct_draws(rng, N)
    prod_v = V[0] * V[1]
    from integrable_lab.hall_littlewood import skew_Q_omega
    from integrable_lab.partitions import multiplicity, partition, partition_basis

    checked = 0
    for lam in partition_basis(6, max_part=N):
        m_top = multiplicity(lam, N)
        if m_top == 0:
            continue
        reduced = list(lam)
        reduced.remove(N)
        lhs = (1 - t**m_top) * skew_Q_omega(lam, (), V, t)
        rhs = prod_v * skew_Q_omega(partition(reduced), (), V, t)
        assert lhs == rhs, lam
        checked += 1
    assert checked > 5


def test_gamma_commutation_reports_a_perturbed_factor(monkeypatch):
    from integrable_lab import vertex_ops

    t = F(3, 7)
    basis = partition_basis(6)
    exact = vertex_ops.commutation_series

    def perturbed(fam_plus, fam_minus, t, max_r):
        K = exact(fam_plus, fam_minus, t, max_r)
        K[1] += 1
        return K

    monkeypatch.setattr(vertex_ops, "commutation_series", perturbed)
    plus, minus = build_gamma("L", "+", basis, t), build_gamma("L", "-", basis, t)
    ok, failures = gamma_commutation_check(plus, minus, max_degree=3)
    assert not ok
    # K_1 enters only the bidegrees with a, b >= 1, and fails each of them
    bidegrees = [f["bidegree"] for f in failures]
    assert set(bidegrees) == {(a, b) for a in range(1, 3) for b in range(1, 4 - a)}
    assert all(bidegrees.count(ab) <= 3 for ab in bidegrees)
    index = {basis.label(s): k for k, s in enumerate(basis.states)}
    for f in failures:
        assert set(f) == {"bidegree", "row", "col", "lhs", "rhs"}
        (a, b), r, c = f["bidegree"], index[f["row"]], index[f["col"]]
        # lhs is A_a B_b; the rhs gains the extra K_1 term B_(b-1) A_(a-1)
        lhs = plus.block(a).mul(minus.block(b)).entry(r, c)
        extra = minus.block(b - 1).mul(plus.block(a - 1)).entry(r, c)
        assert f["lhs"] == format_scalar(lhs) and extra != 0
        assert F(f["rhs"]) == lhs + extra


def test_gamma_commutation_rejects_mismatched_operators():
    t = F(3, 7)
    basis = partition_basis(4)
    plus, minus = build_gamma("L", "+", basis, t), build_gamma("L", "-", basis, t)
    for bad in [(plus, build_gamma("L", "-", partition_basis(3), t)),
                (plus, build_gamma("L", "-", basis, F(2, 7))),
                (minus, plus)]:
        with pytest.raises(ValueError, match="one basis at one t"):
            gamma_commutation_check(*bad, 2)
    with pytest.raises(ValueError, match="Gamma_"):
        covector_pieri_check(plus, [F(1, 2)], 2)


def test_pair_commutation_reports_a_non_commuting_family():
    t = F(2, 9)
    basis = partition_basis(6)
    # reweighting one block by a state-dependent diagonal breaks commutation
    diag = SparseMatrix.from_entries(len(basis), ((j, j, F(j + 1)) for j in range(len(basis))))
    for sign in ("+", "-"):
        vop = build_gamma("L", sign, basis, t)
        op = GradedOperator(len(basis), {**vop.op.blocks, 2: vop.block(2).mul(diag)},
                            max_degree=vop.op.max_degree)
        assert pair_commutation_check(vop, 3) == (True, [])
        ok, failures = pair_commutation_check(VertexOp("L", sign, basis, t, op), 3)
        assert not ok and failures
        index = {basis.label(s): k for k, s in enumerate(basis.states)}
        for f in failures:
            assert set(f) == {"bidegree", "row", "col", "lhs", "rhs"}
            # only pairs with the reweighted block fail; lhs is A_a A_b, rhs A_b A_a
            a, b = f["bidegree"]
            assert 2 in (a, b) and a < b
            r, c = index[f["row"]], index[f["col"]]
            A, B = op.block(a), op.block(b)
            ab, ba = A.mul(B).entry(r, c), B.mul(A).entry(r, c)
            assert (f["lhs"], f["rhs"]) == (format_scalar(ab), format_scalar(ba)) and ab != ba


def test_window_checks_multiply_only_the_columns_they_compare(monkeypatch):
    # each product a window check forms ends in a factor kept on the columns
    # of its window b, {j : |mu_j| + b <= cap}, so the product kernel receives
    # those columns of each right factor and never the rest of the basis
    from integrable_lab import graded

    D, deg, t = 8, 4, F(2, 7)
    basis = partition_basis(D)
    plus, minus = build_gamma("L", "+", basis, t), build_gamma("L", "-", basis, t)
    window = [{j for j, mu in enumerate(basis.states) if weight(mu) + b <= D}
              for b in range(deg + 1)]
    received = []
    real = graded._add_product

    def counting(acc, acols, bcols, factor):
        received.append(set(bcols))
        real(acc, acols, bcols, factor)

    monkeypatch.setattr(graded, "_add_product", counting)

    assert gamma_commutation_check(plus, minus, deg) == (True, [])
    # (right factor, window) of A_a B_b and of each term of sum_r K_r B_{b-r} A_{a-r};
    # the L family's K_r are all nonzero, so every term reaches the kernel
    right = [(factor, window[b]) for a in range(deg + 1) for b in range(deg + 1 - a)
             for factor in [minus.block(b)] + [plus.block(a - r) for r in range(min(a, b) + 1)]]
    assert len(received) == len(right)
    assert sum(map(len, received)) == sum(len(w & m.stored_columns()) for m, w in right) \
        < sum(len(m.stored_columns()) for m, _ in right)
    # a lowering block stores every column of its window: B_b keeps all of window b
    assert all(minus.block(b).stored_columns() >= window[b] for b in range(deg + 1))

    received.clear()
    assert pair_commutation_check(minus, deg) == (True, [])
    # A_a A_b and A_b A_a for a < b, two terms on window b each
    window_count = sum(2 * len(window[b]) for a in range(deg + 1) for b in range(a + 1, deg + 1))
    assert sum(map(len, received)) == window_count < sum(
        len(minus.block(a).stored_columns()) + len(minus.block(b).stored_columns())
        for a in range(deg + 1) for b in range(a + 1, deg + 1))
