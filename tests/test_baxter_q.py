import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from integrable_lab.baxter_q import (
    ar_project_check,
    build_LL,
    build_qmatrix,
    ll_F_op,
    ll_G_op,
    ll_relations_check,
    spin_windows,
    toda_intertwine_check,
    tq_check,
    trace_qmatrix,
)
from integrable_lab import baxter_q
from integrable_lab.graded import (
    GradedOperator,
    SparseMatrix,
    commutator_items,
    sum_of_scaled_products,
)
from integrable_lab.lattice import (
    hermitian_reflect_check,
    periodic_transfer,
    toda_monodromy,
    translation_op,
)
from integrable_lab.partitions import (
    occupation_basis,
    occupation_to_partition,
    partition_basis,
    state_norm,
    weight,
)
from integrable_lab.scalars import TTable, format_scalar, tbinom, tfact
from oracles import null_psi, site_null_vector_check

T = F(2, 7)
X = F(3, 5)


def printed_q2(t, x):
    """The printed 3x3 Q-matrix, rows/cols in the source's reversed order."""
    return {
        0: {(0, 0): F(1), (1, 1): F(1), (2, 2): F(1)},
        1: {(0, 1): F(-1), (1, 0): -(1 + t) * x, (1, 2): -(1 + t), (2, 1): -x},
        2: {(0, 2): F(1), (1, 1): x, (2, 0): x**2},
    }


def test_null_psi_examples():
    t = F(1, 3)
    z = F(2, 5)
    assert null_psi(3, 1, 1, z, t) == tbinom(2, 2, t) == 1
    assert null_psi(2, 2, 2, z, t) == 1
    assert null_psi(2, 1, 0, z, t) == z * (1 + t)
    with pytest.raises(ValueError):
        null_psi(1, 2, 0, z, t)


def test_site_null_vector_triangularity():
    for (a, c) in [(2, 0), (3, 1), (4, 0)]:
        ok, failures = site_null_vector_check(a, c, F(3, 4), T)
        assert ok and failures == [], failures


def test_qmatrix_matches_printed():
    q = build_qmatrix(2, 2, X, T)
    got = {d: {(2 - r, 2 - c): v for r, c, v in q.block(d).entries()} for d in q.degrees()}
    assert got == printed_q2(T, X)


def test_qmatrix_degree_zero_identity_and_n0():
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        q = build_qmatrix(N, n, X, T)
        assert q.block(0) == SparseMatrix.identity(len(occupation_basis(N, n)))
    q0 = build_qmatrix(3, 0, X, T)
    assert q0.block(0) == SparseMatrix.identity(1)
    assert q0.degrees() == [0]


def test_tq_relation_small():
    rng = random.Random(5)
    for (N, n) in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        t = F(rng.randint(2, 9), 11)
        x = F(rng.randint(2, 9), 13)
        ok, report = tq_check(N, n, x, t)
        assert ok, (N, n, report)


def test_tq_empty_sector():
    # n = 0: Lambda on the one-dimensional sector is 1 + x z^N
    N = 3
    lam = periodic_transfer(N, 0, X, T)
    assert lam.block(0).entry(0, 0) == 1
    assert lam.block(N).entry(0, 0) == X
    ok, _ = tq_check(N, 0, X, T)
    assert ok


def test_tq_report_names_rhs_only_entries(monkeypatch):
    # a zero transfer matrix empties the lhs: every wrong entry is rhs-only,
    # so each degree k reports the first three entries of its rhs block
    # t^k q_k + x t^(n-k+N) q_(k-N) against a zero lhs
    N, n = 2, 2
    basis = occupation_basis(N, n)
    monkeypatch.setattr(baxter_q, "periodic_transfer",
                        lambda N, n, x, t: GradedOperator(len(occupation_basis(N, n))))
    ok, failures = tq_check(N, n, X, T)
    assert not ok
    q = build_qmatrix(N, n, X, T)
    labels = basis.labels()
    for k in range(N + n + 1):
        rhs = q.block(k).scale(T ** k).add(q.block(k - N).scale(X * T ** (n - k + N)))
        want = [{"degree": k, "row": labels[r], "col": labels[c], "lhs": "0",
                 "rhs": format_scalar(v)}
                for r, c, v in sorted(rhs.entries(), key=lambda e: (e[1], e[0]))]
        assert [f for f in failures if f["degree"] == k] == want[:3]


def test_tq_report_names_a_perturbed_entry(monkeypatch):
    # q_1[r, c] += d moves lhs_1 = q_1 + Lambda_1 q_0 by d and rhs_1 = t q_1
    # (below degree N) by t d: degree 1 is the first to fail, at that entry only
    N, n, d = 3, 2, F(1, 3)
    real = build_qmatrix(N, n, X, T)
    r, c, v = next((r, c, v) for r, c, v in real.block(1).entries() if r != c)

    def perturbed(*args):
        q = build_qmatrix(*args)
        q.block(1).add_to(r, c, d)
        return q

    monkeypatch.setattr(baxter_q, "build_qmatrix", perturbed)
    ok, failures = tq_check(N, n, X, T)
    labels = occupation_basis(N, n).labels()
    assert not ok
    assert [f for f in failures if f["degree"] == 1] == [
        {"degree": 1, "row": labels[r], "col": labels[c],
         "lhs": format_scalar(T * v + d), "rhs": format_scalar(T * (v + d))}]
    assert failures[0]["degree"] == 1


def test_tq_failure_items_are_pinned(monkeypatch):
    # q_1[(2,0), (1,1)] += 1/5 at x = 2, t = 1/3; the items below are the
    # report of the Fraction-storage implementation, pinned literally, so a
    # change of storage or comparison cannot move the degree, the labels
    # or either value
    def perturbed(*args):
        q = build_qmatrix(*args)
        q.block(1).add_to(0, 1, F(1, 5))
        return q

    monkeypatch.setattr(baxter_q, "build_qmatrix", perturbed)
    ok, failures = tq_check(2, 2, F(2), F(1, 3))
    assert not ok
    assert failures == [
        {"degree": 1, "row": "(2,0)", "col": "(1,1)", "lhs": "-7/15", "rhs": "-3/5"},
        {"degree": 2, "row": "(1,1)", "col": "(1,1)", "lhs": "28/45", "rhs": "4/9"},
        {"degree": 3, "row": "(2,0)", "col": "(1,1)", "lhs": "-14/15", "rhs": "-6/5"}]
    ok, failures = tq_check(3, 2, F(-3, 7), F(5, 2))
    assert not ok
    assert failures == [
        {"degree": 1, "row": "(2,0,0)", "col": "(1,1,0)", "lhs": "1/5", "rhs": "1/2"},
        {"degree": 2, "row": "(1,1,0)", "col": "(1,1,0)", "lhs": "-21/20", "rhs": "0"},
        {"degree": 3, "row": "(1,0,1)", "col": "(1,1,0)", "lhs": "-21/20", "rhs": "0"},
        {"degree": 4, "row": "(2,0,0)", "col": "(1,1,0)", "lhs": "-3/35", "rhs": "-3/14"}]


def test_qmatrix_rejects_t_one():
    with pytest.raises(ValueError, match="t = 1"):
        build_qmatrix(2, 0, X, F(1))
    with pytest.raises(ValueError, match="t = 1"):
        trace_qmatrix(2, 2, F(3, 4), X, F(1))


def test_qmatrix_rejects_t_minus_one_where_a_t_factorial_vanishes():
    # 2!_t = (1 - t)(1 - t^2) = 0 at t = -1: binom(2, 2)_t would be 0/0
    with pytest.raises(ValueError, match="t = -1"):
        build_qmatrix(2, 2, F(2), F(-1))
    # the trace's spin labels reach 2n, so 2!_t divides already at n = 1
    with pytest.raises(ValueError, match="t = -1"):
        trace_qmatrix(2, 1, F(3, 4), F(2), F(-1))
    # below those degrees no t-factorial quotient is 0/0
    assert tq_check(2, 1, F(2), F(-1))[0] and tq_check(3, 1, F(2), F(-1))[0]
    assert trace_qmatrix(2, 0, F(3, 4), F(2), F(-1)).block(0) == \
        build_qmatrix(2, 0, F(2), F(-1)).eval_at(F(3, 4))


def test_commutation_checks():
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        q = build_qmatrix(N, n, X, T)
        shift = GradedOperator(q.dim, {0: translation_op(N, n, X)})
        assert commutator_items(periodic_transfer(N, n, X, T), q, basis) == []
        assert commutator_items(q, q, basis) == []
        assert commutator_items(shift, q, basis) == []


def test_q_hermitian_reflect():
    # T N^-1 q_k(1/x)^T N = (-1)^n q_{n-k}(x), T the one-step translation
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        norms = [state_norm(occupation_to_partition(m), T) for m in basis.states]
        ok, failures = hermitian_reflect_check(
            lambda xv: build_qmatrix(N, n, xv, T), basis, norms, n, X,
            lambda xv: (-1) ** n, translation_op(N, n, X))
        assert ok and failures == [], failures


def test_ll_operator_examples():
    t = F(1, 4)
    u = F(5, 3)
    cap = 5
    LL = build_LL(u, t, cap, cap)

    def idx(a, b):
        return a * (cap + 1) + b

    # nu_s = nu_x = 0 column: sum over mu_s of 1/mu_s!_t |mu_s, 0>
    for ms in range(cap + 1):
        assert LL.entry(idx(ms, 0), idx(0, 0)) == 1 / tfact(ms, t)
    # nu_x - nu_s = 1: prefactor (1/u)/(1-t)
    assert LL.entry(idx(1, 0), idx(0, 1)) == (1 / u) / (1 - t)
    # factorized pieces
    Fop = ll_F_op(u, t, cap)
    for m in range(cap + 1):
        assert Fop.entry(m, m) == (1 / u) ** m / tfact(m, t)
    G = ll_G_op(t, cap)
    assert G.entry(3, 1) == 1 / tfact(2, t)


def test_ll_four_relations():
    u = F(5, 3)
    ok, failures = ll_relations_check(build_LL(u, T, 6, 6), u, T, spin_windows(6, T))
    assert ok, failures


def test_ll_relations_report_a_perturbed_LL():
    # Lc = LL P reads LL's column (b, a) as its column (a, b); one extra entry
    # d at Lc[(1,1), (1,2)], where Lc is zero, breaks Lc x = x Lc there only:
    # the sides read d t^2 and t^1 d (x = t^label on the second window)
    cap, u, d = 6, F(5, 3), F(1, 2)

    def idx(a, b):
        return a * (cap + 1) + b

    LL = build_LL(u, T, cap, cap)
    assert LL.entry(idx(1, 1), idx(2, 1)) == 0
    LL.add_to(idx(1, 1), idx(2, 1), d)
    ok, failures = ll_relations_check(LL, u, T, spin_windows(cap, T))
    assert not ok
    assert [f for f in failures if f["relation"] == "Lc x = x Lc"] == [
        {"relation": "Lc x = x Lc", "row": "(1,1)", "col": "(1,2)",
         "lhs": format_scalar(d * T ** 2), "rhs": format_scalar(T * d)}]


def test_toda_intertwine():
    u = F(5, 3)
    ok, failures = toda_intertwine_check(build_LL(u, T, 6, 6), F(3, 4), u, T, spin_windows(6, T))
    assert ok, failures[:3]


def test_trace_construction_matches_closed_form():
    z = F(3, 4)
    for (N, n) in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        q = build_qmatrix(N, n, X, T)
        direct = q.eval_at(z)
        traced = trace_qmatrix(N, n, z, X, T).block(0)
        assert direct == traced, (N, n)


def test_trace_builds_the_auxiliary_lax_operator_once(monkeypatch):
    # the sweep reads the steps of one LL(-1/z) on spin labels up to 2n
    calls = []

    def recording(*args, real=baxter_q.build_LL):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(baxter_q, "build_LL", recording)
    z = F(3, 4)
    assert trace_qmatrix(3, 3, z, X, T).block(0) == build_qmatrix(3, 3, X, T).eval_at(z)
    assert calls == [(-1 / z, T, 6, 6)]


def test_qmatrix_reads_each_t_binomial_once(monkeypatch):
    # one t-table row binom(m, d)_t, d <= m, per occupation m <= n, read
    # once per call, not once per entry: (n + 1)(n + 2) / 2 reads
    reads = []

    class RecordingTable(TTable):
        def __init__(self, t):
            super().__init__(t)
            self.binom = Reads(self.binom)

    class Reads:
        def __init__(self, table):
            self.table = table

        def __getitem__(self, key):
            reads.append(key)
            return self.table[key]

    N, n = 5, 6
    want = build_qmatrix(N, n, X, T)
    monkeypatch.setattr(baxter_q, "TTable", RecordingTable)
    assert build_qmatrix(N, n, X, T) == want
    assert sorted(reads) == [(m, d) for m in range(n + 1) for d in range(m + 1)]
    assert sum(want.block(k).nnz() for k in want.degrees()) > 100 * len(reads)


RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.integers(0, 4), RATIONAL.filter(lambda v: v not in (1, -1)),
       RATIONAL, RATIONAL.filter(lambda v: v != 0))
def test_trace_construction_matches_closed_form_at_random_points(N, n, t, x, z):
    # off the declared loci: t = 1 and -1 (the t-factorials), z = 0
    assert build_qmatrix(N, n, x, t).eval_at(z) == trace_qmatrix(N, n, z, x, t).block(0)


def literal_qmatrix(N, n, x, t):
    """{(degree, row, col): value} of the docstring formula of
    `build_qmatrix`, every move vector d enumerated and every factor the
    literal t-binomial."""
    basis = occupation_basis(N, n)
    out = {}
    for j, m in enumerate(basis.states):
        for d in product(*(range(mk + 1) for mk in m)):
            target = tuple(m[k] - d[k] + d[k - 1] for k in range(N))
            value = (-1) ** sum(d) * x ** d[-1]
            for mk, dk in zip(m, d):
                value *= tbinom(mk, dk, t)
            key = (sum(d), basis.index[target], j)
            out[key] = out.get(key, 0) + value
    return {key: v for key, v in out.items() if v}


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.integers(0, 5), RATIONAL.filter(lambda v: v not in (0, 1, -1)),
       RATIONAL.filter(lambda v: v != 0))
def test_qmatrix_equals_its_entry_formula(N, n, t, x):
    q = build_qmatrix(N, n, x, t)
    got = {(k, r, c): v for k in q.degrees() for r, c, v in q.block(k).entries()}
    assert got == literal_qmatrix(N, n, x, t)


@settings(deadline=None, max_examples=25)
@given(RATIONAL.filter(lambda v: v != 0), RATIONAL.filter(lambda v: v not in (0, 1, -1)),
       st.integers(0, 6), st.integers(0, 6))
@example(F(5, 3), T, 2, 5)
@example(F(-3, 2), F(4, 3), 5, 2)
def test_LL_equals_its_entry_formula(u, t, s_cap, x_cap):
    # |ns, nx> -> (1/u)^(nx - ns) / ((ms - nx)!_t (nx - ns)!_t) |ms, ns> for
    # ms >= nx >= ns, with the literal t-factorials; the caps may differ
    side = x_cap + 1
    want = {(ms * side + ns, ns * side + nx):
            (1 / u) ** (nx - ns) / (tfact(ms - nx, t) * tfact(nx - ns, t))
            for ns in range(s_cap + 1) for nx in range(x_cap + 1) for ms in range(s_cap + 1)
            if ms >= nx >= ns}
    LL = build_LL(u, t, s_cap, x_cap)
    assert LL.dim == (s_cap + 1) * side
    assert {(r, c): v for r, c, v in LL.entries()} == want


def test_ar_projected_intertwining():
    for N in (1, 2):
        ok, failures = ar_project_check(N, F(2), F(5), F(1, 3),
                                        max_weight=8, max_len=6)
        assert ok, failures[:4]


def test_ar_project_reports_a_perturbed_toda_entry(monkeypatch):
    # the Toda side is folded on the asserted columns only; a wrong entry
    # in one of them must still surface, named by that column
    N, max_weight, max_len = 1, 6, 4
    basis = partition_basis(max_weight, max_part=N + 1, max_length=max_len)
    asserted = {j for j, s in enumerate(basis.states)
                if weight(s) + N + 1 <= max_weight and len(s) + N + 1 <= max_len}
    folded = []

    def perturbed(kind, w, n, t, cols=None):
        T = toda_monodromy(kind, w, n, t, cols=cols)
        empty = w.index[(0,) * n]  # the window state of the empty partition
        assert empty in cols
        folded.extend(cols)
        T[0][0].blocks[0].add_to(empty, empty, 1)
        return T

    monkeypatch.setattr(baxter_q, "toda_monodromy", perturbed)
    ok, failures = ar_project_check(N, F(2), F(5), F(1, 3), max_weight, max_len)
    assert not ok
    assert len(folded) == len(asserted) and basis.index[()] in asserted
    # in degree 0 both sides read 1 at the empty partition, so the
    # perturbed right side reads 2 there and nothing else moves
    empty = basis.label(())
    assert failures == [{"degree": 0, "row": empty, "col": empty,
                         "lhs": format_scalar(F(1)), "rhs": format_scalar(F(2))}]


def test_toda_intertwine_reports_a_perturbed_LL(monkeypatch):
    cap, u = 6, F(5, 3)
    inner_sums = []  # per aux entry, R L and Ltilde R
    # one extra entry between two inner states (1, 1) -> (2, 1)
    LL = build_LL(u, T, cap, cap).add(
        SparseMatrix.from_entries((cap + 1) ** 2, [(2 * (cap + 1) + 1, cap + 2, F(1))]))

    def recorded(terms):
        inner_sums.append(sum_of_scaled_products(terms))
        return inner_sums[-1]

    monkeypatch.setattr(baxter_q, "sum_of_scaled_products", recorded)
    ok, failures = toda_intertwine_check(LL, F(3, 4), u, T, spin_windows(cap, T))
    assert not ok and failures
    states = [(a, b) for a in range(cap + 1) for b in range(cap + 1)]
    index = {f"({a},{b})": k for k, (a, b) in enumerate(states)}
    aux = [(i, j) for i in range(2) for j in range(2)]
    for f in failures:
        assert set(f) == {"aux", "row", "col", "lhs", "rhs"}
        r, c = index[f["row"]], index[f["col"]]
        assert max(states[r] + states[c]) <= cap - 2  # both inner
        # both sides recomputed densely: (R L) LL and LL (Ltilde R)
        left, right = inner_sums[2 * aux.index(f["aux"]):][:2]
        lhs = sum(left.entry(r, k) * LL.entry(k, c) for k in range(len(states)))
        rhs = sum(LL.entry(r, k) * right.entry(k, c) for k in range(len(states)))
        assert (f["lhs"], f["rhs"]) == (format_scalar(lhs), format_scalar(rhs))
        assert lhs != rhs


@pytest.mark.parametrize("N, max_weight, max_len", [(2, 2, 6), (3, 8, 3), (1, 1, 1)])
def test_ar_project_check_rejects_caps_that_assert_no_column(N, max_weight, max_len):
    with pytest.raises(ValueError, match=f"no column at N={N}"):
        ar_project_check(N, F(2), F(5), F(1, 3), max_weight, max_len)
    # one more unit on each cap asserts the empty partition
    ok, _ = ar_project_check(N, F(2), F(5), F(1, 3), N + 1, N + 1)
    assert ok
