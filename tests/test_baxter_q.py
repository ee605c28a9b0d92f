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
from integrable_lab import baxter_q, graded, suites
from integrable_lab.graded import (
    GradedOperator,
    SparseMatrix,
    commutator_items,
    covariance_items,
    graded_items,
    sum_of_scaled_products,
)
from integrable_lab.lattice import (
    hermitian_reflect_check,
    periodic_transfer,
    toda_monodromy,
    translation_op,
    translation_orbits,
)
from integrable_lab.partitions import (
    occupation_basis,
    occupation_to_partition,
    partition_basis,
    state_norm,
    weight,
)
from integrable_lab.scalars import TTable, format_scalar, tbinom, tfact
from kernel_record import KernelRecord
from oracles import (
    intertwine_factors,
    literal_trace_qmatrix,
    null_psi,
    site_null_vector_check,
    translation_representatives,
)

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
    q = build_qmatrix(occupation_basis(2, 2), X, T)
    got = {d: {(2 - r, 2 - c): v for r, c, v in q.block(d).entries()} for d in q.degrees()}
    assert got == printed_q2(T, X)


def test_qmatrix_degree_zero_identity_and_n0():
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        q = build_qmatrix(occupation_basis(N, n), X, T)
        assert q.block(0) == SparseMatrix.identity(q.dim)
    q0 = build_qmatrix(occupation_basis(3, 0), X, T)
    assert q0.block(0) == SparseMatrix.identity(1)
    assert q0.degrees() == [0]


def test_tq_relation_small():
    rng = random.Random(5)
    for (N, n) in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        t = F(rng.randint(2, 9), 11)
        x = F(rng.randint(2, 9), 13)
        ok, report = tq_check(N, n, x, t, N + n)
        assert ok, (N, n, report)


def test_tq_empty_sector():
    # n = 0: Lambda on the one-dimensional sector is 1 + x z^N
    N = 3
    lam = periodic_transfer(occupation_basis(N, 0), X, T)
    assert lam.block(0).entry(0, 0) == 1
    assert lam.block(N).entry(0, 0) == X
    ok, _ = tq_check(N, 0, X, T, 0)
    assert ok


def test_tq_report_names_rhs_only_entries(monkeypatch):
    # a zero transfer matrix empties the lhs: every wrong entry is rhs-only,
    # so each degree k reports the first three entries, on the orbit
    # representatives (2,0) and (1,1), of its rhs block
    # t^k q_k + x t^(n-k+N) q_(k-N) against a zero lhs; a zero Lambda and
    # the true q are translation covariant, so nothing else is reported
    N, n = 2, 2
    basis = occupation_basis(N, n)
    monkeypatch.setattr(baxter_q, "periodic_transfer",
                        lambda basis, x, t: GradedOperator(len(basis)))
    ok, failures = tq_check(N, n, X, T, 0)
    assert not ok
    q = build_qmatrix(basis, X, T)
    labels = basis.labels()
    reps = translation_representatives(N, n)
    assert reps == [0, 1]
    for k in range(N + n + 1):
        rhs = q.block(k).scale(T ** k).add(q.block(k - N).scale(X * T ** (n - k + N)))
        want = [{"degree": k, "row": labels[r], "col": labels[c], "lhs": "0",
                 "rhs": format_scalar(v)}
                for r, c, v in sorted(rhs.entries(), key=lambda e: (e[1], e[0])) if c in reps]
        assert [f for f in failures if f["degree"] == k] == want[:3]
    assert failures == [
        {"degree": 0, "row": "(2,0)", "col": "(2,0)", "lhs": "0", "rhs": "1"},
        {"degree": 0, "row": "(1,1)", "col": "(1,1)", "lhs": "0", "rhs": "1"},
        {"degree": 1, "row": "(1,1)", "col": "(2,0)", "lhs": "0", "rhs": "-18/49"},
        {"degree": 1, "row": "(2,0)", "col": "(1,1)", "lhs": "0", "rhs": "-6/35"},
        {"degree": 1, "row": "(0,2)", "col": "(1,1)", "lhs": "0", "rhs": "-2/7"},
        {"degree": 2, "row": "(2,0)", "col": "(2,0)", "lhs": "0", "rhs": "12/245"},
        {"degree": 2, "row": "(0,2)", "col": "(2,0)", "lhs": "0", "rhs": "4/49"},
        {"degree": 2, "row": "(1,1)", "col": "(1,1)", "lhs": "0", "rhs": "24/245"},
        {"degree": 3, "row": "(1,1)", "col": "(2,0)", "lhs": "0", "rhs": "-54/245"},
        {"degree": 3, "row": "(2,0)", "col": "(1,1)", "lhs": "0", "rhs": "-18/175"},
        {"degree": 3, "row": "(0,2)", "col": "(1,1)", "lhs": "0", "rhs": "-6/35"},
        {"degree": 4, "row": "(0,2)", "col": "(2,0)", "lhs": "0", "rhs": "3/5"},
        {"degree": 4, "row": "(1,1)", "col": "(1,1)", "lhs": "0", "rhs": "9/25"}]


def test_tq_report_names_a_perturbed_entry(monkeypatch):
    # q_1[r, c] += d moves lhs_1 = q_1 + Lambda_1 q_0 by d and rhs_1 = t q_1
    # (below degree N) by t d: on the representative column c degree 1
    # fails at that entry only.  The entry also breaks U q_1 = q_1 U, U the
    # twisted translation (perm, u): at (perm r, c) U q_1 reads u_r (v + d)
    # and q_1 U the untouched image q_1[perm r, perm c] u_c = u_r v; and at
    # (r, perm^-1 c) q_1 U reads (v + d) u_c' against u_r' q_1[r', c'],
    # (r', c') = (perm^-1 r, perm^-1 c)
    N, n, d = 3, 2, F(1, 3)
    real = build_qmatrix(occupation_basis(N, n), X, T)
    r, c, v = next((r, c, v) for r, c, v in real.block(1).entries() if r != c)
    assert c in translation_representatives(N, n)

    def perturbed(*args):
        q = build_qmatrix(*args)
        q.block(1).add_to(r, c, d)
        return q

    monkeypatch.setattr(baxter_q, "build_qmatrix", perturbed)
    ok, failures = tq_check(N, n, X, T, 1)
    labels = occupation_basis(N, n).labels()
    assert not ok
    relation = [f for f in failures if "operator" not in f]
    assert [f for f in relation if f["degree"] == 1] == [
        {"degree": 1, "row": labels[r], "col": labels[c],
         "lhs": format_scalar(T * v + d), "rhs": format_scalar(T * (v + d))}]
    assert relation[0]["degree"] == 1
    assert [f for f in relation if f["degree"] == 1] == [
        {"degree": 1, "row": "(1,1,0)", "col": "(2,0,0)", "lhs": "-5/147", "rhs": "-40/147"}]
    # (r, c) = ((1,1,0), (2,0,0)), v = -9/7, u_r = u_c = 1; (r', c') =
    # ((1,0,1), (0,0,2)), u_r' = x, u_c' = x^2
    assert [f for f in failures if "operator" in f] == [
        {"operator": "q", "degree": 1, "row": "(0,1,1)", "col": "(2,0,0)",
         "lhs": format_scalar(v + d), "rhs": format_scalar(v)},
        {"operator": "q", "degree": 1, "row": "(1,1,0)", "col": "(0,0,2)",
         "lhs": format_scalar(X * real.block(1).entry(2, 5)),
         "rhs": format_scalar((v + d) * X ** 2)}]
    assert [f for f in failures if "operator" in f] == [
        {"operator": "q", "degree": 1, "row": "(0,1,1)", "col": "(2,0,0)",
         "lhs": "-20/21", "rhs": "-9/7"},
        {"operator": "q", "degree": 1, "row": "(1,1,0)", "col": "(0,0,2)",
         "lhs": "-81/175", "rhs": "-12/35"}]


def test_tq_failure_items_are_pinned(monkeypatch):
    # q_1[(2,0), (1,1)] += 1/5 at x = 2, t = 1/3; the relation items below
    # are the report of the Fraction-storage implementation, pinned
    # literally, so a change of storage or comparison cannot move the
    # degree, the labels or either value.  The column (1,1) is an orbit
    # representative, so the relation is decided there as before; the
    # covariance items that follow name the broken U q_1 = q_1 U
    def perturbed(*args):
        q = build_qmatrix(*args)
        q.block(1).add_to(0, 1, F(1, 5))
        return q

    monkeypatch.setattr(baxter_q, "build_qmatrix", perturbed)
    ok, failures = tq_check(2, 2, F(2), F(1, 3), 2)
    assert not ok
    assert failures == [
        {"degree": 1, "row": "(2,0)", "col": "(1,1)", "lhs": "-7/15", "rhs": "-3/5"},
        {"degree": 2, "row": "(1,1)", "col": "(1,1)", "lhs": "28/45", "rhs": "4/9"},
        {"degree": 3, "row": "(2,0)", "col": "(1,1)", "lhs": "-14/15", "rhs": "-6/5"},
        {"operator": "q", "degree": 1, "row": "(2,0)", "col": "(1,1)", "lhs": "-4",
         "rhs": "-18/5"},
        {"operator": "q", "degree": 1, "row": "(0,2)", "col": "(1,1)", "lhs": "-9/5",
         "rhs": "-2"}]
    ok, failures = tq_check(3, 2, F(-3, 7), F(5, 2), 3)
    assert not ok
    # the perturbed q_1[(2,0,0), (1,1,0)] was 0 (bosons move right), and so
    # are its image q_1[(0,2,0), (0,1,1)] and its preimage
    # q_1[(0,0,2), (1,0,1)]: only stored entries are visited, so one
    # covariance item shows where the commutator with U would list two
    assert failures == [
        {"degree": 1, "row": "(2,0,0)", "col": "(1,1,0)", "lhs": "1/5", "rhs": "1/2"},
        {"degree": 2, "row": "(1,1,0)", "col": "(1,1,0)", "lhs": "-21/20", "rhs": "0"},
        {"degree": 3, "row": "(1,0,1)", "col": "(1,1,0)", "lhs": "-21/20", "rhs": "0"},
        {"degree": 4, "row": "(2,0,0)", "col": "(1,1,0)", "lhs": "-3/35", "rhs": "-3/14"},
        {"operator": "q", "degree": 1, "row": "(0,2,0)", "col": "(1,1,0)", "lhs": "1/5",
         "rhs": "0"}]




def test_tq_and_lambda_q_multiply_only_the_representative_columns(monkeypatch):
    # a passing tq forms no product: it projects on the left, on y drawn on
    # every row, and the q blocks its covectors meet keep one column per
    # translation orbit: at (N, n) = (5, 6) every orbit holds 5 states, so
    # 42 of the 210 columns of q
    kernels = KernelRecord(monkeypatch)
    seed = 7
    ok, failures = tq_check(5, 6, X, T, seed)
    assert ok, failures[:3]
    basis = occupation_basis(5, 6)
    assert len(basis) == 210
    assert kernels.products == []
    y = graded.random_vector(range(210), seed)[1]
    assert kernels.covectors and all(v == y or kernels.row_computed(v)
                                     for v in kernels.covectors)
    reps = set(translation_representatives(5, 6))
    assert len(reps) == 42
    lam = periodic_transfer(basis, X, T)
    q = build_qmatrix(basis, X, T)
    lam_reads = [cols for cols in kernels.read if any(cols == b.cols for b in lam.blocks.values())]
    q_reads = [cols for cols in kernels.read if cols not in lam_reads]
    assert len(lam_reads) == len(lam.blocks)  # y^T Lambda_i, once per block
    assert q_reads and all(any(cols.keys() == reps & b.cols.keys() for b in q.blocks.values())
                           for cols in q_reads)
    assert set().union(*q_reads) == reps
    # both commutators of lambda-q, on the sector (4, 4), are projected on
    # a vector drawn on one column per translation orbit, 10 of 35 columns,
    # and form no product: the only products of the passing suite are the
    # auxiliary-spin trace's, each a right factor of state norms (diagonal)
    kernels = KernelRecord(monkeypatch)
    seed = 0
    report = suites.run_suite(suites.SuiteSpec("lambda-q", seed, {"pairs": [(4, 4)], "draws": 1}))
    assert report["status"] == "pass"
    reps = translation_representatives(4, 4)
    assert len(reps) == 10 and len(occupation_basis(4, 4)) == 35
    x = graded.random_vector(reps, seed + 6)[1]  # the suite's x draw seed, seed + 41 i + 6
    drawn = kernels.drawn(x)
    assert drawn and all(set(v) == set(reps) for v in drawn)
    assert all(kernels.computed(v) for v in kernels.received if v not in drawn)
    assert kernels.products and all(col.keys() == {c} for bcols in kernels.products
                                    for c, col in bcols.items())

def tq_product_route(N, n, x, t):
    """The failure items of the TQ relation decided on products, as the
    relation was before its left projection: Lambda q, q kept on the orbit
    representatives, against q(tz) + x z^N t^n q(z/t) there, then the
    covariance items of Lambda and q (the builders as baxter_q binds them)."""
    basis = occupation_basis(N, n)
    perm, weights, reps = translation_orbits(basis, x)
    lam = baxter_q.periodic_transfer(basis, x, t)
    q = baxter_q.build_qmatrix(basis, x, t)
    keep = set(reps)
    q_reps = {k: b.keep_columns(keep) for k, b in q.blocks.items()}
    lhs = lam.compose(GradedOperator(lam.dim, q_reps), N + n)
    rhs = GradedOperator(lam.dim, {k: b.scale(t ** k) for k, b in q_reps.items()}).add(
        GradedOperator(lam.dim, {k + N: b.scale(x * t ** (n - k)) for k, b in q_reps.items()}))
    items = graded_items(lhs, rhs, N + n, reps, basis)
    for name, op in (("Lambda", lam), ("q", q)):
        items += covariance_items(op, perm, weights, basis, operator=name)
    return items


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(["periodic_transfer", "build_qmatrix"]),
       st.integers(0, 10**6), st.sampled_from([None, F(1, 3), F(-2), F(5, 7)]),
       st.sampled_from([(F(2, 7), F(3, 5)), (F(-5, 3), F(-7, 2)), (F(3, 11), F(2))]),
       st.integers(0, 2**16))
def test_tq_projection_fails_a_bumped_representative_column_with_the_product_items(
        N, n, name, where, bump, tx, seed):
    # one entry of Lambda or q, in a column that is an orbit representative,
    # moved by `bump`: the left projection sees it, and the failure items are
    # those of the product route; unbumped, the check passes
    t, x = tx
    basis = occupation_basis(N, n)
    reps = translation_representatives(N, n)
    real = getattr(baxter_q, name)
    degrees = real(basis, x, t).degrees()
    k = degrees[where % len(degrees)]
    r, c = where // 7 % len(basis), reps[where // 11 % len(reps)]

    def bumped(basis, x, t):
        op = real(basis, x, t)
        if bump is not None:
            op.blocks[k].add_to(r, c, bump)
        return op

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baxter_q, name, bumped)
        ok, failures = tq_check(N, n, x, t, seed)
        assert failures == tq_product_route(N, n, x, t)
    assert ok == (bump is None)


def test_tq_projection_that_differs_where_the_products_agree_still_fails(monkeypatch):
    # the covector kernel made to return y^T Lambda_0 + 1 on its first call:
    # degree 0 differs, the products agree, and one item says so
    assert tq_check(3, 2, X, T, 0) == (True, [])
    real = graded._vec_mat
    calls = []

    def first_call_off(cols, covec):
        out = real(cols, covec)
        calls.append(1)
        return {c: v + 1 for c, v in out.items()} if len(calls) == 1 else out

    monkeypatch.setattr(graded, "_vec_mat", first_call_off)
    assert tq_check(3, 2, X, T, 0) == (
        False, [{"degree": 0, "projection": "differs; no product entry does"}])


def test_tq_and_lambda_q_reject_x_zero(monkeypatch):
    # at x = 0 the twisted translation is singular, so one column per orbit
    # decides nothing: the locus is rejected before any operator is built
    built = []
    for name in ("periodic_transfer", "build_qmatrix"):
        monkeypatch.setattr(baxter_q, name, lambda *args, name=name: built.append(name))
    with pytest.raises(ValueError, match="x = 0"):
        tq_check(3, 2, F(0), T, 0)
    assert built == []
    # the suites never draw x = 0; a draw forced there is rejected too
    real = suites.draw_params
    monkeypatch.setattr(suites, "draw_params", lambda seed, strategy, count=1:
                        [F(0)] * count if strategy == "generic" else real(seed, strategy, count))
    with pytest.raises(ValueError, match="x = 0"):
        suites.run_suite(suites.SuiteSpec("lambda-q", 0))

def test_qmatrix_rejects_t_one():
    with pytest.raises(ValueError, match="t = 1"):
        build_qmatrix(occupation_basis(2, 0), X, F(1))
    with pytest.raises(ValueError, match="t = 1"):
        trace_qmatrix(2, 2, F(3, 4), X, F(1))


def test_qmatrix_rejects_t_minus_one_where_a_t_factorial_vanishes():
    # 2!_t = (1 - t)(1 - t^2) = 0 at t = -1: binom(2, 2)_t would be 0/0
    with pytest.raises(ValueError, match="t = -1"):
        build_qmatrix(occupation_basis(2, 2), F(2), F(-1))
    # the trace's spin labels reach 2n, so 2!_t divides already at n = 1
    with pytest.raises(ValueError, match="t = -1"):
        trace_qmatrix(2, 1, F(3, 4), F(2), F(-1))
    # below those degrees no t-factorial quotient is 0/0
    assert tq_check(2, 1, F(2), F(-1), 0)[0] and tq_check(3, 1, F(2), F(-1), 1)[0]
    assert trace_qmatrix(2, 0, F(3, 4), F(2), F(-1)).block(0) == \
        build_qmatrix(occupation_basis(2, 0), F(2), F(-1)).eval_at(F(3, 4))


def test_commutation_checks():
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        q = build_qmatrix(basis, X, T)
        shift = GradedOperator(q.dim, {0: translation_op(basis, X)})
        assert commutator_items(periodic_transfer(basis, X, T), q, range(q.dim), basis, 0) == []
        assert commutator_items(q, q, range(q.dim), basis, 0) == []
        assert commutator_items(shift, q, range(q.dim), basis, 0) == []


def test_q_hermitian_reflect():
    # T N^-1 q_k(1/x)^T N = (-1)^n q_{n-k}(x), T the one-step translation
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        norms = [state_norm(occupation_to_partition(m), T) for m in basis.states]
        ok, failures = hermitian_reflect_check(
            lambda xv: build_qmatrix(basis, xv, T), basis, norms, n, X,
            lambda xv: (-1) ** n, translation_op(basis, X))
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


def test_build_LL_names_the_pole_at_u_zero():
    # its entries carry powers of 1/u: the locus is named before any division
    with pytest.raises(ValueError, match="u = 0"):
        build_LL(0, T, 3, 3)


def test_ll_F_op_names_the_pole_at_u_zero():
    # F carries (1/u)^m as build_LL does: the locus is named before any division
    with pytest.raises(ValueError, match="u = 0"):
        ll_F_op(0, F(1, 2), 3)


def test_toda_intertwine_names_the_pole_at_u_zero():
    # R(z/u) reads z/u: the locus is named before any division, whatever LL is
    t = F(1, 3)
    with pytest.raises(ValueError, match="u = 0"):
        toda_intertwine_check(build_LL(F(1, 2), t, 4, 4), t, 0, t, spin_windows(4, t), 0)


def test_lax_relation_checks_project_on_the_inner_states(monkeypatch):
    # a passing auxiliary Lax or intertwining check forms no product: both
    # sides are applied, right to left, to one vector drawn on the inner
    # states, so every right factor reads those columns and no other
    cap, u, z, seed = 6, F(5, 3), F(3, 4), 11
    LL, windows = build_LL(u, T, cap, cap), spin_windows(cap, T)
    inner = set(windows[2])
    assert len(inner) == (cap - 1) ** 2 < len(windows[1])
    x = graded.random_vector(inner, seed)[1]
    kernels = KernelRecord(monkeypatch)
    for check in (lambda: ll_relations_check(LL, u, T, windows, seed),
                  lambda: toda_intertwine_check(LL, z, u, T, windows, seed)):
        kernels.clear()
        assert check() == (True, [])
        assert kernels.products == []
        drawn = kernels.drawn(x)
        assert drawn and all(set(v) == inner for v in drawn)


def test_ll_four_relations():
    u = F(5, 3)
    ok, failures = ll_relations_check(build_LL(u, T, 6, 6), u, T, spin_windows(6, T), 0)
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
    ok, failures = ll_relations_check(LL, u, T, spin_windows(cap, T), 0)
    assert not ok
    assert [f for f in failures if f["relation"] == "Lc x = x Lc"] == [
        {"relation": "Lc x = x Lc", "row": "(1,1)", "col": "(1,2)",
         "lhs": format_scalar(d * T ** 2), "rhs": format_scalar(T * d)}]


def test_toda_intertwine():
    u = F(5, 3)
    ok, failures = toda_intertwine_check(build_LL(u, T, 6, 6), F(3, 4), u, T, spin_windows(6, T),
                                         0)
    assert ok, failures[:3]


def test_trace_construction_matches_closed_form():
    z = F(3, 4)
    for (N, n) in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        q = build_qmatrix(occupation_basis(N, n), X, T)
        direct = q.eval_at(z)
        traced = trace_qmatrix(N, n, z, X, T).block(0)
        assert direct == traced, (N, n)


@pytest.mark.parametrize("N", range(1, 5))
def test_trace_on_integers_equals_the_fraction_sweep(N):
    # the amplitudes over D^N summed per (target, column) as ints against
    # the sweep in Fractions with one add_to per traced path; x = 0 keeps
    # only the unfolded targets
    for n in range(4):
        for z, x, t in product((F(3, 4), F(-2, 5)), (F(3, 5), F(-7, 2), F(0)),
                               (F(2, 7), F(-5, 3))):
            assert trace_qmatrix(N, n, z, x, t) == literal_trace_qmatrix(N, n, z, x, t), \
                (n, z, x, t)


def test_trace_builds_the_auxiliary_lax_operator_once(monkeypatch):
    # the sweep reads the steps of one LL(-1/z) on spin labels up to 2n
    calls = []

    def recording(*args, real=baxter_q.build_LL):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(baxter_q, "build_LL", recording)
    z = F(3, 4)
    assert trace_qmatrix(3, 3, z, X, T).block(0) == \
        build_qmatrix(occupation_basis(3, 3), X, T).eval_at(z)
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

    n = 6
    basis = occupation_basis(5, n)
    want = build_qmatrix(basis, X, T)
    monkeypatch.setattr(baxter_q, "TTable", RecordingTable)
    assert build_qmatrix(basis, X, T) == want
    assert sorted(reads) == [(m, d) for m in range(n + 1) for d in range(m + 1)]
    assert sum(want.block(k).nnz() for k in want.degrees()) > 100 * len(reads)


RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.integers(0, 4), RATIONAL.filter(lambda v: v not in (1, -1)),
       RATIONAL, RATIONAL.filter(lambda v: v != 0))
def test_trace_construction_matches_closed_form_at_random_points(N, n, t, x, z):
    # off the declared loci: t = 1 and -1 (the t-factorials), z = 0
    assert build_qmatrix(occupation_basis(N, n), x, t).eval_at(z) == \
        trace_qmatrix(N, n, z, x, t).block(0)


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
    q = build_qmatrix(occupation_basis(N, n), x, t)
    got = {(k, r, c): v for k in q.degrees() for r, c, v in q.block(k).entries()}
    assert got == literal_qmatrix(N, n, x, t)


@pytest.mark.parametrize("t, x", [(F(2, 7), F(3, 5)), (F(-5, 3), F(-7, 2)), (F(3, 11), F(0)),
                                  (F(0), F(2))])
def test_qmatrix_over_its_entries_denominators_is_the_literal_expansion(t, x):
    # each entry of q is summed over its own t-binomials' denominators; on
    # every sector with N, n <= 4 it is the literal tbinom expansion of the
    # docstring formula, which reads no t-table, x = 0 (no seam move) and
    # t = 0 included, which the property test above does not draw
    for N in range(1, 5):
        for n in range(5):
            q = build_qmatrix(occupation_basis(N, n), x, t)
            got = {(k, r, c): v for k in q.degrees() for r, c, v in q.block(k).entries()}
            assert got == literal_qmatrix(N, n, x, t), (N, n)


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


def test_toda_intertwine_reports_a_perturbed_LL():
    cap, u, z = 6, F(5, 3), F(3, 4)
    windows = spin_windows(cap, T)
    # one extra entry between two inner states (1, 1) -> (2, 1)
    LL = build_LL(u, T, cap, cap).add(
        SparseMatrix.from_entries((cap + 1) ** 2, [(2 * (cap + 1) + 1, cap + 2, F(1))]))
    ok, failures = toda_intertwine_check(LL, z, u, T, windows, 0)
    assert not ok and failures
    # per aux entry (i, j), R L^Toda and Ltilde R, built here from their factors
    R, L_toda, L_tilde = intertwine_factors(windows, z, u, T)
    sums = {(i, j): (sum_of_scaled_products((1, R[i][k], L_toda[k][j]) for k in range(2)),
                     sum_of_scaled_products((1, L_tilde[i][k], R[k][j]) for k in range(2)))
            for i in range(2) for j in range(2)}
    states = [(a, b) for a in range(cap + 1) for b in range(cap + 1)]
    index = {f"({a},{b})": k for k, (a, b) in enumerate(states)}
    for f in failures:
        assert set(f) == {"aux", "row", "col", "lhs", "rhs"}
        r, c = index[f["row"]], index[f["col"]]
        assert max(states[r] + states[c]) <= cap - 2  # both inner
        # both sides recomputed densely: (R L) LL and LL (Ltilde R)
        left, right = sums[f["aux"]]
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


@pytest.mark.parametrize("t", [F(1), F(-1)])
def test_build_LL_names_the_t_factorial_zeros(t):
    # k!_t = 0 for k >= 1 at t = 1 and k >= 2 at t = -1: named before any division
    with pytest.raises(ValueError, match=f"t = {t} is a singular point"):
        build_LL(F(1, 2), t, 3, 3)


def test_ar_project_check_names_the_pole_at_t_zero():
    # the Toda Lax matrices read t^-v
    with pytest.raises(ValueError, match="t = 0"):
        ar_project_check(1, F(1, 2), F(1, 3), 0, 4, 4)


def test_spin_windows_names_the_pole_at_t_zero():
    # t^-label on the first label
    with pytest.raises(ValueError, match="t = 0"):
        spin_windows(4, 0)


def test_ll_relations_check_names_the_pole_at_t_zero():
    # the second window's t^-label is built at the t the check is given
    windows = spin_windows(4, T)
    with pytest.raises(ValueError, match="t = 0"):
        ll_relations_check(build_LL(F(1, 2), T, 4, 4), F(1, 2), 0, windows, 0)


def test_ar_project_check_names_the_pole_at_u_zero():
    # Abar^R_N is read at 1/u: the locus is named before any division
    with pytest.raises(ValueError, match="u = 0"):
        ar_project_check(1, F(1, 2), 0, F(1, 3), 4, 4)
