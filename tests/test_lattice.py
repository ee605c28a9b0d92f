import random
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from integrable_lab.graded import GradedOperator, SparseMatrix, commutator_items
from integrable_lab.lattice import (
    build_lax,
    build_sixvertex_r,
    folded_toda_transfer,
    free_window_basis,
    hermitian_reflect_check,
    mat2_mul,
    monodromy,
    open_A_via_monodromy,
    open_transfer,
    periodic_transfer,
    qboson_lax_toda_vars,
    qboson_monodromy,
    rll_check_qboson,
    single_site_basis,
    site_op,
    sixvertex_weights,
    toda_gauge_check,
    toda_U,
    toda_lax,
    toda_monodromy,
    toda_open_A,
    toda_shift_op,
    toda_x_op,
    translation_op,
    translation_orbits,
)
from integrable_lab.partitions import (
    occupation_basis,
    occupation_to_partition,
    partition_basis,
    state_norm,
)
from integrable_lab.scalars import format_scalar
from integrable_lab.vertex_ops import build_gamma
from oracles import (chain_basis, open_hamiltonian, periodic_hamiltonian,
                     spin_periodic_transfer_cleared, translation_representatives)


T_SAMPLE = F(2, 7)
X_SAMPLE = F(3, 5)


def printed_lambda2(t, x):
    """The 3x3 transfer matrix as printed, basis order reversed vs ours."""
    return {
        0: {(0, 0): F(1), (1, 1): F(1), (2, 2): F(1)},
        1: {(0, 1): (1 - t), (1, 0): (1 - t**2) * x, (1, 2): (1 - t**2), (2, 1): (1 - t) * x},
        2: {(0, 0): x, (1, 1): x, (2, 2): x},
    }


def as_entry_dict(op):
    return {d: {(r, c): v for r, c, v in op.block(d).entries()} for d in op.degrees()}


def reversed_display(entries, dim):
    return {d: {(dim - 1 - r, dim - 1 - c): v for (r, c), v in m.items()}
            for d, m in entries.items()}


def test_periodic_transfer_matches_printed_matrix():
    lam = periodic_transfer(occupation_basis(2, 2), X_SAMPLE, T_SAMPLE)
    got = reversed_display(as_entry_dict(lam), 3)
    expect = printed_lambda2(T_SAMPLE, X_SAMPLE)
    assert got == expect


def test_periodic_degree_zero_identity():
    for (N, n) in [(2, 2), (3, 2), (4, 3)]:
        lam = periodic_transfer(occupation_basis(N, n), X_SAMPLE, T_SAMPLE)
        assert lam.block(0) == SparseMatrix.identity(lam.dim)


def test_periodic_degree_one_is_hamiltonian():
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        lam = periodic_transfer(occupation_basis(N, n), X_SAMPLE, T_SAMPLE)
        H = periodic_hamiltonian(N, n, X_SAMPLE, T_SAMPLE)
        assert lam.block(1) == H


def test_translation_commutes_and_cycles():
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        lam = periodic_transfer(basis, X_SAMPLE, T_SAMPLE)
        T = translation_op(basis, X_SAMPLE)
        for d in lam.degrees():
            assert T.mul(lam.block(d)) == lam.block(d).mul(T)
        P = SparseMatrix.identity(len(basis))
        for _ in range(N):
            P = T.mul(P)
        assert P == SparseMatrix.identity(P.dim).scale(X_SAMPLE**n)



def test_translation_orbits_read_the_translation_and_one_state_per_orbit():
    for (N, n) in [(1, 3), (2, 2), (3, 2), (4, 4), (5, 6)]:
        basis = occupation_basis(N, n)
        perm, weights, reps = translation_orbits(basis, X_SAMPLE)
        assert translation_op(basis, X_SAMPLE) == SparseMatrix.from_entries(
            len(perm), ((perm[c], c, w) for c, w in enumerate(weights)))
        assert reps == translation_representatives(N, n)
    assert len(reps) == 42 and len(perm) == 210  # (5, 6): every orbit has 5 states


def test_translation_orbits_reject_x_zero():
    # at x = 0 the translation is singular: one column cannot decide its orbit
    basis = occupation_basis(3, 2)
    assert translation_op(basis, 0).nnz() < len(basis)
    with pytest.raises(ValueError, match="x = 0"):
        translation_orbits(basis, 0)

def test_commuting_family():
    rng = random.Random(17)
    for (N, n) in [(2, 2), (3, 3), (4, 2)]:
        t = F(rng.randint(2, 8), 11)
        x = F(rng.randint(2, 8), 9)
        basis = occupation_basis(N, n)
        lam1 = periodic_transfer(basis, x, t)
        assert commutator_items(lam1, lam1, range(lam1.dim), basis, 0) == []


def test_hermitian_reflected_form():
    # N^-1 Lam_k(1/x)^T N = (1/x) Lam_{N-k}(x)
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        norms = [state_norm(occupation_to_partition(m), T_SAMPLE) for m in basis.states]
        ok, failures = hermitian_reflect_check(
            lambda xv: periodic_transfer(basis, xv, T_SAMPLE),
            basis, norms, N, X_SAMPLE, lambda xv: 1 / xv)
        assert ok and failures == [], failures


def test_rll_qboson():
    ok, failures = rll_check_qboson(F(3), F(5), T_SAMPLE, cap=5)
    assert ok, failures[:3]


def test_rll_degenerate_t1():
    ok, _ = rll_check_qboson(F(3), F(5), F(1), cap=4)
    assert ok


def test_sixvertex_weight_example():
    w = sixvertex_weights(F(1), F(1, 2), F(1, 3))
    assert w["a"] == F(1) * F(1, 3) - F(1, 2) == F(-1, 6)
    r = build_sixvertex_r(F(1), F(1, 2), F(1, 3))
    assert r[((0, 0), (0, 0))] == F(-1, 6)


def test_spin_lax_reduces_to_qboson():
    basis = single_site_basis(4)
    qb = build_lax("qboson", basis, {"t": T_SAMPLE})
    sp = build_lax("spin_s", basis, {"t": T_SAMPLE, "s": F(0)})
    for i in range(2):
        for j in range(2):
            assert qb[i][j] == sp[i][j]


def test_single_site_lax_is_the_one_site_chain():
    basis = single_site_basis(4)
    lax = build_lax("qboson", basis, {"t": T_SAMPLE})
    mono = qboson_monodromy(basis, 1, T_SAMPLE)
    for i in range(2):
        for j in range(2):
            assert lax[i][j] == mono[i][j]
    # S raises up to the cap, Sbar lowers with 1 - t^m and drops at m = 0
    S = site_op(basis, 1, 1, +1, lambda m: F(1))
    Sb = site_op(basis, 1, 1, -1, lambda m: 1 - T_SAMPLE ** m)
    assert sorted(S.entries()) == [(m + 1, m, 1) for m in range(4)]
    assert sorted(Sb.entries()) == [(m - 1, m, 1 - T_SAMPLE ** m) for m in range(1, 5)]


def test_open_transfer_matches_gamma_restriction():
    # finite-size consistency: the projected product equals the half vertex
    # operator restricted to lam_1 <= N, for both directions
    D, N = 7, 3
    basis = partition_basis(D, max_part=N)
    A = open_transfer(basis, N, T_SAMPLE, direction="right")
    gm = build_gamma("L", "-", basis, T_SAMPLE)
    for d in range(N + 1):
        assert A.block(d) == gm.block(d), d
    Ab = open_transfer(basis, N, T_SAMPLE, direction="left")
    gp = build_gamma("L", "+", basis, T_SAMPLE)
    for d in range(N + 1):
        assert Ab.block(d) == gp.block(d), d


# rationals off the loci of the routes compared below: t = 0 (the Toda
# x_k^{-1}), t = 1 and t = -1 (the t-factorials of the vertex operators)
RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=9)
OFF_LOCI = RATIONAL.filter(lambda v: v not in (0, 1, -1))


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 3), st.integers(0, 7), OFF_LOCI)
def test_open_transfer_matches_gamma_restriction_at_random_t(N, D, t):
    basis = partition_basis(D, max_part=N)
    for direction, sign in (("right", "-"), ("left", "+")):
        A = open_transfer(basis, N, t, direction=direction)
        gamma = build_gamma("L", sign, basis, t)
        for d in range(N + 1):
            assert A.block(d) == gamma.block(d), (direction, d)


@pytest.mark.parametrize("direction", ["up", "Right", "LEFT", ""])
def test_open_transfer_rejects_an_unknown_direction(direction):
    with pytest.raises(ValueError, match="direction"):
        open_transfer(partition_basis(5), 2, T_SAMPLE, direction)


def test_open_transfer_z1_is_open_hamiltonian():
    D, N = 6, 3
    basis = partition_basis(D, max_part=N)
    A = open_transfer(basis, N, T_SAMPLE)
    assert A.block(1) == open_hamiltonian(basis, N, T_SAMPLE)


def test_monodromy_route_equals_run_expansion():
    # (A_N, Abar_N) from the 2x2 monodromy with a trivial first site agree
    # with the projected-run construction on the common weight window
    N, D, headroom = 2, 5, 4
    big = partition_basis(D + headroom, max_part=N)
    small = partition_basis(D, max_part=N)
    A_m, Abar_m = open_A_via_monodromy(big, N, T_SAMPLE)
    A_r = open_transfer(big, N, T_SAMPLE, direction="right")
    Abar_r = open_transfer(big, N, T_SAMPLE, direction="left")
    keep = [big.index[s] for s in small.states]
    for d in range(N + 1):
        for i in keep:
            for j in keep:
                assert A_m.block(d).entry(i, j) == A_r.block(d).entry(i, j)
                assert Abar_m.block(d).entry(i, j) == Abar_r.block(d).entry(i, j)


def test_monodromy_small_blocks():
    basis = chain_basis(2, 3)
    T = qboson_monodromy(basis, 2, T_SAMPLE)
    # degree-0 block of T_11 is the identity
    assert T[0][0].block(0) == SparseMatrix.identity(len(basis))


def test_toda_lax_entries():
    w = free_window_basis(2, -2, 2)
    L = toda_lax("toda", w, 1, T_SAMPLE)
    # (2,1) entry: -z X_1 x_1^{-1}: on state (0, 0) gives -t^0 |1,0>
    src = w.index[(0, 0)]
    tgt = w.index[(1, 0)]
    assert L[1][0].block(1).entry(tgt, src) == -1
    # (1,2) entry is the diagonal x_1
    assert L[0][1].block(0).entry(src, src) == T_SAMPLE**0
    st = w.index[(2, -1)]
    assert L[0][1].block(0).entry(st, st) == T_SAMPLE**2


def _left_fold(builders, cap):
    # the ordered product (L_1 L_2) L_3 ... of whole-window factors,
    # independent of `monodromy`
    laxes = [build(sources=None) for build in builders]
    T = laxes[0]
    for L in laxes[1:]:
        T = mat2_mul(T, L, cap)
    return T


def _columns(T, cols):
    # per entry and degree, the stored entries of the given columns
    return [[{d: {(r, c): v for r, c, v in m.entries() if c in cols}
              for d, m in e.blocks.items()} for e in row] for row in T]


def _entries(T, cols):
    # every stored entry of a 2x2 operator matrix in the given columns
    return {(i, j, d, r, c): v for i, row in enumerate(T) for j, e in enumerate(row)
            for d, m in e.blocks.items() for r, c, v in m.entries() if c in cols}


def _edge_columns(w):
    # window corners, where the shifts drop targets outside the window
    top, bottom = max(w.states), min(w.states)
    return [w.index[top], w.index[bottom],
            w.index[(top[0],) + bottom[1:]], w.index[bottom[:-1] + (top[-1],)]]


def _fold_cases():
    for N, lo, hi in [(2, -1, 2), (3, 0, 2)]:
        w = free_window_basis(N, lo, hi)
        for kind in ("toda", "toda_bar", "toda_tilde"):
            yield kind, w, N, [partial(toda_lax, kind, w, k, T_SAMPLE) for k in range(1, N + 1)]
        # the q-boson-variable side of the gauge relation, U_N last
        yield "qboson U_N", w, N, [*(partial(qboson_lax_toda_vars, w, k, T_SAMPLE)
                                     for k in range(N)), partial(toda_U, w, N, T_SAMPLE)]


def test_column_fold_equals_columns_of_the_full_fold():
    rng = random.Random(8)
    for name, w, N, builders in _fold_cases():
        full = monodromy(builders, N)
        assert _columns(full, range(len(w))) == _columns(_left_fold(builders, N), range(len(w)))
        # edge columns plus a random handful
        cols = _edge_columns(w) + rng.sample(range(len(w)), 5)
        folded = monodromy(builders, N, cols)
        assert _columns(folded, cols) == _columns(full, cols), name
        assert _columns(folded, range(len(w))) == _columns(folded, cols), name
        if name == "toda":
            assert _columns(toda_monodromy("toda", w, N, T_SAMPLE, cols=cols), cols) == \
                _columns(full, cols)


def test_column_fold_rejects_outside_columns_and_empty_is_zero():
    w = free_window_basis(2, 0, 2)
    builders = [partial(toda_lax, "toda", w, k, T_SAMPLE) for k in (1, 2)]
    for bad in ([len(w)], [-1], [0, len(w) + 3]):
        with pytest.raises(ValueError):
            monodromy(builders, 2, bad)
        with pytest.raises(ValueError):
            toda_monodromy("toda_bar", w, 2, T_SAMPLE, cols=bad)
    empty = monodromy(builders, 2, [])
    assert all(not e.blocks for row in empty for e in row)


def test_window_builders_on_sources_equal_the_whole_window_factor():
    rng = random.Random(10)
    for N, lo, hi in [(2, -1, 2), (3, 0, 2)]:
        w = free_window_basis(N, lo, hi)
        builders = [(f"{kind} k={k}", partial(toda_lax, kind, w, k, T_SAMPLE))
                    for kind in ("toda", "toda_bar", "toda_tilde") for k in range(1, N + 1)]
        builders += [(f"qboson k={k}", partial(qboson_lax_toda_vars, w, k, T_SAMPLE))
                     for k in range(N + 1)]
        builders += [(f"U k={k}", partial(toda_U, w, k, T_SAMPLE)) for k in range(N + 1)]
        for sources in (_edge_columns(w) + rng.sample(range(len(w)), 4), [], [0]):
            for name, build in builders:
                whole = build()
                on_sources = build(sources=sources)
                assert _entries(on_sources, range(len(w))) == _entries(whole, sources), name


def test_toda_gauge_relations():
    for N in (2, 3):
        ok, failures = toda_gauge_check(N, T_SAMPLE)
        assert ok, failures


def test_toda_gauge_builds_every_factor_on_listed_sources(monkeypatch):
    # every relation, local or monodromy level, is a column fold: each
    # factor is asked for the states the fold reaches, never for the window
    from integrable_lab import lattice

    seen = []
    for name in ("toda_lax", "toda_U", "qboson_lax_toda_vars"):
        def recording(*args, real=getattr(lattice, name), name=name, sources=None):
            seen.append((name, sources))
            return real(*args, sources=sources)

        monkeypatch.setattr(lattice, name, recording)
    ok, failures = toda_gauge_check(3, T_SAMPLE)
    assert ok, failures
    assert {name for name, _ in seen} == {"toda_lax", "toda_U", "qboson_lax_toda_vars"}
    assert all(sources is not None for _, sources in seen), seen
    assert max(len(sources) for _, sources in seen) < len(free_window_basis(3, -5, 5))


def test_toda_gauge_reports_a_perturbed_boundary_lax(monkeypatch):
    # d added to entry 11 of the boundary q-boson Lax L_0 = [[1, z], [1, z]]
    # at the window origin e moves the right side of the k = 1 relation
    # U_0 L^Toda_1 = L_0 U_1 in its first row only: in degree 0 the left
    # side reads 1 (entry 11) and x_1 = t^0 = 1 (entry 12) at (e, e), the
    # right side 1 + d for both
    from integrable_lab import lattice

    N, d = 2, F(1, 3)
    w = free_window_basis(N, -(N + 2), N + 2)
    e = w.index[(0,) * N]

    def perturbed(basis, k, t, sources=None):
        L = qboson_lax_toda_vars(basis, k, t, sources)
        if k == 0:
            bump = SparseMatrix.from_entries(len(basis), [(e, e, d)])
            L[0][0] = L[0][0].add(GradedOperator(len(basis), {0: bump}))
        return L

    monkeypatch.setattr(lattice, "qboson_lax_toda_vars", perturbed)
    ok, failures = toda_gauge_check(N, T_SAMPLE)
    assert not ok
    label = w.label(w.states[e])
    assert [f for f in failures if f["relation"] == "local k=1"] == [
        {"relation": "local k=1", "aux": (0, j), "degree": 0, "row": label, "col": label,
         "lhs": "1", "rhs": format_scalar(1 + d)} for j in range(2)]
    # the monodromy side gains d times row e of (L_1 ... U_N) in its first row
    fold = [f for f in failures if f["relation"] == "monodromy"]
    assert fold and all(f["aux"][0] == 0 and f["row"] == label for f in fold)
    assert {f["relation"] for f in failures} == {"local k=1", "monodromy"}


def test_toda_open_A_matches_run_expansion():
    N, max_len = 2, 6
    basis = partition_basis(8, max_part=N, max_length=max_len + N)
    A_run = open_transfer(basis, N, T_SAMPLE, direction="right")
    A_toda = toda_open_A(N, T_SAMPLE, max_len, basis)
    # compare on sources with length headroom
    for d in range(N + 1):
        for j, lam in enumerate(basis.states):
            if len(lam) > max_len:
                continue
            for i in range(len(basis)):
                assert A_toda.block(d).entry(i, j) == A_run.block(d).entry(i, j), (d, lam)


def test_folded_toda_transfer_equals_qboson():
    for (N, n) in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        lam = periodic_transfer(occupation_basis(N, n), X_SAMPLE, T_SAMPLE)
        folded = folded_toda_transfer(N, n, X_SAMPLE, T_SAMPLE)
        assert lam == folded, (N, n)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.integers(0, 4), OFF_LOCI, RATIONAL)
def test_folded_toda_transfer_equals_qboson_at_random_points(N, n, t, x):
    assert periodic_transfer(occupation_basis(N, n), x, t) == folded_toda_transfer(N, n, x, t)


def test_spin_transfer_reduces_at_s0():
    for (N, M) in [(2, 2), (3, 2)]:
        lam = periodic_transfer(occupation_basis(N, M), X_SAMPLE, T_SAMPLE)
        sp = spin_periodic_transfer_cleared(N, M, X_SAMPLE, T_SAMPLE, F(0))
        assert lam == sp


def test_window_ops():
    w = free_window_basis(2, -1, 1)
    X1 = toda_shift_op(w, [1], +1)
    x2 = toda_x_op(w, 2, T_SAMPLE)
    # x X = t X x on coordinate 1
    x1 = toda_x_op(w, 1, T_SAMPLE)
    assert x1.mul(X1) == X1.mul(x1).scale(T_SAMPLE)
    assert x2.mul(X1) == X1.mul(x2)


def test_toda_open_Abar_matches_run_expansion():
    from integrable_lab.lattice import toda_open_Abar

    N, max_len = 2, 6
    basis = partition_basis(8, max_part=N, max_length=max_len + N)
    Ab_run = open_transfer(basis, N, T_SAMPLE, direction="left")
    Ab_toda = toda_open_Abar(N, T_SAMPLE, max_len, basis)
    for d in range(N + 1):
        for j, lam in enumerate(basis.states):
            if len(lam) > max_len:
                continue
            for i in range(len(basis)):
                assert Ab_toda.block(d).entry(i, j) == Ab_run.block(d).entry(i, j), (d, lam)


def test_rll_reports_a_perturbed_weight(monkeypatch):
    from integrable_lab import lattice

    cap = 5
    c_entry = ((1, 0), (0, 1))

    def perturbed(u, v, t):
        R = build_sixvertex_r(u, v, t)
        R[c_entry] += 1
        return R

    monkeypatch.setattr(lattice, "build_sixvertex_r", perturbed)
    u, v = F(3), F(5)
    ok, failures = rll_check_qboson(u, v, T_SAMPLE, cap=cap)
    assert not ok and failures
    # both sides recomputed entry by entry from the perturbed R
    R = perturbed(u, v, T_SAMPLE)
    basis = single_site_basis(cap)
    L = build_lax("qboson", basis, {"t": T_SAMPLE})
    Lu, Lv = ([[e.eval_at(z) for e in row] for row in L] for z in (u, v))
    pairs = [(i, j) for i in range(2) for j in range(2)]
    for f in failures:
        assert set(f) == {"aux", "row", "col", "lhs", "rhs"}
        # only sides holding the perturbed entry can differ: the left side
        # reads its row of R, the right side its column
        row, col = f["aux"]
        assert row == c_entry[0] or col == c_entry[1]
        i, j = basis.labels().index(f["row"]), basis.labels().index(f["col"])
        assert j <= cap - 2
        lhs = sum(R[row, mid] * Lu[mid[0]][col[0]].mul(Lv[mid[1]][col[1]]).entry(i, j)
                  for mid in pairs if (row, mid) in R)
        rhs = sum(R[mid, col] * Lv[row[1]][mid[1]].mul(Lu[row[0]][mid[0]]).entry(i, j)
                  for mid in pairs if (mid, col) in R)
        assert (f["lhs"], f["rhs"]) == (format_scalar(lhs), format_scalar(rhs))
        assert lhs != rhs


def test_ar_project_builds_its_toda_factors_on_few_window_states(monkeypatch):
    from integrable_lab.baxter_q import ar_project_check

    built = []  # (window size, states visited) per state map on a Toda window
    whole = SparseMatrix.from_state_map.__func__

    def counting(cls, basis, fn, sources=None):
        if basis.kind == "window":
            built.append((len(basis), set(range(len(basis)) if sources is None else sources)))
        return whole(cls, basis, fn, sources)

    monkeypatch.setattr(SparseMatrix, "from_state_map", classmethod(counting))
    N = 3  # the ar-project suite's largest N, at its default box
    ok, failures = ar_project_check(N, F(2), F(5), F(1, 3), max_weight=8, max_len=N + 3)
    assert ok, failures[:3]
    (size,) = {n for n, _ in built}
    assert size == (N + 3 + N + 2) ** (N + 1)  # the free window [0, max_len + N + 1]^(N+1)
    # every factor is built on the states the column fold visits: fewer than
    # 1% of the window in all, and under 1% of what whole-window builds cost
    assert len(set().union(*(s for _, s in built))) < size / 100
    assert sum(len(s) for _, s in built) < len(built) * size / 100
