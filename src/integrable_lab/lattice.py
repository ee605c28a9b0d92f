"""Lax matrices, R-matrices, monodromies and transfer matrices.

Chains live on occupation bases (site k holds m_k bosons).  Builders
take their basis and checks take sizes: a ring builder reads N and n off
its sector (`partitions.sector_sizes`), so a check enumerates it once.  The
projected products that define the transfer matrices are expanded as
sums of per-site boson moves: each subset of chosen bonds moves one
boson across every chosen bond, and the projection erases the
creation/annihilation pair at every site inside a run of chosen bonds,
so only the sites that end one boson short carry a weight 1 - t^{m_k}.
Naive operator multiplication would be wrong here (S Sbar is not 1 as an
operator), so the moves are summed directly.  `periodic_transfer` sums
them per run-start class (the subsets whose weighted sites coincide) on
integer state codes of its own, apart from `baxter_q.build_qmatrix`'s,
whose Q-matrix the ring identities check against it.

The Toda-variable realization acts on free integer-tuple windows: the
shift operators generate a Weyl torus algebra whose products may pass
through non-ordered intermediate labels, so the decreasing-cone
restriction is applied only to initial and final states.
"""

from __future__ import annotations

from functools import partial
from itertools import product as iproduct
from math import prod
from operator import add, mul

from .graded import (
    GradedOperator,
    SparseMatrix,
    graded_items,
    mismatch_items,
    sum_of_products,
    sum_of_scaled_products,
)
from .partitions import (
    Basis,
    conjugate,
    occupation_basis,
    occupation_to_partition,
    partition_to_occupation,
    sector_sizes,
)
from .scalars import ONE, TTable, as_scalar


# ---------------------------------------------------------------------------
# single-site q-boson and spin algebra

def single_site_basis(cap: int) -> Basis:
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return Basis([(m,) for m in range(cap + 1)], kind="occupation")


def _state_occ(basis: Basis, state, N: int):
    if basis.kind == "occupation":
        return state
    return partition_to_occupation(state, N)


def _occ_state(basis: Basis, occ):
    if basis.kind == "occupation":
        return tuple(occ)
    return occupation_to_partition(occ)


def site_op(basis: Basis, N: int, site: int, step: int, amp) -> SparseMatrix:
    """Adds `step` bosons at `site` (1-based) of an N-site chain basis
    (occupation tuples or partitions), with amplitude amp(m) of the source
    occupancy m there; a single site is N = site = 1.

    S is step +1 with amp 1, Sbar step -1 with amp 1 - t^m, and step 0
    gives a diagonal.  Sources with fewer than -step bosons at the site and
    targets outside the basis are dropped.
    """
    k = site - 1

    def move(state):
        occ = list(_state_occ(basis, state, N))
        m = occ[k]
        if m + step < 0:
            return None
        occ[k] = m + step
        return _occ_state(basis, occ), amp(m)

    return SparseMatrix.from_state_map(basis, move)


def build_lax(kind: str, z_site_basis: Basis, params: dict):
    """2x2 matrix of GradedOperators for one site.

    qboson: [[1, z Sbar], [S, z]]
    spin_s: the cleared form (1+zs) L^s = [[1+zK, z S-], [S+, z+K]] with
    K = s tau, S- = Sbar, S+ = S (1 - s^2 tau)
    Both act on site params["site"] of a params["N"]-site chain basis (both
    default to 1, a single site).  The Toda-variable Lax matrices act on
    integer windows instead: see `toda_lax`.
    """
    t = as_scalar(params["t"])
    site = int(params.get("site", 1))
    if kind not in ("qboson", "spin_s"):
        raise ValueError(f"unknown single-site lax kind {kind!r}")
    N = int(params.get("N", 1))
    dim = len(z_site_basis)
    I = SparseMatrix.identity(dim)
    Sb = site_op(z_site_basis, N, site, -1, lambda m: ONE - t ** m)
    if kind == "qboson":
        S = site_op(z_site_basis, N, site, +1, lambda m: ONE)
        return [[GradedOperator(dim, {0: I}), GradedOperator(dim, {1: Sb})],
                [GradedOperator(dim, {0: S}), GradedOperator(dim, {1: I})]]
    s = as_scalar(params["s"])
    K = site_op(z_site_basis, N, site, 0, lambda m: s * t ** m)
    Sp = site_op(z_site_basis, N, site, +1, lambda m: ONE - s * s * t ** m)
    return [[GradedOperator(dim, {0: I, 1: K}), GradedOperator(dim, {1: Sb})],
            [GradedOperator(dim, {0: Sp}), GradedOperator(dim, {0: K, 1: I})]]


# ---------------------------------------------------------------------------
# R-matrices

def sixvertex_weights(u, v, t):
    u, v, t = as_scalar(u), as_scalar(v), as_scalar(t)
    return {"a": u * t - v, "b": u - v, "bbar": t * (u - v),
            "c": v * (t - 1), "cbar": u * (t - 1)}


def build_sixvertex_r(u, v, t) -> dict:
    """Nonzero entries of the 4x4 six-vertex R, keyed ((i1,i2),(j1,j2))."""
    w = sixvertex_weights(u, v, t)
    return {
        ((0, 0), (0, 0)): w["a"],
        ((1, 1), (1, 1)): w["a"],
        ((0, 1), (0, 1)): w["b"],
        ((0, 1), (1, 0)): w["cbar"],
        ((1, 0), (0, 1)): w["c"],
        ((1, 0), (1, 0)): w["bbar"],
    }


def rll_check_qboson(u, v, t, cap: int):
    """R12 L1(u) L2(v) = L2(v) L1(u) R12 entrywise on interior states.

    Interior = source occupancy <= cap - 2, so no path can leave the
    truncated site space.  Returns (ok, failures).
    """
    basis = single_site_basis(cap)
    L = build_lax("qboson", basis, {"t": t})

    def lax(z):
        return [[entry.eval_at(z) for entry in row] for row in L]

    R = build_sixvertex_r(u, v, t)
    Lu, Lv = lax(u), lax(v)
    pairs = [(i, j) for i in range(2) for j in range(2)]
    interior = [j for j, (m,) in enumerate(basis.states) if m <= cap - 2]
    failures = []
    for row in pairs:
        for col in pairs:
            lhs = sum_of_scaled_products((R[row, mid], Lu[mid[0]][col[0]], Lv[mid[1]][col[1]])
                                         for mid in pairs if (row, mid) in R)
            rhs = sum_of_scaled_products((R[mid, col], Lv[row[1]][mid[1]], Lu[row[0]][mid[0]])
                                         for mid in pairs if (mid, col) in R)
            failures += mismatch_items(lhs.mismatches(rhs, interior), basis, aux=(row, col))
    return not failures, failures


# ---------------------------------------------------------------------------
# chain bases and projected products

def periodic_transfer(basis: Basis, x, t) -> GradedOperator:
    """Projected product over bonds k -> k+1 (cyclic) of the sector `basis`, twist x on the seam.

    Each subset of chosen bonds is one term of z-degree its size: every
    chosen bond k carries one boson from site k to site k+1, so site k
    gains c_{k-1} - c_k (c_k = 1 when bond k is chosen).  The projection
    erases the pair a boson leaves inside a run of chosen bonds, so the
    weight is a factor 1 - t^{m_k} at each run start (bond k chosen,
    bond k-1 not), the sites that end one boson short, times x when the
    seam bond N -> 1 is chosen.  An empty run start weighs 1 - t^0 = 0.
    The empty subset is the identity and the full ring, with no run
    start, is z^N x times the identity.

    Built per run-start class on integer codes.  The weight of a subset
    reads only its run starts, which are never adjacent on the ring, so
    the 2^N subsets fall into few classes (11 for N = 5, the independent
    sets of the 5-cycle), and a column computes one product of the
    (numerator, denominator) pairs of 1 - t^{m_k}, read from one
    `TTable`, per class, and skips a class whose weight is 0.  Each
    subset of the class then yields its entry at that weight, times
    x = xn / xd when it takes the seam bond.  A state m is coded as
    sum_k m_k (n + 1)^k, so a subset shifts the code of every state by
    one int, and each target is one dict lookup.  The index is this
    builder's own: `baxter_q.build_qmatrix`, which the TQ relation and
    the commutators check against it, codes its states apart, so that a
    bug in one lookup cannot certify itself through the other.
    """
    t, x = as_scalar(t), as_scalar(x)
    N, n = sector_sizes(basis)
    one_minus = TTable(t).one_minus
    ratio = [one_minus[m].as_integer_ratio() for m in range(n + 1)]
    xn, xd = x.as_integer_ratio()
    w = [(n + 1) ** k for k in range(N)]
    codes = [sum(map(mul, m, w)) for m in basis.states]
    index = dict(zip(codes, range(len(codes))))
    step = [w[(k + 1) % N] - w[k] for k in range(N)]  # one boson across bond k
    # run starts -> ([(degree, code shift)] off the seam, [(degree, code shift)]
    # on it), subsets in ascending bits; at x = 0 the seam weighs 0
    classes = {}
    for bits in range(2 ** N):
        chosen = [k for k in range(N) if bits >> k & 1]
        seam = bits >> (N - 1)  # bond N - 1 is the seam
        starts = tuple(k for k in chosen if not bits >> (k - 1) % N & 1)
        plain, seamed = classes.setdefault(starts, ([], []))
        if xn or not seam:
            (seamed if seam else plain).append((len(chosen), sum(step[k] for k in chosen)))
    classes = list(classes.items())

    def entries():
        for j, (m, code) in enumerate(zip(basis.states, codes)):
            for starts, (plain, seam) in classes:
                num = den = 1
                for k in starts:
                    p, q = ratio[m[k]]
                    num *= p
                    den *= q
                if not num:  # an empty run start weighs 0 and would go negative
                    continue
                for degree, shift in plain:
                    yield degree, index[code + shift], j, num, den
                num *= xn
                den *= xd
                for degree, shift in seam:
                    yield degree, index[code + shift], j, num, den

    return GradedOperator.from_ratios(len(basis), entries(), N)


def translation_op(basis: Basis, x) -> SparseMatrix:
    """One-step translation of the sector `basis`: bosons move one site right, seam carries x."""
    x = as_scalar(x)
    sector_sizes(basis)  # a basis that is not one sector raises
    return SparseMatrix.from_state_map(basis, lambda m: ((m[-1],) + m[:-1], x ** m[-1]))


def translation_orbits(basis: Basis, x):
    """(perm, weights, reps): the translation `translation_op(basis, x)` as
    U e_c = weights[c] e_{perm[c]} on the sector `basis`, read from the
    basis states (weights[c] = x^{m_N} for the state m at c), and `reps`,
    the least index of each orbit of perm, ascending.

    An operator that commutes with U, with U invertible, vanishes on a
    whole orbit when it vanishes on one column of it, since
    D e_{perm[c]} = U D e_c / weights[c].  U is singular at x = 0, which
    raises ValueError.
    """
    x = as_scalar(x)
    if x == 0:
        raise ValueError("x = 0: the twisted translation is singular there, so one column "
                         "per orbit does not decide a translation-covariant identity")
    sector_sizes(basis)  # a basis that is not one sector raises
    perm = [basis.index[(m[-1],) + m[:-1]] for m in basis.states]
    weights = [x ** m[-1] for m in basis.states]
    reps, seen = [], set()
    for j in range(len(perm)):
        if j not in seen:
            reps.append(j)
            k = j
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return perm, weights, reps


def open_transfer(basis: Basis, N: int, t, direction: str = "right") -> GradedOperator:
    """Open-chain projected product on a partition basis with lam_1 <= N.

    Each subset of chosen bonds 1..N is one term of z-degree its size.
    direction "right": bond 1 creates a boson at site 1 and bond k >= 2
    carries one from site k-1 to site k, weighted by 1 - t^{m_{k-1}} at
    every run start (bond k >= 2 chosen, bond k-1 not).  direction
    "left": the mirror image, bond 1 annihilating at site 1 and bond k
    carrying one from site k to site k-1, weighted by 1 - t^{m_k} at
    every run end (bond k chosen, bond k+1 not or k = N), graded by
    powers of 1/z stored positively.  Either way the weighted sites are
    those that end one boson short; targets outside the basis are dropped.
    Targets are looked up by occupation, and amplitudes are integer
    (numerator, denominator) products of the site weights.
    """
    if direction not in ("right", "left"):
        raise ValueError(f"direction must be 'right' or 'left', not {direction!r}")
    t = as_scalar(t)
    sign = 1 if direction == "right" else -1  # "left" moves every boson back
    subsets = []  # (degree, gain per site, weighted sites)
    for bits in range(2 ** N):
        c = [bits >> k & 1 for k in range(N)] + [0]
        gain = [sign * (c[k] - c[k + 1]) for k in range(N)]
        subsets.append((sum(c), gain, [k for k in range(N) if gain[k] < 0]))

    index = {partition_to_occupation(lam, N): j for j, lam in enumerate(basis.states)
             if not lam or lam[0] <= N}  # lam_1 > N: outside the projector, zero column

    def entries():
        for m, j in index.items():
            weight = [ONE - t ** mk for mk in m]
            for degree, gain, short in subsets:
                num = prod(weight[k].numerator for k in short)
                if num:  # an empty weighted site weighs 0 and would go negative
                    i = index.get(tuple(map(add, m, gain)))
                    if i is not None:
                        yield degree, i, j, num, prod(weight[k].denominator for k in short)

    return GradedOperator.from_ratios(len(basis), entries(), N)


# ---------------------------------------------------------------------------
# 2x2 operator matrices and monodromy

def mat2_mul(A, B, max_degree: int):
    """2x2 product of graded operator matrices, each entry one fused sum."""
    return [[sum_of_products([(A[i][0], B[0][j]), (A[i][1], B[1][j])], max_degree)
             for j in range(2)] for i in range(2)]


def _row_support(matrices):
    """Sorted indices of the rows stored in any of the sparse matrices."""
    return sorted(set().union(*(m.stored_rows() for m in matrices)))


def monodromy(builders, max_degree: int, cols=None):
    """Ordered product L_1 L_2 ... L_N of 2x2 Lax matrices, degrees capped
    at max_degree.

    Each factor comes from a builder, called as build(sources=...) with the
    list of source indices its columns are needed on (None: the whole
    basis); it builds at least those columns and raises ValueError for one
    outside the basis.  The product is formed from the right, L_1 (L_2
    (... L_N)): the last factor is built on the source columns `cols`
    (None: every column), and every earlier factor is built on the rows
    the running product reaches (the row support of its four entries,
    exactly the columns of the factor that the next product reads) and
    multiplies it from the left.  So the cost follows the support of the
    listed columns, not the basis, and a builder that ignores `sources`
    and builds every column gives the same product.  The result lives on
    the same basis and equals the listed columns of the full product
    exactly (each factor is truncated at the basis edge and the degree cap
    the same way either way); the other columns are zero.
    """
    *earlier, last = builders
    T = last(sources=cols)
    for build in reversed(earlier):
        rows = _row_support(m for row in T for e in row for m in e.blocks.values())
        T = mat2_mul(build(sources=rows), T, max_degree)
    return T


def qboson_monodromy(basis: Basis, N: int, t):
    """Product of q-boson Lax matrices over sites 1..N of a chain basis."""
    t = as_scalar(t)
    # folded on every column; each factor is built on the whole basis, `sources` unread
    return monodromy([lambda sources, site=site: build_lax("qboson", basis,
                                                           {"t": t, "site": site, "N": N})
                      for site in range(1, N + 1)], N + 1)


def open_A_via_monodromy(basis: Basis, N: int, t):
    """(A_N, Abar_N) from the first row of the monodromy with a trivial site.

    The trivial site (S = Sbar = 1) left-multiplies the monodromy M by
    [[1, z], [1, z]], so A_N = M_11 + z M_21 and z^{N+1} Abar_N = M_12 +
    z M_22; Abar is recovered by reflecting the grading at degree N+1.
    """
    t = as_scalar(t)
    M = qboson_monodromy(basis, N, t)
    A = M[0][0].add(M[1][0].shift(1))
    up = M[0][1].add(M[1][1].shift(1))
    Abar = up.reflect(N + 1)
    return A, Abar


# ---------------------------------------------------------------------------
# Toda realization on free integer windows

def free_window_basis(N: int, lo: int, hi: int) -> Basis:
    states = list(iproduct(range(lo, hi + 1), repeat=N))
    states.sort(reverse=True)
    return Basis(states, kind="window")


def toda_x_op(basis: Basis, k: int, t, power: int = 1, sources=None) -> SparseMatrix:
    """Diagonal t^{power * v_k} (1-based coordinate); with `sources`, only
    those columns.  A negative power at t = 0, its pole, raises ValueError."""
    if power < 0 and t == 0:
        raise ValueError(f"t = 0 is a pole of the diagonal t^({power} v_{k})")
    x = TTable(t).power  # a window repeats each v_k many times
    return SparseMatrix.from_state_map(basis, lambda v: (v, x[power * v[k - 1]]), sources)


def toda_shift_op(basis: Basis, coords, step: int, sources=None) -> SparseMatrix:
    """Joint shift of the listed coordinates by step; drops at window edges.
    With `sources`, only those columns."""
    def shift(v):
        w = list(v)
        for c in coords:
            w[c - 1] += step
        return tuple(w), ONE

    return SparseMatrix.from_state_map(basis, shift, sources)


def toda_lax(kind: str, basis: Basis, k: int, t, sources=None):
    """Toda-variable Lax matrices as 2x2 graded operators on a window.

    toda:       [[1+zX_k, x_k], [-z X_k x_k^{-1}, 0]]
    toda_bar:   [[1+w Xinv_k, w Xinv_k x_k], [-x_k^{-1}, 0]], w = 1/z
    toda_tilde: [[1+zX_k, z x_k X_k], [-x_k^{-1}, 0]]
    (graded degree counts powers of z, or of 1/z for toda_bar).

    With `sources` (window indices) every entry is built on those source
    columns only, as `monodromy` asks of a factor builder; each entry
    equals the whole-window entry on them.
    """
    t = as_scalar(t)
    dim = len(basis)
    I = SparseMatrix.identity(dim, sources)
    xki = toda_x_op(basis, k, t, -1, sources)
    Z = GradedOperator(dim)
    x = TTable(t).power
    if kind == "toda":
        X = toda_shift_op(basis, [k], +1, sources)
        xk = toda_x_op(basis, k, t, 1, sources)
        # -X_k x_k^{-1}: x_k^{-1} read at the source of the shift
        hop = _weighted_shift(basis, k, +1, lambda m: -x[-m], sources)
        return [[GradedOperator(dim, {0: I, 1: X}), GradedOperator(dim, {0: xk})],
                [GradedOperator(dim, {1: hop}), Z]]
    if kind == "toda_bar":
        Xi = toda_shift_op(basis, [k], -1, sources)
        hop = _weighted_shift(basis, k, -1, lambda m: x[m], sources)  # Xinv_k x_k
        return [[GradedOperator(dim, {0: I, 1: Xi}), GradedOperator(dim, {1: hop})],
                [GradedOperator(dim, {0: xki.scale(-1)}), Z]]
    if kind == "toda_tilde":
        X = toda_shift_op(basis, [k], +1, sources)
        # x_k X_k reads x_k at the target of the shift, v_k + 1, not at its source
        hop = _weighted_shift(basis, k, +1, lambda m: x[m + 1], sources)
        return [[GradedOperator(dim, {0: I, 1: X}), GradedOperator(dim, {1: hop})],
                [GradedOperator(dim, {0: xki.scale(-1)}), Z]]
    raise ValueError(f"unknown toda lax kind {kind!r}")


def _weighted_shift(basis: Basis, k: int, step: int, weight, sources) -> SparseMatrix:
    """The shift of coordinate k by step times weight(v_k), v_k read on the
    source: one state map, so a Lax entry that is a shift times a diagonal
    is built with no product; targets outside the window drop, as in
    `toda_shift_op`.  With `sources`, only those columns."""
    def hop(v):
        w = list(v)
        w[k - 1] += step
        return tuple(w), weight(v[k - 1])

    return SparseMatrix.from_state_map(basis, hop, sources)


def toda_U(basis: Basis, k: int, t, sources=None):
    """U_k = [[1, x_k], [S_k, 0]]; k = 0 is the open boundary S_0 = 1, x_0 = 0.
    With `sources`, every entry is built on those source columns only."""
    t = as_scalar(t)
    dim = len(basis)
    I = SparseMatrix.identity(dim, sources)
    Z = GradedOperator(dim)
    if k == 0:
        return [[GradedOperator(dim, {0: I}), GradedOperator(dim, {0: SparseMatrix(dim)})],
                [GradedOperator(dim, {0: I}), Z]]
    S = toda_shift_op(basis, list(range(1, k + 1)), +1, sources)
    return [[GradedOperator(dim, {0: I}),
             GradedOperator(dim, {0: toda_x_op(basis, k, t, sources=sources)})],
            [GradedOperator(dim, {0: S}), Z]]


def qboson_lax_toda_vars(basis: Basis, k: int, t, sources=None):
    """q-boson Lax at site k realized with Toda shifts: S_k = prefix raise,
    Sbar_k = prefix lower times (1 - x_k / x_{k+1}) read on the source; the
    open boundary site k = 0 has S_0 = Sbar_0 = 1.
    With `sources`, every entry is built on those source columns only."""
    dim = len(basis)
    I = SparseMatrix.identity(dim, sources)
    if k == 0:
        S = Sb = I
    else:
        prefix = list(range(1, k + 1))
        S = toda_shift_op(basis, prefix, +1, sources)

        one_minus = TTable(t).one_minus

        def factor(v):  # 1 - x_k / x_{k+1}, with x_{N+1} = 1
            return v, one_minus[v[k - 1] - v[k] if k < len(v) else v[k - 1]]

        Sb = toda_shift_op(basis, prefix, -1, sources).mul(
            SparseMatrix.from_state_map(basis, factor, sources))
    return [[GradedOperator(dim, {0: I}), GradedOperator(dim, {1: Sb})],
            [GradedOperator(dim, {0: S}), GradedOperator(dim, {1: I})]]


def toda_monodromy(kind: str, basis: Basis, N: int, t, cols=None):
    """L_1 ... L_N over window coordinates, graded degree capped at N; with
    `cols`, only those source columns, each factor built only on the states
    the fold reaches (see `monodromy`)."""
    return monodromy([partial(toda_lax, kind, basis, k, t) for k in range(1, N + 1)], N, cols)


def window_to_partitions(entry: GradedOperator, window: Basis, basis_p: Basis,
                         max_degree: int) -> GradedOperator:
    """A graded window operator restricted to its stored cone states
    (lambda'-tuples) and relabelled as partitions of basis_p through conjugation."""
    mapping = {}
    support = set().union(*(m.stored_rows() | m.stored_columns()
                            for m in entry.blocks.values()))
    for j in support:
        v = window.states[j]
        if v[-1] >= 0 and all(v[i] >= v[i + 1] for i in range(len(v) - 1)):
            lam = conjugate(v)
            if lam in basis_p.index:
                mapping[j] = basis_p.index[lam]
    return entry.restrict(mapping, len(basis_p), max_degree)


def toda_open_A(N: int, t, max_len: int, basis_p: Basis):
    """(T^Toda_N)_11 mapped through the conjugation bijection.

    Window: lambda' coordinates in [0, max_len + N]; entries are asserted
    by callers only on sources with length headroom >= N.
    """
    t = as_scalar(t)
    w = free_window_basis(N, 0, max_len + N)
    T = toda_monodromy("toda", w, N, t)
    return window_to_partitions(T[0][0], w, basis_p, N)


def toda_gauge_check(N: int, t):
    """Local gauge relations U_{k-1} L^Toda_k = L_{k-1} U_k on interior states,
    plus the monodromy-level version with the open boundary S_0 = 1, x_0 = 0.

    Returns (ok, failures).  On the window [-(N + 2), N + 2]^N, interior
    columns keep one unit of headroom at both edges per elementary shift.
    Every side is a `monodromy` fold on its interior columns, so each
    factor is built only on the states the fold reaches.
    """
    t = as_scalar(t)
    window_top = N + 2  # the monodromy relation needs N + 1 units of headroom
    w = free_window_basis(N, -window_top, window_top)

    def interior(pred_margin):
        return [j for j, v in enumerate(w.states)
                if all(-window_top + pred_margin <= c <= window_top - pred_margin for c in v)]

    def U(k):
        return partial(toda_U, w, k, t)

    def L_toda(k):
        return partial(toda_lax, "toda", w, k, t)

    def L_qb(k):
        return partial(qboson_lax_toda_vars, w, k, t)

    # (relation, left factors, right factors, top degree, asserted columns);
    # the monodromy level is U_0 T^Toda_N = (L_0 ... L_{N-1}) U_N
    sides = [(f"local k={k}", [U(k - 1), L_toda(k)], [L_qb(k - 1), U(k)], 2, interior(k + 1))
             for k in range(1, N + 1)]
    sides.append(("monodromy", [U(0), *map(L_toda, range(1, N + 1))],
                  [*map(L_qb, range(N)), U(N)], N, interior(N + 1)))
    failures = []
    for relation, left, right, top, cols in sides:
        lhs, rhs = monodromy(left, top, cols), monodromy(right, top, cols)
        failures += [item for i in range(2) for j in range(2)
                     for item in graded_items(lhs[i][j], rhs[i][j], top, cols, w,
                                              relation=relation, aux=(i, j))]
    return not failures, failures


# ---------------------------------------------------------------------------
# folded periodic Toda realization

def folded_toda_columns(basis: Basis, x, t) -> dict:
    """tr(T^Toda D^Toda) on the momentum-x sector, folded to occupations,
    as {degree: {column: {row: value}}} on the occupation sector `basis`.

    Sources are the canonical label tuples (first coordinate n); the
    monodromy is folded on their columns of a free window, and targets
    with first coordinate n + d are folded down by d with a twist factor
    x^d.  The folded entries are summed as dicts, outside the entry
    accumulator, so a comparison against an operator built entry by entry
    sees a slip in that accumulator.
    """
    t, x = as_scalar(t), as_scalar(x)
    N, n = sector_sizes(basis)
    w = free_window_basis(N, 0, n + 1)

    def canonical_labels(m):
        out = []
        acc = 0
        for k in range(N - 1, -1, -1):
            acc += m[k]
            out.append(acc)
        return tuple(reversed(out))  # nu_k = sum_{j>=k} m_j, nu_1 = n

    sources = [w.index[canonical_labels(m)] for m in basis.states]
    T = toda_monodromy("toda", w, N, t, cols=sources)
    tn = t ** n
    traced = T[0][0].add(T[1][1].scale(tn))

    def fold(v):
        delta = v[0] - n
        if delta < 0:
            return None
        shifted = tuple(c - delta for c in v)
        if any(shifted[i] < shifted[i + 1] for i in range(N - 1)) or shifted[-1] < 0:
            return None
        m = tuple(shifted[k] - shifted[k + 1] for k in range(N - 1)) + (shifted[-1],)
        return m, delta

    position = {src: j for j, src in enumerate(sources)}
    out = {}
    # the monodromy was folded on the source columns only
    for d, block in traced.blocks.items():
        for r, src, val in block.entries():
            folded = fold(w.states[r])
            if folded is not None:
                tgt, delta = folded
                col = out.setdefault(d, {}).setdefault(position[src], {})
                i = basis.index[tgt]
                col[i] = col.get(i, 0) + val * x ** delta
    return out


def folded_toda_transfer(N: int, n: int, x, t) -> GradedOperator:
    """`folded_toda_columns` as a graded operator on `occupation_basis(N, n)`."""
    basis = occupation_basis(N, n)
    columns = folded_toda_columns(basis, x, t)
    return GradedOperator.from_entries(
        len(basis),
        ((d, r, c, v) for d, cols in columns.items() for c, col in cols.items()
         for r, v in col.items()), N)


# ---------------------------------------------------------------------------
# reciprocal-parameter (bar) reflection checks

def hermitian_reflect_check(build, basis, norms, top_degree: int, x, extra_factor,
                            translation=None, **where):
    """Square-root-free reflected relation for a transfer family.

    Checks T N^-1 A_k(1/x)^T N = extra_factor(x) * A_{top-k}(x) for all
    k <= top_degree, where `build` maps the twist value to the graded
    operator on `basis` and T is `translation` (None: the identity).
    Returns (ok, failures), each item tagged with the `where` keys.
    """
    x = as_scalar(x)
    A = build(x)
    A_bar = build(ONE / x).bar_adjoint(norms)
    if translation is not None:
        A_bar = GradedOperator(A.dim, {k: translation.mul(b) for k, b in A_bar.blocks.items()})
    failures = graded_items(A_bar, A.reflect(top_degree).scale(extra_factor(x)), top_degree,
                            range(A.dim), basis, **where)
    return not failures, failures


def toda_open_Abar(N: int, t, max_len: int, basis_p: Basis) -> GradedOperator:
    """The left-moving open-chain operator from the reciprocal-graded
    Toda monodromy: entry (1,1) minus entry (1,2), conjugation-mapped.

    Graded by powers of 1/z, stored positively, matching the projected
    run expansion of the annihilating transfer matrix.
    """
    t = as_scalar(t)
    w = free_window_basis(N, 0, max_len + N)
    T = toda_monodromy("toda_bar", w, N, t)
    return window_to_partitions(T[0][0].add(T[0][1].scale(-1)), w, basis_p, N)
