"""Baxter Q-matrix for the periodic q-boson / discretized Toda chain.

The Q-matrix is a degree-n polynomial matrix on the (N, n) occupation
sector, built from a closed-form entry formula: a sum of per-site boson
moves, each site k sending d_k <= m_k bosons to site k+1, weighted by
t-binomials binom(m_k, d_k)_t, signs (-z)^{d_k}, and the twist x once
per boson crossing the seam.  `build_qmatrix` expands each column site
by site on integers: one row of t-binomials per occupation value, each
over its own denominator, and states coded in base n + 1, so that a move
shifts the code by a fixed step and finds its target in one dict lookup.
The auxiliary-spin Lax operator `build_LL` (integer ratios of the literal
t-factorials) gives a second, independent construction, `trace_qmatrix`,
by tracing over the spin space; the two are compared entrywise in the
tests and suites.  Its own relations, `ll_relations_check` and
`toda_intertwine_check`, take the LL they check and the `spin_windows`
it acts on, so that the `rll` suite builds both once per draw; they are
decided on a seeded random projection (`graded.projected_items`), each
side applied right to left to one vector drawn on the inner states, and
a failure is located by the same sides applied to each inner unit
vector (`graded.column_items`).  The TQ relation `tq_check` is projected
on the left, on one covector drawn on every row, since the transfer
matrix is its large left factor, and keeps its product comparison for
the failure items.
Builders take their basis and checks take sizes (`tq_check` enumerates
its sector once); `trace_qmatrix`, the independent side, takes sizes.

Conventions are anchored by three exact requirements: the 3x3 printed
example, the TQ relation Lambda(z) q(z) = q(tz) + x z^N t^n q(z/t), and
commutation with the transfer matrix and the translation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import lcm
from operator import mul

from .graded import (
    GradedOperator,
    SparseMatrix,
    column_items,
    combination,
    covariance_items,
    graded_items,
    projected_items,
    random_vector,
)
from .lattice import (
    free_window_basis,
    open_transfer,
    periodic_transfer,
    single_site_basis,
    toda_lax,
    toda_monodromy,
    toda_shift_op,
    toda_x_op,
    translation_orbits,
    window_to_partitions,
)
from .partitions import (
    Basis,
    conjugate,
    occupation_basis,
    occupation_to_partition,
    partition_basis,
    sector_sizes,
    state_norm,
    weight,
)
from .scalars import ONE, TTable, as_scalar, reject_singular_t, tfact
from .scalars import tbinom  # unread here; perfbench wraps every binding of tbinom
from .vertex_ops import build_gamma


def build_qmatrix(basis: Basis, x, t) -> GradedOperator:
    """Degree-n Q-matrix on the occupation sector `basis` (N sites, n bosons).

    Each site k sends d_k of its m_k bosons to site k+1 (cyclic), for
    every d with 0 <= d_k <= m_k: the target is m_k - d_k + d_{k-1}, the
    degree is |d| and the entry is
    (-1)^{|d|} x^{d_N} * prod_k binom(m_k, d_k)_t,
    the seam N -> 1 carrying the twist x once per boson it moves.

    Built on integers, site by site: the weight (-1)^d binom(m, d)_t of a
    move, d <= m, is read once per occupation value m from one `TTable`
    and kept as its own (numerator, denominator) pair, the reduced one
    of the t-binomial, on the seam times xn^d / xd^d for x = xn / xd.
    binom(m, d)_t is a polynomial of degree d(m - d) in t, so a move that
    keeps its bosons (d = 0 or m) has denominator 1 (xd^d on the seam),
    and an entry's denominator, the product of its moves', is close to
    what the entry needs.  A state m is coded as sum_k m_k (n + 1)^k, so
    d_k bosons leaving site k for site k + 1 add
    d_k ((n + 1)^{k+1 mod N} - (n + 1)^k) to the code.  Each column is
    expanded one site at a time into (code, degree, numerator,
    denominator) terms, both multiplied along, and each target is one
    dict lookup of its code; every entry goes to
    `GradedOperator.from_ratios` over its own denominator.
    """
    t, x = as_scalar(t), as_scalar(x)
    N, n = sector_sizes(basis)
    reject_singular_t(t, max(n, 1))  # divides by m_k!_t, m_k <= n; t = 1 at every n
    # per occupation m, the weights (-1)^d binom(m, d)_t, d <= m, each as its
    # own (numerator, denominator), read once from one t-table; the seam's
    # also carry x^d = xn^d / xd^d
    binom = TTable(t).binom
    xn, xd = x.as_integer_ratio()
    rows, seam_rows = [], []
    for m in range(n + 1):
        ratios = [binom[m, d].as_integer_ratio() for d in range(m + 1)]
        rows.append([((-1) ** d * p, q) for d, (p, q) in enumerate(ratios)])
        seam_rows.append([(p * xn ** d, q * xd ** d) for d, (p, q) in enumerate(rows[-1])])
    # a state is coded in base n + 1, site k at weight (n + 1)^k, so d bosons
    # moving from site k to site k + 1 add d (w_{k+1} - w_k) to the code
    w = [(n + 1) ** k for k in range(N)]
    step = [w[(k + 1) % N] - w[k] for k in range(N)]
    index = {sum(map(mul, m, w)): j for j, m in enumerate(basis.states)}
    # per site and occupation, the moves (code shift, degree, numerator,
    # denominator); a move of numerator 0 (x = 0 on the seam) is left out
    moves = [[[(d * step[k], d, p, q) for d, (p, q) in enumerate(row) if p]
              for row in (seam_rows if k == N - 1 else rows)] for k in range(N)]

    def entries():
        for j, m in enumerate(basis.states):
            # expand the column site by site as (code, degree, numerator, denominator)
            terms = [(sum(map(mul, m, w)), 0, 1, 1)]
            for site, mk in zip(moves, m):
                terms = [(c + dc, g + d, v * p, u * q)
                         for c, g, v, u in terms for dc, d, p, q in site[mk]]
            for c, g, v, u in terms:
                yield g, index[c], j, v, u

    return GradedOperator.from_ratios(len(basis), entries(), n)


# ---------------------------------------------------------------------------
# auxiliary Lax operator and the trace construction

def build_LL(u, t, s_cap: int, x_cap: int):
    """The auxiliary Lax operator on a pair of spin windows.

    Maps |nu_s, nu_x> to sum over mu_s >= nu_x of
    (1/u)^{nu_x - nu_s} / ((mu_s - nu_x)!_t (nu_x - nu_s)!_t) |mu_s, nu_s>,
    supported on mu_s >= nu_x >= nu_s.  Returned as a SparseMatrix on the
    product basis (s label major, x label minor).  Its poles raise
    ValueError: u = 0, and t = 1 or -1 where a k!_t it divides by,
    k <= max(s_cap, x_cap), is 0.
    """
    u, t = as_scalar(u), as_scalar(t)
    if u == 0:
        raise ValueError("u = 0 is a pole of the auxiliary Lax operator: its entries carry 1/u")
    reject_singular_t(t, max(s_cap, x_cap))
    wn, wd = (ONE / u).as_integer_ratio()
    dim = (s_cap + 1) * (x_cap + 1)
    # the literal k!_t, once per order, as (numerator, denominator) pairs:
    # 1 / k!_t and w^k / k!_t are integer ratios with no Fraction per entry
    fact = [tfact(k, t).as_integer_ratio() for k in range(max(s_cap, x_cap) + 1)]
    hop = [(wn ** k * q, wd ** k * p) for k, (p, q) in enumerate(fact)]  # w^k / k!_t

    def entries():
        # ns <= nx <= x_cap and ns <= ms <= s_cap
        for ns in range(min(s_cap, x_cap) + 1):
            for nx in range(ns, x_cap + 1):
                hn, hd = hop[nx - ns]
                col = ns * (x_cap + 1) + nx
                for ms in range(nx, s_cap + 1):
                    p, q = fact[ms - nx]
                    yield ms * (x_cap + 1) + ns, col, hn * q, hd * p

    return SparseMatrix.from_ratios(dim, entries())


def ll_F_op(u, t, cap: int) -> SparseMatrix:
    """Diagonal F: |m> -> (1/u)^m / m!_t |m> in the eigenbasis of the spin;
    u = 0, its pole, raises ValueError."""
    u, t = as_scalar(u), as_scalar(t)
    if u == 0:
        raise ValueError("u = 0 is a pole of F: its entries carry 1/u")
    return SparseMatrix.from_state_map(
        single_site_basis(cap), lambda v: (v, (ONE / u) ** v[0] / tfact(v[0], t)))


def ll_G_op(t, cap: int) -> SparseMatrix:
    """G: |m> -> sum_{k >= m} 1/(k-m)!_t |k>."""
    t = as_scalar(t)
    return SparseMatrix.from_entries(cap + 1, ((k, m, ONE / tfact(k - m, t))
                                               for m in range(cap + 1)
                                               for k in range(m, cap + 1)))


def spin_windows(cap: int, t):
    """(cap, pair, inner, S, s, sinv): the product `pair` of two spin
    windows [0, cap]^2 (state (a, b) at index a * (cap + 1) + b), its
    `inner` states, with two units of headroom in both labels, where
    matrix elements cannot see the edge, and the raise, t^label and
    t^-label on the first label: the pieces that the auxiliary Lax
    relations and the Toda intertwining share.  t = 0, where t^-label
    has a pole, raises ValueError (`lattice.toda_x_op`)."""
    pair = Basis(list(iproduct(range(cap + 1), repeat=2)), kind="window")
    inner = [j for j, (a, b) in enumerate(pair.states) if a <= cap - 2 and b <= cap - 2]
    return (cap, pair, inner, *_window_ops(pair, 1, t))


def _window_ops(pair: Basis, k: int, t):
    """Raise (dropping at the edge), t^label and t^-label on label k of the pair."""
    return toda_shift_op(pair, [k], +1), toda_x_op(pair, k, t), toda_x_op(pair, k, t, -1)


def ll_relations_check(LL: SparseMatrix, u, t, windows, seed: int):
    """The four commutation relations pinning the auxiliary Lax operator
    LL = build_LL(u, t, cap, cap) on windows = spin_windows(cap, t).

    With Lc = LL P (the label swap), S/s on the first window, X/x on the
    second:  Lc x = x Lc;  Lc S X = S X Lc;  Lc (x/s) = (x/s)(1-S) Lc;
    u Lc (1 - s/x) S = S Lc.  Checked on interior rows/columns, projected
    on v = graded.random_vector(inner, seed): each side is applied to v
    right to left, Lc v formed once, so a passing check forms no product.
    Where a projection differs, the failure items are the entries of both
    sides on the interior, located by `graded.column_items`.  Returns
    (ok, failures).
    """
    u, t = as_scalar(u), as_scalar(t)
    cap, pair, _, S, sdiag, sinv = windows
    side = cap + 1

    def swapped(j):  # the index of (b, a) for the state (a, b) at j
        a, b = divmod(j, side)
        return b * side + a

    Lc = SparseMatrix.from_entries(len(pair), ((r, swapped(c), v) for r, c, v in LL.entries()))
    X, xdiag, xinv = _window_ops(pair, 2, t)

    def sides(v):
        Lv = Lc.apply_ints(v)
        yield ({"relation": "Lc x = x Lc"},
               Lc.apply_ints(xdiag.apply_ints(v)), xdiag.apply_ints(Lv))
        yield ({"relation": "Lc SX = SX Lc"},
               Lc.apply_ints(S.apply_ints(X.apply_ints(v))), S.apply_ints(X.apply_ints(Lv)))
        one_minus_S = combination([(1, Lv), (-1, S.apply_ints(Lv))])
        yield ({"relation": "Lc x/s = x/s (1-S) Lc"},
               Lc.apply_ints(xdiag.apply_ints(sinv.apply_ints(v))),
               xdiag.apply_ints(sinv.apply_ints(one_minus_S)))
        Sv = S.apply_ints(v)
        one_minus_s_over_x = combination([(1, Sv), (-1, sdiag.apply_ints(xinv.apply_ints(Sv)))])
        yield ({"relation": "u Lc (1-s/x) S = S Lc"},
               combination([(u, Lc.apply_ints(one_minus_s_over_x))]), S.apply_ints(Lv))

    return _inner_check(sides, windows, seed)


def toda_intertwine_check(LL: SparseMatrix, z, u, t, windows, seed: int):
    """The intertwining relation R(z/u) L^Toda(z) LL(u) = LL(u) Ltilde(z) R(z/u),
    with LL = build_LL(u, t, cap, cap) on windows = spin_windows(cap, t).

    Built on the product of two spin windows (sigma entries act on the
    first label; L^Toda and Ltilde are `lattice.toda_lax` on the second,
    evaluated at z); sampled at exact rational (z, u), u = 0, the pole
    of R(z/u), raising ValueError.  Each entry (i, j) is projected on
    v = graded.random_vector(inner, seed), on the interior rows:
    sum_k R_ik (L^Toda_kj (LL v)) against LL (sum_k Ltilde_ik (R_kj v)),
    each LL v, L^Toda_kj (LL v) and R_kj v formed once, so a passing check
    forms no product.  Where a projection differs, the failure items are
    the entries of both sides on the interior, located by
    `graded.column_items`.  Returns (ok, failures).
    """
    z, u, t = as_scalar(z), as_scalar(u), as_scalar(t)
    if u == 0:
        raise ValueError("u = 0 is a pole of the intertwining relation: R reads z/u")
    _, pair, _, S, sdiag, sinv = windows
    w = z / u

    def lax(kind):
        return [[entry.eval_at(z) for entry in row] for row in toda_lax(kind, pair, 2, t)]

    L_toda, L_tilde = lax("toda"), lax("toda_tilde")

    def R(i, j, vec):  # R(z/u)_ij applied to vec
        if (i, j) == (0, 0):
            return combination([(1, vec), (w, S.apply_ints(vec))])
        if (i, j) == (0, 1):
            return sdiag.apply_ints(vec)
        if (i, j) == (1, 0):  # -s^-1 (1 - S)
            Sv = S.apply_ints(vec)
            return combination([(-1, sinv.apply_ints(vec)), (1, sinv.apply_ints(Sv))])
        return combination([(-1, vec)])

    def sides(v):
        LLv = LL.apply_ints(v)
        Ly = [[L_toda[k][j].apply_ints(LLv) for j in range(2)] for k in range(2)]
        Rv = [[R(k, j, v) for j in range(2)] for k in range(2)]
        for i in range(2):
            for j in range(2):
                lhs = combination((1, R(i, k, Ly[k][j])) for k in range(2))
                rhs = LL.apply_ints(combination((1, L_tilde[i][k].apply_ints(Rv[k][j]))
                                                for k in range(2)))
                yield {"aux": (i, j)}, lhs, rhs

    return _inner_check(sides, windows, seed)


def _inner_check(sides, windows, seed: int):
    """(ok, failures) of the identities sides(v) yields, compared on the
    inner states of windows = spin_windows(cap, t): projected on
    v = random_vector(inner, seed), and where that differs located column
    by column on the inner states."""
    _, pair, inner, *_ = windows
    rows = set(inner)
    failures = projected_items(sides(random_vector(inner, seed)), rows,
                               lambda: column_items(sides, inner, rows, pair))
    return not failures, failures


def trace_qmatrix(N: int, n: int, z, x, t) -> GradedOperator:
    """Independent Q-matrix from the auxiliary-spin trace, at a sample z.

    Sweeps the auxiliary Lax operator `build_LL(-1/z, t, 2n, 2n)`, built
    once per call, across the site labels, applies the spin-shift twist
    S^{-n}, traces the auxiliary space, folds the output to the canonical
    momentum gauge, and multiplies back the state norms (a product with
    their diagonal).  It shares nothing with `build_qmatrix`.  Returns a
    degree-0 graded operator holding q_n(z) evaluated at z.

    Runs on integers: LL is read as its integer numerators over its one
    denominator D, so every amplitude of the sweep, a product of N of its
    entries, is an int over D^N.  A column sums its traced amplitudes per
    (target, fold delta) as ints, and each target's entry is one Fraction,
    sum_delta (sum of amplitudes) x ** delta / D^N, added once.
    """
    z, x, t = as_scalar(z), as_scalar(x), as_scalar(t)
    if z == 0:
        raise ValueError("sample z must be nonzero")
    reject_singular_t(t, max(2 * n, 1))  # the spin labels reach 2n
    # LL(u) at u = -1/z (its monomial base 1/u is -z) as integer steps
    # (s label, site label) -> [(new s label, numerator over D)], the site
    # taking the old s label
    side = 2 * n + 1
    LL = build_LL(-ONE / z, t, 2 * n, 2 * n)
    steps = {}
    for c, col in LL.cols.items():
        steps[divmod(c, side)] = [(r // side, v) for r, v in col.items()]
    # the fold's twist x ** delta, each over its own denominator
    twist = [(x ** delta).as_integer_ratio() for delta in range(n + 1)]
    paths_den = LL.den ** N  # a traced amplitude multiplies N entries of LL
    basis = occupation_basis(N, n)
    dim = len(basis)
    out = SparseMatrix(dim)
    for j, m in enumerate(basis.states):
        rev = tuple(reversed(m))
        # canonical site labels: nu_k = sum_{l >= k} rev_l, nu_1 = n
        labels = [0] * (N + 2)
        for k in range(N, 0, -1):
            labels[k] = labels[k + 1] + rev[k - 1]
        # superposition over (s_label, site labels); apply LL_N .. LL_1
        start = {(a - n, tuple(labels[1:N + 1]), a): 1 for a in range(n, 2 * n + 1)}
        for k in range(N, 0, -1):
            nxt = {}
            for (s_label, sites, a), amp in start.items():
                new_sites = sites[:k - 1] + (s_label,) + sites[k:]
                for ms, v in steps.get((s_label, sites[k - 1]), ()):
                    key = (ms, new_sites, a)
                    nxt[key] = nxt.get(key, 0) + amp * v
            start = nxt
        traced = {}  # target -> {delta: sum of amplitudes over D^N}
        for (s_label, sites, a), amp in start.items():
            if s_label != a:
                continue  # trace
            delta = n - sites[0]
            if delta < 0:
                continue
            shifted = [v + delta for v in sites]
            rev_target = tuple(shifted[k] - shifted[k + 1] for k in range(N - 1)) + (shifted[N - 1],)
            target = tuple(reversed(rev_target))
            if target not in basis.index:
                continue
            sums = traced.setdefault(basis.index[target], {})
            sums[delta] = sums.get(delta, 0) + amp
        for row, sums in traced.items():
            den = lcm(*(twist[delta][1] for delta in sums))
            num = sum(amp * twist[delta][0] * (den // twist[delta][1])
                      for delta, amp in sums.items())
            out.add_to(row, j, Fraction(num, den * paths_den))
    # multiply back the state norms: column j times the norm of its source
    norms = SparseMatrix.from_state_map(
        basis, lambda m: (m, state_norm(occupation_to_partition(m), t)))
    return GradedOperator(dim, {0: out.mul(norms)}, max_degree=0)


# ---------------------------------------------------------------------------
# TQ relation

def tq_check(N: int, n: int, x, t, seed: int):
    """Lambda_N(z) q_n(z) = q_n(tz) + x z^N t^n q_n(z/t), exactly, graded,
    decided on one column per orbit of the twisted one-step translation U
    (`lattice.translation_orbits`), by a seeded left projection.

    When Lambda and q commute with U block by block, so do both sides,
    and so does their difference D; U is invertible (x != 0), so
    D e_{perm c} = U D e_c / u_c vanishes on a whole orbit when it
    vanishes on one column of it.  The check therefore asserts that
    Lambda and q are translation covariant (`covariance_items`, one pass
    over their entries), then compares the relation on the orbit
    representatives, q kept on those columns.

    The relation is projected on the left (Freivalds, on the transpose):
    with y = graded.random_vector(range(dim), seed) on every row and
    u_i = y^T Lambda_i formed once per block, degree k <= N + n compares
    the covectors sum_{i+j=k} u_i q_j and
    t^k (y^T q_k) + x t^(n-k+N) (y^T q_{k-N}) on the representatives, so
    a passing check forms no product.  If D_k is nonzero at some (r, c)
    with c a representative, (y^T D_k)_c is a nonzero linear form in y,
    so it is missed with probability at most 2^-30.  Where a degree
    differs, the failure items are those of the products: Lambda q,
    composed on the representative columns, against the right-hand side
    there (and, should those agree, one item tagged `projection`).  The
    products stay, unlike the column localizer of the right-projected
    checks (`graded.column_items`): a unit covector through the covector
    kernel visits every stored entry of Lambda, so localizing row by row
    costs O(nnz Lambda) per row, far more than the products.
    Failure items: those of the relation, then those of the covariance,
    tagged `operator` "Lambda" or "q".  Returns (ok, failures); t = 0 and
    x = 0 raise ValueError.
    """
    t, x = as_scalar(t), as_scalar(x)
    if t == 0:
        raise ValueError("t must be nonzero for the z/t reparameterization")
    basis = occupation_basis(N, n)
    perm, weights, reps = translation_orbits(basis, x)
    lam = periodic_transfer(basis, x, t)
    q = build_qmatrix(basis, x, t)
    keep = set(reps)
    q_reps = {k: b.keep_columns(keep) for k, b in q.blocks.items()}
    top = N + n

    def sides():
        y = random_vector(range(lam.dim), seed)
        u = {i: b.apply_row_ints(y) for i, b in lam.blocks.items()}
        yq = {j: b.apply_row_ints(y) for j, b in q_reps.items()}
        for k in range(top + 1):
            lhs = combination((1, q_reps[k - i].apply_row_ints(ui))
                              for i, ui in u.items() if k - i in q_reps)
            # q(tz) + x z^N t^n q(z/t): block j of q enters degree j scaled
            # by t^j and degree j + N scaled by x t^(n-j)
            rhs = [(t ** k, yq[k])] if k in yq else []
            if k - N in yq:
                rhs.append((x * t ** (n - k + N), yq[k - N]))
            yield {"degree": k}, lhs, combination(rhs)

    def products():
        lhs = lam.compose(GradedOperator(lam.dim, q_reps), top)
        rhs = GradedOperator(lam.dim, {k: b.scale(t ** k) for k, b in q_reps.items()}).add(
            GradedOperator(lam.dim, {k + N: b.scale(x * t ** (n - k)) for k, b in q_reps.items()}))
        return graded_items(lhs, rhs, top, reps, basis)

    failures = projected_items(sides(), None, products)
    for name, op in (("Lambda", lam), ("q", q)):
        failures += covariance_items(op, perm, weights, basis, operator=name)
    return not failures, failures


# ---------------------------------------------------------------------------
# the projected intertwining relation for the open chain

def ar_project_check(N: int, z, u, t, max_weight: int, max_len: int):
    """(1 + z/u) A^L_N(z) Abar^R_N(u) Ninv = Abar^R_N(u) Ninv Atilde^L_{N+1}(z).

    All operators act on partitions with lam_1 <= N + 1 inside a weight and
    length box; Abar^R is the raising R-family vertex operator with target
    cap lam_1 <= N, evaluated at the reciprocal spectral value; Atilde is
    built from the transposed-bar Toda Lax matrices.  The identity is
    asserted on source columns with headroom N+1 in both weight and
    length, and the Toda monodromy is folded on those columns only.
    Returns (ok, failures).  Caps that leave no such column raise
    ValueError: the empty partition, the last to go, needs max_weight and
    max_len >= N + 1.  So do its poles: u = 0, and t = 0, where the Toda
    Lax matrices read t^-v.
    """
    if min(max_weight, max_len) < N + 1:
        raise ValueError(f"ar_project_check asserts no column at N={N}: max_weight={max_weight}"
                         f" and max_len={max_len} must both be >= {N + 1}")
    z, u, t = as_scalar(z), as_scalar(u), as_scalar(t)
    if u == 0:
        raise ValueError("u = 0 is a pole of the projected intertwining: Abar^R_N is read at 1/u")
    if t == 0:
        raise ValueError("t = 0 is a pole of the projected intertwining: the Toda Lax matrices "
                         "read t^-v")
    basis = partition_basis(max_weight, max_part=N + 1, max_length=max_len)
    dim = len(basis)
    uinv = ONE / u

    # Abar^R_N(u): R-family raising operator, targets capped at lam_1 <= N
    gr = build_gamma("R", "+", basis, t)
    abar = SparseMatrix.from_entries(dim, (
        (r, c, v) for r, c, v in gr.op.eval_at(uinv).entries()
        if not (basis.states[r] and basis.states[r][0] > N)))

    ninv = SparseMatrix.from_state_map(basis, lambda lam: (lam, ONE / state_norm(lam, t)))
    abar_ninv = abar.mul(ninv)

    # A^L_N(z): open projected product, zero on sources with lam_1 = N+1
    a_left = open_transfer(basis, N, t, direction="right")

    # the asserted sources: headroom N+1 in both weight and length
    asserted = [j for j, sigma in enumerate(basis.states)
                if weight(sigma) + (N + 1) <= max_weight and len(sigma) + (N + 1) <= max_len]

    # Atilde^L_{N+1}(z) = (Ttilde_{N+1})_11 - (Ttilde_{N+1})_12, conjugate side,
    # folded only on the window states (sigma' padded to N+1 coordinates)
    # of the asserted sources
    w = free_window_basis(N + 1, 0, max_len + N + 1)
    sources = []
    for j in asserted:
        conj = conjugate(basis.states[j])
        sources.append(w.index[conj + (0,) * (N + 1 - len(conj))])
    Tt = toda_monodromy("toda_tilde", w, N + 1, t, cols=sources)
    atilde = window_to_partitions(Tt[0][0].add(Tt[0][1].scale(-1)), w, basis, N + 1)

    base = a_left.compose(GradedOperator(dim, {0: abar_ninv}), N + 1)
    lhs = base.add(base.shift(1).scale(uinv))  # (1 + z/u) times the product

    rhs = GradedOperator(dim, {0: abar_ninv}).compose(atilde, N + 1)

    failures = graded_items(lhs, rhs, N + 1, asserted, basis)
    return not failures, failures
