"""Baxter Q-matrix for the periodic q-boson / discretized Toda chain.

The Q-matrix is a degree-n polynomial matrix on the (N, n) occupation
sector, built from a closed-form entry formula: interlaced label chains
weighted by t-binomials, signs (-z)^degree, and momentum-gauge powers of
the twist x.  An auxiliary-spin Lax operator gives a second, independent
construction by tracing over the spin space; the two are compared
entrywise in the tests and suites.

Conventions are anchored by three exact requirements: the 3x3 printed
example, the TQ relation Lambda(z) q(z) = q(tz) + x z^N t^n q(z/t), and
commutation with the transfer matrix and the translation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product as iproduct

from .graded import (
    GradedOperator,
    SparseMatrix,
    commutator_vanishes,
    mismatch_items,
    sum_of_scaled_products,
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
    translation_op,
    window_to_partitions,
)
from .partitions import (
    Basis,
    conjugate,
    occupation_basis,
    occupation_to_partition,
    partition_basis,
    state_norm,
    weight,
)
from .scalars import ONE, ZERO, TTable, as_scalar, tbinom, tfact
from .vertex_ops import build_gamma


def null_psi(a: int, b: int, c: int, z, t) -> Fraction:
    """Null-vector component z^{b-c} * binom(a-c, a-b)_t, for a >= b >= c."""
    if not a >= b >= c:
        raise ValueError(f"need a >= b >= c, got {(a, b, c)}")
    z = as_scalar(z)
    return z ** (b - c) * tbinom(a - c, a - b, as_scalar(t))


def site_null_vector_check(a: int, c: int, z, t):
    """Per-site triangularity of the gauge-transformed Lax matrix.

    On the spin window b in [c, a] (x = t^b diagonal, X the raise), with
    Psi(w) the null vector of components null_psi(a, b, c, w):

        L'_12 Psi(-z)   = 0
        L'_11 Psi(-z)   = Psi(-tz)
        L'_22 Psi(-z)   = z X Psi(-z/t)

    Returns (ok, detail).
    """
    z, t = as_scalar(z), as_scalar(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    span = list(range(c, a + 1))

    def psi(w):
        return {b: null_psi(a, b, c, w, t) for b in span}

    ta, tc = t ** a, t ** c

    def apply_X(vec, factor_fn=None):
        out = {}
        for b, v in vec.items():
            if b + 1 <= a:
                f = factor_fn(b) if factor_fn else ONE
                out[b + 1] = out.get(b + 1, ZERO) + f * v
        return out

    v0 = psi(-z)
    # L'_12 = x - t^c - t^c z X (1 - t^a x^{-1})
    r12 = {b: (t ** b - tc) * v for b, v in v0.items()}
    hop = apply_X(v0, lambda b: ONE - ta * t ** (-b))
    for b, v in hop.items():
        r12[b] = r12.get(b, ZERO) - tc * z * v
    ok12 = all(v == 0 for v in r12.values())

    # L'_11 = 1 + z X (1 - t^a x^{-1})
    r11 = dict(v0)
    for b, v in apply_X(v0, lambda b: ONE - ta * t ** (-b)).items():
        r11[b] = r11.get(b, ZERO) + z * v
    ok11 = r11 == psi(-t * z)

    # L'_22 = t^c z X x^{-1}
    r22 = apply_X(v0, lambda b: tc * z * t ** (-b))
    want = apply_X(psi(-z / t))
    for b, v in want.items():
        want[b] = z * v
    ok22 = {b: v for b, v in r22.items() if v != 0} == {b: v for b, v in want.items() if v != 0}
    return ok11 and ok12 and ok22, {"null": ok12, "upper": ok11, "lower": ok22}


def _reject_t_one(t) -> None:
    if t == 1:
        raise ValueError("t = 1 is a singular point of the Q-matrix: "
                         "its t-factorial quotients are 0/0 there")


def build_qmatrix(N: int, n: int, x, t) -> GradedOperator:
    """Degree-n Q-matrix on the (N, n) occupation sector.

    Per source state, the site-reversed label vector nu (partial sums,
    nu_1 = n, nu_{N+1} = 0) is interlaced by an output chain
    nu_{k+1} <= out_k <= nu_k; the entry is
    (-z)^{sum(nu - out)} * prod_k binom(nu_k - nu_{k+1}, nu_k - out_k)_t,
    with the output brought to the canonical momentum gauge by an upward
    shift of delta = n - out_1 carrying x^delta.
    """
    t, x = as_scalar(t), as_scalar(x)
    _reject_t_one(t)
    basis = occupation_basis(N, n)
    # a sector repeats each t-binomial and phase many times: one table per
    # call, read as (numerator, denominator) pairs, so that a chain
    # multiplies integers and makes one Fraction per entry
    binom = TTable(t).binom
    ratio = cache(lambda a, b: binom[a, b].as_integer_ratio())
    phase = cache(lambda deg, delta: ((-ONE) ** deg * x ** delta).as_integer_ratio())

    def entries():
        for j, m in enumerate(basis.states):
            rev = tuple(reversed(m))
            nu = [0] * (N + 2)
            for k in range(N, 0, -1):
                nu[k] = nu[k + 1] + rev[k - 1]
            ranges = [range(nu[k + 1], nu[k] + 1) for k in range(1, N + 1)]
            for out in iproduct(*ranges):
                deg = sum(nu[k] - out[k - 1] for k in range(1, N + 1))
                delta = n - out[0]
                num, den = phase(deg, delta)
                for k in range(1, N + 1):
                    p, q = ratio(nu[k] - nu[k + 1], nu[k] - out[k - 1])
                    num *= p
                    den *= q
                shifted = [v + delta for v in out]
                rev_target = tuple(shifted[k] - shifted[k + 1]
                                   for k in range(N - 1)) + (shifted[N - 1],)
                yield deg, basis.index[tuple(reversed(rev_target))], j, Fraction(num, den)

    return GradedOperator.from_entries(len(basis), entries(), n)


# ---------------------------------------------------------------------------
# auxiliary Lax operator and the trace construction

def build_LL(u, t, s_cap: int, x_cap: int):
    """The auxiliary Lax operator on a pair of spin windows.

    Maps |nu_s, nu_x> to sum over mu_s >= nu_x of
    (1/u)^{nu_x - nu_s} / ((mu_s - nu_x)!_t (nu_x - nu_s)!_t) |mu_s, nu_s>,
    supported on mu_s >= nu_x >= nu_s.  Returned as a SparseMatrix on the
    product basis (s label major, x label minor).
    """
    u, t = as_scalar(u), as_scalar(t)
    w = ONE / u
    dim = (s_cap + 1) * (x_cap + 1)

    def idx(a, b):
        return a * (x_cap + 1) + b

    def entries():
        for ns in range(s_cap + 1):
            for nx in range(x_cap + 1):
                if nx < ns:
                    continue
                base = w ** (nx - ns) / tfact(nx - ns, t)
                for ms in range(nx, s_cap + 1):
                    if ns <= x_cap:
                        yield idx(ms, ns), idx(ns, nx), base / tfact(ms - nx, t)

    return SparseMatrix.from_entries(dim, entries())


def ll_F_op(u, t, cap: int) -> SparseMatrix:
    """Diagonal F: |m> -> (1/u)^m / m!_t |m> in the eigenbasis of the spin."""
    u, t = as_scalar(u), as_scalar(t)
    return SparseMatrix.from_state_map(
        single_site_basis(cap), lambda v: (v, (ONE / u) ** v[0] / tfact(v[0], t)))


def ll_G_op(t, cap: int) -> SparseMatrix:
    """G: |m> -> sum_{k >= m} 1/(k-m)!_t |k>."""
    t = as_scalar(t)
    return SparseMatrix.from_entries(cap + 1, ((k, m, ONE / tfact(k - m, t))
                                               for m in range(cap + 1)
                                               for k in range(m, cap + 1)))


def _two_windows(cap: int):
    """The product of two spin windows [0, cap]^2 (state (a, b) at index
    a * (cap + 1) + b) and its inner states, with two units of headroom in
    both labels, where matrix elements cannot see the edge."""
    pair = Basis(list(iproduct(range(cap + 1), repeat=2)), f"spin windows [0,{cap}]^2",
                 kind="window")
    inner = [j for j, (a, b) in enumerate(pair.states) if a <= cap - 2 and b <= cap - 2]
    return pair, inner


def _window_ops(pair: Basis, k: int, t):
    """Raise (dropping at the edge), t^label and t^-label on label k of the pair."""
    return toda_shift_op(pair, [k], +1), toda_x_op(pair, k, t), toda_x_op(pair, k, t, -1)


def ll_relations_check(u, t, cap: int):
    """The four commutation relations pinning the auxiliary Lax operator.

    With Lc = LL P (the label swap), S/s on the first window, X/x on the
    second:  Lc x = x Lc;  Lc S X = S X Lc;  Lc (x/s) = (x/s)(1-S) Lc;
    u Lc (1 - s/x) S = S Lc.  Checked on interior rows/columns.
    Returns (ok, failures).
    """
    u, t = as_scalar(u), as_scalar(t)
    dim = (cap + 1) ** 2

    def idx(a, b):
        return a * (cap + 1) + b

    LL = build_LL(u, t, cap, cap)
    Lc = SparseMatrix.from_entries(dim, ((r, idx(a, b), v)
                                         for a in range(cap + 1) for b in range(cap + 1)
                                         for r, v in LL.cols.get(idx(b, a), {}).items()))

    pair, inner = _two_windows(cap)
    S, sdiag, sinv = _window_ops(pair, 1, t)
    X, xdiag, xinv = _window_ops(pair, 2, t)
    I = SparseMatrix.identity(dim)
    x_over_s = xdiag.mul(sinv)
    s_over_x = sdiag.mul(xinv)

    relations = [
        ("Lc x = x Lc", Lc.mul(xdiag), xdiag.mul(Lc)),
        ("Lc SX = SX Lc", Lc.mul(S.mul(X)), S.mul(X).mul(Lc)),
        ("Lc x/s = x/s (1-S) Lc", Lc.mul(x_over_s),
         x_over_s.mul(I.add(S.scale(-1)).mul(Lc))),
        ("u Lc (1-s/x) S = S Lc", Lc.mul(I.add(s_over_x.scale(-1)).mul(S)).scale(u),
         S.mul(Lc)),
    ]

    failures = [item for name, lhs, rhs in relations
                for item in mismatch_items(lhs.mismatches(rhs, inner, inner), pair,
                                           relation=name)]
    return not failures, failures


def toda_intertwine_check(z, u, t, cap: int):
    """The intertwining relation R(z/u) L^Toda(z) LL(u) = LL(u) Ltilde(z) R(z/u).

    Built on the product of two spin windows (sigma entries act on the
    first label; L^Toda and Ltilde are `lattice.toda_lax` on the second,
    evaluated at z); sampled at exact rational (z, u).  Returns (ok,
    failures).
    """
    z, u, t = as_scalar(z), as_scalar(u), as_scalar(t)
    pair, inner = _two_windows(cap)
    S, sdiag, sinv = _window_ops(pair, 1, t)
    I = SparseMatrix.identity(len(pair))
    LL = build_LL(u, t, cap, cap)

    w = z / u
    R = [[I.add(S.scale(w)), sdiag],
         [sinv.mul(I.add(S.scale(-1))).scale(-1), I.scale(-1)]]

    def lax(kind):
        return [[entry.eval_at(z) for entry in row] for row in toda_lax(kind, pair, 2, t)]

    L_toda, L_tilde = lax("toda"), lax("toda_tilde")

    failures = []
    for i in range(2):
        for j in range(2):
            lhs = sum_of_scaled_products((ONE, R[i][k], L_toda[k][j]) for k in range(2)).mul(LL)
            rhs = LL.mul(sum_of_scaled_products((ONE, L_tilde[i][k], R[k][j]) for k in range(2)))
            failures += mismatch_items(lhs.mismatches(rhs, inner, inner), pair, aux=(i, j))
    return not failures, failures


def trace_qmatrix(N: int, n: int, z, x, t) -> GradedOperator:
    """Independent Q-matrix from the auxiliary-spin trace, at a sample z.

    Sweeps the auxiliary Lax operator across the site labels, applies the
    spin-shift twist S^{-n}, traces the auxiliary space, folds the output
    to the canonical momentum gauge, and multiplies back the state norms.
    Returns a degree-0 graded operator holding q_n(z) evaluated at z.
    """
    z, x, t = as_scalar(z), as_scalar(x), as_scalar(t)
    if z == 0:
        raise ValueError("sample z must be nonzero")
    _reject_t_one(t)
    u = -ONE / z  # so the spectral monomial base 1/u equals -z
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
        start = {}
        for a in range(n, 2 * n + 1):
            if a - n >= 0:
                start[(a - n, tuple(labels[1:N + 1]), a)] = ONE
        final = {}
        for k in range(N, 0, -1):
            nxt = {}
            for (s_label, sites, a), amp in start.items():
                nx = sites[k - 1]
                if nx < s_label:
                    continue
                base = amp * (ONE / u) ** (nx - s_label) / tfact(nx - s_label, t)
                for ms in range(nx, 2 * n + 1):
                    new_sites = sites[:k - 1] + (s_label,) + sites[k:]
                    key = (ms, new_sites, a)
                    nxt[key] = nxt.get(key, ZERO) + base / tfact(ms - nx, t)
            start = nxt
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
            out.add_to(basis.index[target], j, amp * x ** delta * state_norm(
                occupation_to_partition(m), t))
    return GradedOperator(dim, {0: out}, max_degree=0)


# ---------------------------------------------------------------------------
# TQ relation and commutation checks

def tq_check(N: int, n: int, x, t, sample_z=None):
    """Lambda_N(z) q_n(z) = q_n(tz) + x z^N t^n q_n(z/t), exactly, graded.

    Optionally also verified at a sampled z.  Returns (ok, failures).
    """
    t, x = as_scalar(t), as_scalar(x)
    if t == 0:
        raise ValueError("t must be nonzero for the z/t reparameterization")
    lam = periodic_transfer(N, n, x, t)
    q = build_qmatrix(N, n, x, t)
    top = N + n
    lhs = lam.compose(q, top)
    # block k of the rhs is t^k q_k + x t^n t^(N-k) q_(k-N): each block of q
    # is read once per term, with one factor per degree
    rhs = GradedOperator.from_entries(lam.dim, (
        (k + shift, r, c, factor * v)
        for k, block in q.blocks.items()
        for shift, factor in ((0, t ** k), (N, x * t ** (n - k)))
        for r, c, v in block.entries()), top)
    basis = occupation_basis(N, n)
    cols = range(lam.dim)
    failures = [item for k in range(top + 1)
                for item in mismatch_items(lhs.block(k).mismatches(rhs.block(k), cols),
                                           basis, degree=k)]
    if sample_z is not None:
        zz = as_scalar(sample_z)
        lm = lam.eval_at(zz).mul(q.eval_at(zz))
        rm = q.eval_at(t * zz).add(q.eval_at(zz / t).scale(x * zz ** N * t ** n))
        failures += mismatch_items(lm.mismatches(rm, cols), basis, sampled_z=str(zz))
    return not failures, failures


def lambda_q_commute_check(lam: GradedOperator, q: GradedOperator) -> bool:
    """[Lambda(z1), q(z2)] = 0 identically (all graded cross blocks), for a
    transfer matrix and a Q-matrix on one sector."""
    return commutator_vanishes(lam, q)


def qq_commute_check(q: GradedOperator) -> bool:
    """[q(z1), q(z2)] = 0 identically."""
    return commutator_vanishes(q, q)


def q_translation_check(q: GradedOperator, T: SparseMatrix) -> bool:
    """[T, q(z)] = 0 for the one-step translation T of q's sector."""
    return commutator_vanishes(GradedOperator(T.dim, {0: T}), q)


def q_hermitian_reflect_check(N: int, n: int, x, t) -> bool:
    """T . N^-1 q_k(1/x)^T N = (-1)^n q_{n-k}(x) for every degree k.

    The (-1)^n comes from the (-z)^degree entry convention: the reflected
    monomial z^{n/2} is really (-z)^{n/2} in these variables.
    """
    t, x = as_scalar(t), as_scalar(x)
    basis = occupation_basis(N, n)
    norms = [state_norm(occupation_to_partition(m), t) for m in basis.states]
    q = build_qmatrix(N, n, x, t)
    q_bar = build_qmatrix(N, n, ONE / x, t).bar_adjoint(norms)
    T = translation_op(N, n, x)
    sign = (-ONE) ** n
    for k in range(n + 1):
        if T.mul(q_bar.block(k)) != q.block(n - k).scale(sign):
            return False
    return True


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
    max_len >= N + 1.
    """
    if min(max_weight, max_len) < N + 1:
        raise ValueError(f"ar_project_check asserts no column at N={N}: max_weight={max_weight}"
                         f" and max_len={max_len} must both be >= {N + 1}")
    z, u, t = as_scalar(z), as_scalar(u), as_scalar(t)
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

    failures = [item for k in range(N + 2)
                for item in mismatch_items(lhs.block(k).mismatches(rhs.block(k), asserted),
                                           basis, degree=k)]
    return not failures, failures
