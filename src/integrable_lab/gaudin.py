"""Semi-infinite chain scalar products and the Gaudin determinant.

The scalar product of two Bethe wave functions on the half line is a
convergent sum over weakly increasing position vectors; it equals

    t^{n(n-1)/2} / (1-t)^n * det[1/((1-u_k v_l)(1-t u_k v_l))] / det[1/(1-t u_k v_l)]

independently of the spin.  The truncated sum comes with a rigorous
geometric tail bound (parameter draws are constrained so the dominant
ratio stays below 1/2).  It runs on integers and makes one `Fraction`
at the end.  One `bethe.AnsatzTable` per alphabet gives the n!
amplitudes B_P and xi_i = a_i / b_i; with the amplitudes over d_B, the
lcm of their denominators, and c_i[e] = a_i^e b_i^(T-e) tabulated for
e <= T = truncation, the integer sum_P B_P d_B prod_k c_{P_k}[mu_k] is
R_mu d_B prod_i b_i^T, over a denominator shared by every term.  The
norms are products of the <= n factors m!_t / (s^2)_m, read from one
`TTable` per sum and memoized per multiplicity pattern of mu; a zero or
undefined factor is rejected before the sum starts.  The integer
products R_mu(U) R_mu(V) are summed per norm, and the inverse norms are
put over one denominator.  `AnsatzTable.vector`, the `Fraction` route
that `bethe` also uses on complex inputs, stays the only public
evaluator of R_mu; the determinant, which shares none of this code,
stays the oracle.  The Hecke-symmetrizer reduction of the same kernel is
checked as an exact operator identity expanded into shift terms.

Both sides of that reduction run on integers and make one `Fraction`
each.  The symmetrized side reads the kernel prod_l (1 - t u_i v_l) /
(1 - u_i v_l) of each variable as an integer pair (a_i, b_i), from n^2
pair evaluations, and sums the n! amplitudes and the word's shift terms
over B = prod_i b_i.  `gaudin_det` clears each row of its two matrices
to integers and expands the cofactors of integer matrices.  Each side
rejects a pole, a zero 1 - u v or 1 - t u v, on the integers it builds,
before any division, and `gaudin_det` also rejects a zero of its divisor
det[1/(1 - t u v)] (t = 0 at n >= 2, or a repeated u or v), the locus
`singular_point` names; neither side reads the other's rows.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

from .bethe import AnsatzTable
from .graded import mismatch_items
from .scalars import ONE, ZERO, TTable, as_scalar, tbinom, tfact, tpoch


def spin_state_norm(mu, t, s, factors=None) -> Fraction:
    """<mu|mu>_s = prod over sites j >= 0 of (t)_{m_j} / (s^2)_{m_j}.

    mu is a weakly decreasing tuple of nonnegative positions; zeros
    occupy site 0 and do count.  With `factors`, a `_SpinNorms` built at
    this t and s, the norm is read from its per-pattern memo; without,
    it is the literal product of `tfact`/`tpoch` quotients.
    """
    if factors is not None:
        return factors.norm(mu)
    t, s = as_scalar(t), as_scalar(s)
    norm = ONE
    # one factor per distinct multiplicity m, raised to the number of
    # sites that carry it
    for m, sites in Counter(Counter(mu).values()).items():
        norm *= (tfact(m, t) / tpoch(s * s, m, t)) ** sites
    return norm


class _SpinNorms:
    """The factors f(m) = m!_t / (s^2)_m, m <= n, of every n-part norm at
    one (t, s), read from one `TTable`, and the norms memoized per
    multiplicity pattern of mu.  A zero or undefined f(m) is rejected
    here, before any norm is formed."""

    def __init__(self, n: int, t, s):
        table = TTable(t)
        self.factor = {}
        for m in range(1, n + 1):
            num, den = table.fact[m], table.poch[s * s, m]
            if num == 0 or den == 0:
                state = "zero" if num == 0 else "undefined"
                raise ValueError(f"degenerate spin norm: {m}!_t / (s^2)_{m} is {state} "
                                 f"at t={t}, s={s}")
            self.factor[m] = num / den
        self._norms = {}

    def norm(self, mu) -> Fraction:
        pattern = tuple(sorted(map(mu.count, set(mu))))
        norm = self._norms.get(pattern)
        if norm is None:
            norm = ONE
            for m in pattern:
                norm *= self.factor[m]
            self._norms[pattern] = norm
        return norm


def _det(rows):
    """The determinant of an integer matrix, by cofactors along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1 if j % 2 else 1) * entry * _det(minor)
    return total


def _pole(u, v, t, name) -> str:
    return f"u={u}, v={v}, t={t}: {name} = 1"


def singular_point(U, V, t):
    """Where the Gaudin ratio is undefined, described; None if nowhere.

    First the pairs with u v = 1 or t u v = 1, where the kernel
    1/((1 - u v)(1 - t u v)) has a pole, then the zeros of the divisor
    det[1/(1 - t u_k v_l)] (`_zero_of_divisor`)."""
    for u in U:
        for v in V:
            for name, w in (("u v", u * v), ("t u v", t * u * v)):
                if w == 1:
                    return _pole(u, v, t, name)
    return _zero_of_divisor(U, V, t)


def _zero_of_divisor(U, V, t):
    """The zero locus of det[1/(1 - t u_k v_l)] = t^{n(n-1)/2}
    prod_{k<l} (u_k - u_l)(v_k - v_l) / prod_{k,l} (1 - t u_k v_l), off its
    poles: for n >= 2, t = 0 or a repeated u or v; described, None if off it."""
    if len(U) >= 2 and t == 0:
        return "t=0: det[1/(1 - t u v)] = 0 for n >= 2"
    for name, values in (("u", U), ("v", V)):
        for k, w in enumerate(values):
            if w in values[:k]:
                return f"{name}={w} twice: det[1/(1 - t u v)] = 0"
    return None


def _reject_pole(u, v, t, one_minus_w, one_minus_tw) -> None:
    """Raise at the pair (u, v) when the numerator of 1 - u v or of
    1 - t u v is zero, naming it as `singular_point` does."""
    for name, value in (("u v", one_minus_w), ("t u v", one_minus_tw)):
        if value == 0:
            raise ValueError(f"singular evaluation point {_pole(u, v, t, name)}")


def _clear_row(pairs):
    """Entries p / q of one row as integers over the product of the q;
    returns the row and that product."""
    common = 1
    for _, q in pairs:
        common *= q
    return [p * (common // q) for p, q in pairs], common


def _gaudin_rows(U, V, t):
    """The matrices D = [1/((1 - u_k v_l)(1 - t u_k v_l))] and
    d = [1/(1 - t u_k v_l)] with each row cleared to integers over the
    product of its denominators; returns D, d and, for each, the product
    of its row denominators.  With w = u v = wn / wd, the entries are
    td wd^2 / ((wd - wn)(td wd - tn wn)) and td wd / (td wd - tn wn)."""
    tn, td = t.numerator, t.denominator
    D, d = [], []
    den_D = den_d = 1
    for u in U:
        row_D, row_d = [], []
        for v in V:
            wn, wd = u.numerator * v.numerator, u.denominator * v.denominator
            one_minus_w, one_minus_tw = wd - wn, td * wd - tn * wn
            _reject_pole(u, v, t, one_minus_w, one_minus_tw)
            row_D.append((td * wd * wd, one_minus_w * one_minus_tw))
            row_d.append((td * wd, one_minus_tw))
        row, common = _clear_row(row_D)
        D.append(row)
        den_D *= common
        row, common = _clear_row(row_d)
        d.append(row)
        den_d *= common
    return D, d, den_D, den_d


def gaudin_det(n: int, U, V, t) -> Fraction:
    """The determinant form of the half-line scalar product, exact.

    Both matrices are cleared to integers row by row (`_gaudin_rows`),
    so the ratio t^{n(n-1)/2} / (1-t)^n det D / det d is one `Fraction`
    of integer determinants; a pole of an entry is rejected as it is met,
    and a zero of det d before the division, each named as
    `singular_point` names it.
    """
    U = [as_scalar(u) for u in U]
    V = [as_scalar(v) for v in V]
    t = as_scalar(t)
    if len(U) != n or len(V) != n:
        raise ValueError("alphabet sizes must equal n")
    if n == 0:
        return ONE
    D, d, den_D, den_d = _gaudin_rows(U, V, t)
    if (where := _zero_of_divisor(U, V, t)) is not None:
        raise ValueError(f"singular evaluation point {where}")
    tn, td = t.numerator, t.denominator
    k = n * (n - 1) // 2
    return Fraction(tn ** k * td ** n * _det(D) * den_d,
                    td ** k * (td - tn) ** n * _det(d) * den_D)


def _tail_geometric(n: int, rho: Fraction, K: int) -> Fraction:
    """sum_{w > K} (w+1)^{n-1} rho^w, exactly, for n <= 3."""
    if not 0 <= rho < 1:
        raise ValueError("tail ratio must be in [0, 1)")
    if n <= 1:
        full = ONE / (1 - rho)
        partial = sum(rho ** w for w in range(K + 1))
    elif n == 2:
        full = ONE / (1 - rho) ** 2
        partial = sum((w + 1) * rho ** w for w in range(K + 1))
    else:
        full = (1 + rho) / (1 - rho) ** 3
        partial = sum(Fraction((w + 1) ** 2) * rho ** w for w in range(K + 1))
    return full - partial


def spin_norm_floor(n: int, t, s) -> Fraction:
    """Lower bound on |<mu|mu>_s| over every n-part mu.

    The norm is a product of at most n factors f(m) = (t)_m / (s^2)_m,
    one per distinct part, with multiplicity m <= n; so min(1, |f|)^n
    bounds it from below even when some |f(m)| exceeds 1.
    """
    table = TTable(t)
    smallest = min(abs(table.fact[m] / table.poch[s * s, m]) for m in range(1, n + 1))
    return min(ONE, smallest) ** n


def _ansatz_numerators(table: AnsatzTable, T: int):
    """R_mu of one exact alphabet as integers over one denominator, for
    every mu with parts <= T.

    With xi_i = a_i / b_i and the amplitudes B_P over d_B, the lcm of
    their denominators, c_i[e] = a_i^e b_i^(T-e) gives
    sum_P B_P d_B prod_k c_{P_k}[mu_k] = R_mu d_B prod_i b_i^T.
    Returns that numerator as a function of mu, and the denominator.
    """
    d_B = lcm(*(amp.denominator for _, amp in table.rows))
    rows = [(P, amp.numerator * (d_B // amp.denominator)) for P, amp in table.rows]
    c = [[x.numerator ** e * x.denominator ** (T - e) for e in range(T + 1)]
         for x in table.xi]
    denominator = d_B
    for x in table.xi:
        denominator *= x.denominator ** T

    def numerator(mu) -> int:
        total = 0
        for P, term in rows:
            for i, e in zip(P, mu):
                term *= c[i][e]
            total += term
        return total

    return numerator, denominator


def gaudin_sum(n: int, U, V, t, s, truncation: int):
    """Truncated half-line scalar product with a rigorous tail bound.

    Sums R^s_mu(U) R^s_mu(V) / <mu|mu>_s over all position multisets with
    largest part <= truncation, the ansatz vectors carrying the
    1/prod(1+s u) normalization.  Returns (value, tail_bound), both exact
    rationals; raises on divergent parameter draws and on a zero or
    undefined norm factor.
    """
    if n > 3:
        raise ValueError("desk scale: n <= 3")
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    U = [as_scalar(u) for u in U]
    V = [as_scalar(v) for v in V]
    t, s = as_scalar(t), as_scalar(s)
    if len(U) != n or len(V) != n:
        raise ValueError("alphabet sizes must equal n")
    if n == 0:
        return ONE, ZERO
    factors = _SpinNorms(n, t, s)
    TU, TV = AnsatzTable(U, t, s), AnsatzTable(V, t, s)
    rho = max(map(abs, TU.xi)) * max(map(abs, TV.xi))
    if rho >= 1:
        raise ValueError("divergent draw: dominant ratio >= 1")
    RU, dU = _ansatz_numerators(TU, truncation)
    RV, dV = _ansatz_numerators(TV, truncation)
    # integer sums of R_mu(U) R_mu(V) per norm p/q; each term still asks
    # spin_state_norm for its norm, which the memo answers
    by_norm = defaultdict(int)
    for mu_inc in combinations_with_replacement(range(truncation + 1), n):
        mu = mu_inc[::-1]
        by_norm[spin_state_norm(mu, t, s, factors).as_integer_ratio()] += RU(mu) * RV(mu)
    # the inverse norms q/p over one denominator, the lcm of the p, and
    # the 1/prod(1 + s u) normalization of both vectors, applied once
    common = lcm(*(p for p, _ in by_norm))
    numerator = sum(total * q * (common // p) for (p, q), total in by_norm.items())
    pref = ONE
    for a in TU.us + TV.us:
        pref /= 1 + s * a
    total = Fraction(numerator * pref.numerator, dU * dV * common * pref.denominator)

    # |R_mu| <= prefactor * sum_P |B(P)| * maxxi^{|mu|}
    def bound_R(table):
        pref = ONE
        for a in table.us:
            pref /= abs(1 + s * a)
        return pref * sum(abs(amp) for _, amp in table.rows)

    const = bound_R(TU) * bound_R(TV) / spin_norm_floor(n, t, s)
    tail = const * _tail_geometric(n, rho, truncation)
    return total, tail


# ---------------------------------------------------------------------------
# Hecke symmetrizer reduction

def _kernel_pair(u, v, t):
    """(1 - t u v)/(1 - u v) as an integer pair (a, b): with u v = wn / wd,
    a = td wd - tn wn and b = td (wd - wn).  A pole of the kernel, a zero
    1 - u v or 1 - t u v, is rejected here."""
    tn, td = t.numerator, t.denominator
    wn, wd = u.numerator * v.numerator, u.denominator * v.denominator
    a = td * wd - tn * wn
    _reject_pole(u, v, t, wd - wn, a)
    return a, td * (wd - wn)


def _kernel_rows(U, V, t):
    """The kernel row k_i = prod_l (1 - t u_i v_l)/(1 - u_i v_l) of each
    variable as an integer pair (a_i, b_i), from n^2 `_kernel_pair`s."""
    rows = []
    for u in U:
        a = b = 1
        for v in V:
            pa, pb = _kernel_pair(u, v, t)
            a *= pa
            b *= pb
        rows.append((a, b))
    return rows


def _symmetrized_kernel(U, V, t) -> Fraction:
    """The Hecke symmetrizer (1-t)^n / n!_t sum_P B(u_P) P[...] applied to
    the word sum_j (-1)^j t^{j(j+1)/2} [n choose j]_t tau^j on the kernel
    prod_{k,l} (1 - t u_k v_l)/(1 - u_k v_l), on integers.

    tau^j zeroes the last j variables, so term j of permutation P keeps
    the kernel rows of its first n - j entries; over B = prod_i b_i that is
    prod_{k<n-j} a_{P_k} prod_{k>=n-j} b_{P_k}.  The word's coefficients and
    the n! amplitudes of `AnsatzTable` are each taken over their lcm, and
    the prefactor (1-t)^n / n!_t is applied once, in the one `Fraction`.
    """
    n = len(U)
    rows = _kernel_rows(U, V, t)
    coeffs = [(-ONE) ** j * t ** (j * (j + 1) // 2) * tbinom(n, j, t) for j in range(n + 1)]
    d_c = lcm(*(c.denominator for c in coeffs))
    # the coefficient of the term keeping m variables, j = n - m
    keep = [c.numerator * (d_c // c.denominator) for c in reversed(coeffs)]
    table = AnsatzTable(U, t)
    d_B = lcm(*(amp.denominator for _, amp in table.rows))
    total = 0
    for P, amp in table.rows:
        # prefix products of a and suffix products of b along P
        prefix = [1]
        for i in P:
            prefix.append(prefix[-1] * rows[i][0])
        suffix = [1] * (n + 1)
        for k in range(n - 1, -1, -1):
            suffix[k] = suffix[k + 1] * rows[P[k]][1]
        word = sum(c * prefix[m] * suffix[m] for m, c in enumerate(keep))
        total += amp.numerator * (d_B // amp.denominator) * word
    den = d_B * d_c
    for _, b in rows:
        den *= b
    pref = (1 - t) ** n / tfact(n, t)
    return Fraction(total * pref.numerator, den * pref.denominator)


def lascoux_reduction_check(n: int, U, V, t):
    """Exact shift-operator reduction of the kernel to the Gaudin ratio.

    Expands the word prod_k (1 - t^k tau) into 2^n shift terms acting on
    the t-deformed pair kernel, symmetrizes (`_symmetrized_kernel`), and
    compares with the t^{n(n-1)/2} (1-t)^n det-ratio, which is
    (1-t)^{2n} `gaudin_det`.  tau cycles the variables with the wrapped
    one killed at q = 0; on the symmetric kernel this amounts to zeroing
    the last j variables (the forward-cycle reading fails the identity,
    so the backward one is the intended normalization).  Each side runs
    on integers and rejects the poles of the kernel as it meets them.
    Returns (ok, failures), the item naming n.
    """
    if n > 3:
        raise ValueError("desk scale: n <= 3")
    U = [as_scalar(u) for u in U]
    V = [as_scalar(v) for v in V]
    t = as_scalar(t)
    if len(set(U)) != len(U):
        raise ValueError("coincident values rejected")
    lhs = _symmetrized_kernel(U, V, t)
    rhs = (1 - t) ** (2 * n) * gaudin_det(n, U, V, t)
    failures = mismatch_items([(lhs, rhs)] if lhs != rhs else [], None, n=n)
    return not failures, failures
