"""Semi-infinite chain scalar products and the Gaudin determinant.

The scalar product of two Bethe wave functions on the half line is a
convergent sum over weakly increasing position vectors; it equals

    t^{n(n-1)/2} / (1-t)^n * det[1/((1-u_k v_l)(1-t u_k v_l))] / det[1/(1-t u_k v_l)]

independently of the spin.  The truncated sum comes with a rigorous
geometric tail bound (parameter draws are constrained so the dominant
ratio stays below 1/2).  It reads one `bethe.AnsatzTable` per alphabet,
so the n! amplitudes and the xi(u)^k powers are computed once per
alphabet, not once per term; the determinant, which shares none of this
code, stays its oracle.  The Hecke-symmetrizer reduction of the same
kernel is checked as an exact operator identity expanded into shift
terms.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from .bethe import AnsatzTable
from .scalars import ONE, ZERO, TTable, as_scalar, tbinom, tfact, tpoch


def spin_state_norm(mu, t, s) -> Fraction:
    """<mu|mu>_s = prod over sites j >= 0 of (t)_{m_j} / (s^2)_{m_j}.

    mu is a weakly decreasing tuple of nonnegative positions; zeros
    occupy site 0 and do count.
    """
    t, s = as_scalar(t), as_scalar(s)
    norm = ONE
    # one factor per distinct multiplicity m, raised to the number of
    # sites that carry it
    for m, sites in Counter(Counter(mu).values()).items():
        norm *= (tfact(m, t) / tpoch(s * s, m, t)) ** sites
    return norm


def _det(rows) -> Fraction:
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = ONE if j % 2 == 0 else -ONE
        total += sign * rows[0][j] * _det(minor)
    return total


def singular_point(U, V, t):
    """The first pair with u v = 1 or t u v = 1, where the kernel
    1/((1 - u v)(1 - t u v)) has a pole, described; None if there is none."""
    for u in U:
        for v in V:
            for name, w in (("u v", u * v), ("t u v", t * u * v)):
                if w == 1:
                    return f"u={u}, v={v}, t={t}: {name} = 1"
    return None


def _reject_singular(U, V, t) -> None:
    where = singular_point(U, V, t)
    if where is not None:
        raise ValueError(f"singular evaluation point {where}")


def gaudin_det(n: int, U, V, t) -> Fraction:
    """The determinant form of the half-line scalar product, exact."""
    U = [as_scalar(u) for u in U]
    V = [as_scalar(v) for v in V]
    t = as_scalar(t)
    if len(U) != n or len(V) != n:
        raise ValueError("alphabet sizes must equal n")
    _reject_singular(U, V, t)
    if n == 0:
        return ONE
    D = [[ONE / ((1 - U[k] * V[l]) * (1 - t * U[k] * V[l])) for l in range(n)]
         for k in range(n)]
    d = [[ONE / (1 - t * U[k] * V[l]) for l in range(n)] for k in range(n)]
    pref = t ** (n * (n - 1) // 2) / (1 - t) ** n
    return pref * _det(D) / _det(d)


def _abs(x: Fraction) -> Fraction:
    return x if x >= 0 else -x


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
    smallest = min(_abs(table.fact[m] / table.poch[s * s, m]) for m in range(1, n + 1))
    return min(ONE, smallest) ** n


def gaudin_sum(n: int, U, V, t, s, truncation: int):
    """Truncated half-line scalar product with a rigorous tail bound.

    Sums R^s_mu(U) R^s_mu(V) / <mu|mu>_s over all position multisets with
    largest part <= truncation, the ansatz vectors carrying the
    1/prod(1+s u) normalization.  Returns (value, tail_bound), both exact
    rationals; raises on divergent parameter draws.
    """
    if n > 3:
        raise ValueError("desk scale: n <= 3")
    U = [as_scalar(u) for u in U]
    V = [as_scalar(v) for v in V]
    t, s = as_scalar(t), as_scalar(s)
    if n == 0:
        return ONE, ZERO
    TU, TV = AnsatzTable(U, t, s), AnsatzTable(V, t, s)
    rho = max(map(_abs, TU.xi)) * max(map(_abs, TV.xi))
    if rho >= 1:
        raise ValueError("divergent draw: dominant ratio >= 1")
    total = ZERO
    for mu_inc in combinations_with_replacement(range(truncation + 1), n):
        mu = tuple(sorted(mu_inc, reverse=True))
        total += TU.vector(mu) * TV.vector(mu) / spin_state_norm(mu, t, s)
    # the 1/prod(1 + s u) normalization of both vectors, applied once
    for a in TU.us + TV.us:
        total /= 1 + s * a

    # |R_mu| <= prefactor * sum_P |B(P)| * maxxi^{|mu|}
    def bound_R(table):
        pref = ONE
        for a in table.us:
            pref /= _abs(1 + s * a)
        return pref * sum(_abs(amp) for _, amp in table.rows)

    norm_floor = spin_norm_floor(n, t, s)
    if norm_floor == 0:
        raise ValueError("degenerate spin norm")
    const = bound_R(TU) * bound_R(TV) / norm_floor
    tail = const * _tail_geometric(n, rho, truncation)
    return total, tail


# ---------------------------------------------------------------------------
# Hecke symmetrizer reduction

def omega_t_product(U, V, t) -> Fraction:
    """prod_{k,l} (1 - t u_k v_l)/(1 - u_k v_l)."""
    t = as_scalar(t)
    out = ONE
    for u in U:
        for v in V:
            w = as_scalar(u) * as_scalar(v)
            out *= (1 - t * w) / (1 - w)
    return out


def hecke_symmetrize(fn, U, t) -> Fraction:
    """f cup = (1-t)^n / n!_t * sum_P P[f * prod (u_i - t u_j)/(u_i - u_j)]."""
    U = [as_scalar(u) for u in U]
    t = as_scalar(t)
    n = len(U)
    total = ZERO
    for P, amp in AnsatzTable(U, t).rows:
        total += fn([U[i] for i in P]) * amp
    return (1 - t) ** n / tfact(n, t) * total


def lascoux_reduction_check(n: int, U, V, t) -> bool:
    """Exact shift-operator reduction of the kernel to the Gaudin ratio.

    Expands the word prod_k (1 - t^k tau) into 2^n shift terms acting on
    the t-deformed pair kernel, symmetrizes, and compares with the
    t^{n(n-1)/2} (1-t)^n det-ratio.  tau cycles the variables with the
    wrapped one killed at q = 0; on the symmetric kernel this amounts to
    zeroing the last j variables (the forward-cycle reading fails the
    identity, so the backward one is the intended normalization).
    """
    if n > 3:
        raise ValueError("desk scale: n <= 3")
    U = [as_scalar(u) for u in U]
    V = [as_scalar(v) for v in V]
    t = as_scalar(t)
    if len(set(U)) != len(U):
        raise ValueError("coincident values rejected")
    _reject_singular(U, V, t)

    def shifted_kernel(us, j):
        # tau^j: the last j variables are sent to zero
        return omega_t_product(us[: n - j], V, t)

    def g(us):
        acc = ZERO
        for j in range(n + 1):
            coeff = t ** (j * (j + 1) // 2) * tbinom(n, j, t)
            acc += (-ONE) ** j * coeff * shifted_kernel(us, j)
        return acc

    lhs = hecke_symmetrize(g, U, t)
    D = [[ONE / ((1 - U[k] * V[l]) * (1 - t * U[k] * V[l])) for l in range(n)]
         for k in range(n)]
    d = [[ONE / (1 - t * U[k] * V[l]) for l in range(n)] for k in range(n)]
    rhs = t ** (n * (n - 1) // 2) * (1 - t) ** n * _det(D) / _det(d)
    return lhs == rhs
