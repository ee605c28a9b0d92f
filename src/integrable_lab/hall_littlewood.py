"""Hall-Littlewood polynomials at rational alphabets.

Three independent evaluation routes are provided:

  * hl_R      - the symmetrized Bethe-type sum over all n! permutations,
                defined for any weakly decreasing integer exponent vector;
  * hl_P/hl_Q - via the similarity relation Q_mu = (1-t)^n / (t)_{m0} *
                R_{0^{m0} mu} with m0 zero parts appended, P = Q / <mu|mu>;
  * skew tableau sums with branching weights psi (horizontal strips) or
                phi' (vertical strips), which also give the omega-dual
                family.

All identity checks are exact evaluations at rational points: a bounded
degree polynomial identity that holds at enough generic points holds
identically, and each exact check is a certificate at that point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .partitions import (
    conjugate,
    horizontal_strips_above,
    is_horizontal_strip,
    is_vertical_strip,
    length,
    partition,
    state_norm,
    vertical_strips_above,
    weight,
)
from .scalars import ONE, ZERO, as_scalar, tfact

MAX_SYMMETRIZE = 7  # n! permutation sums stay desk-scale


# ---------------------------------------------------------------------------
# Pieri branching coefficients

def pieri_psi(lam, mu, t) -> Fraction:
    """psi_{lam/mu} = prod over j with m_j(lam) = m_j(mu) - 1 of (1 - t^{m_j(mu)})."""
    lam, mu = partition(lam), partition(mu)
    if not is_horizontal_strip(lam, mu):
        raise ValueError(f"{lam}/{mu} is not a horizontal strip")
    t = as_scalar(t)
    return _psi_product(lam, mu, t)


def _psi_product(lam, mu, t) -> Fraction:
    result = ONE
    top = lam[0] if lam else 0
    for j in range(1, top + 1):
        mj_lam = sum(1 for p in lam if p == j)
        mj_mu = sum(1 for p in mu if p == j)
        if mj_lam == mj_mu - 1:
            result *= ONE - t ** mj_mu
    return result


def pieri_phi(lam, mu, t) -> Fraction:
    """phi_{lam/mu} = prod over j with m_j(lam) = m_j(mu) + 1 of (1 - t^{m_j(lam)})."""
    lam, mu = partition(lam), partition(mu)
    if not is_horizontal_strip(lam, mu):
        raise ValueError(f"{lam}/{mu} is not a horizontal strip")
    t = as_scalar(t)
    result = ONE
    top = lam[0] if lam else 0
    for j in range(1, top + 1):
        mj_lam = sum(1 for p in lam if p == j)
        mj_mu = sum(1 for p in mu if p == j)
        if mj_lam == mj_mu + 1:
            result *= ONE - t ** mj_lam
    return result


def pieri_psi_prime(lam, mu, t) -> Fraction:
    """psi'_{lam/mu} on vertical strips, a product of t-binomials in lam', mu'."""
    lam, mu = partition(lam), partition(mu)
    if not is_vertical_strip(lam, mu):
        raise ValueError(f"{lam}/{mu} is not a vertical strip")
    t = as_scalar(t)
    lp = conjugate(lam)
    mp = conjugate(mu)
    rows = len(lp)
    lp = lp + (0,)
    mp = mp + (0,) * (rows + 1 - len(mp))
    result = ONE
    for i in range(rows):
        result *= tfact(lp[i] - lp[i + 1], t) / (tfact(lp[i] - mp[i], t) * tfact(mp[i] - lp[i + 1], t))
    return result


def pieri_phi_prime(lam, mu, t) -> Fraction:
    """phi'_{lam/mu}: as psi' with the (mu'_i - mu'_{i+1})!_t numerator."""
    lam, mu = partition(lam), partition(mu)
    if not is_vertical_strip(lam, mu):
        raise ValueError(f"{lam}/{mu} is not a vertical strip")
    t = as_scalar(t)
    lp = conjugate(lam)
    mp = conjugate(mu)
    rows = len(lp)
    lp = lp + (0,)
    mp = mp + (0,) * (rows + 1 - len(mp))
    result = ONE
    for i in range(rows):
        result *= tfact(mp[i] - mp[i + 1], t) / (tfact(lp[i] - mp[i], t) * tfact(mp[i] - lp[i + 1], t))
    return result


_PIERI = {"psi": pieri_psi, "phi": pieri_phi, "psi'": pieri_psi_prime, "phi'": pieri_phi_prime}


def pieri_coeff(kind: str, lam, mu, t) -> Fraction:
    try:
        fn = _PIERI[kind]
    except KeyError:
        raise ValueError(f"unknown Pieri coefficient kind {kind!r}") from None
    return fn(lam, mu, t)


# ---------------------------------------------------------------------------
# symmetrized sum route

def hl_R(mu, values, t) -> Fraction:
    """R_mu: sum over permutations of u^mu * prod_{i<j} (u_i - t u_j)/(u_i - u_j).

    mu is any weakly decreasing integer sequence (negative parts allowed);
    values must be pairwise distinct nonzero rationals when negative
    exponents occur.
    """
    mu = tuple(int(v) for v in mu)
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError("exponent vector must be weakly decreasing")
    values = [as_scalar(v) for v in values]
    n = len(values)
    if n != len(mu):
        raise ValueError("alphabet size must match exponent count")
    if n > MAX_SYMMETRIZE:
        raise ValueError(f"permutation sum capped at {MAX_SYMMETRIZE} variables")
    if len(set(values)) != n:
        raise ValueError("coincident variable values rejected; perturb the alphabet")
    if any(v == 0 for v in values) and any(e < 0 for e in mu):
        raise ValueError("zero variable with negative exponent")
    total = ZERO
    for perm in permutations(values):
        term = ONE
        for v, e in zip(perm, mu):
            term *= v ** e
        for i in range(n):
            for j in range(i + 1, n):
                term *= (perm[i] - as_scalar(t) * perm[j]) / (perm[i] - perm[j])
        total += term
    return total


def hl_Q(lam, values, t) -> Fraction:
    """Q_lam via the zero-padded symmetrized sum; 0 when fewer variables than parts.

    Q is stable under adjoining zero variables, so those are stripped
    first (they would otherwise collide in the symmetrized sum).
    """
    lam = partition(lam)
    values = [as_scalar(v) for v in values if as_scalar(v) != 0]
    n = len(values)
    if n < length(lam):
        return ZERO
    t = as_scalar(t)
    m0 = n - length(lam)
    padded = tuple(lam) + (0,) * m0
    return (ONE - t) ** n / tfact(m0, t) * hl_R(padded, values, t)


def hl_P(lam, values, t) -> Fraction:
    """P_lam = Q_lam / <lam|lam>."""
    return hl_Q(lam, values, t) / state_norm(lam, t)


# ---------------------------------------------------------------------------
# skew tableau route

def skew_P(lam, mu, values, t) -> Fraction:
    """P_{lam/mu} as the horizontal-strip tableau sum, one variable per step."""
    lam, mu = partition(lam), partition(mu)
    values = [as_scalar(v) for v in values]
    t = as_scalar(t)
    from .partitions import contains

    if not contains(lam, mu):
        return ZERO
    # apply one-variable steps from mu upward; v_n first (symmetric anyway)
    vec = {mu: ONE}
    target_w = weight(lam)
    for v in reversed(values):
        nxt = {}
        for kappa, coeff in vec.items():
            gap = target_w - weight(kappa)
            for nu in horizontal_strips_above(kappa, gap, max_part=lam[0] if lam else 0):
                if not contains(lam, nu):
                    continue
                r = weight(nu) - weight(kappa)
                amp = coeff * _psi_product(nu, kappa, t) * v ** r
                if amp != 0:
                    nxt[nu] = nxt.get(nu, ZERO) + amp
        vec = nxt
    return vec.get(lam, ZERO)


def skew_Q_omega(lam, mu, values, t) -> Fraction:
    """Q^omega_{lam'/mu'}: vertical-strip tableau sum with phi' weights."""
    lam, mu = partition(lam), partition(mu)
    values = [as_scalar(v) for v in values]
    t = as_scalar(t)
    from .partitions import contains

    if not contains(lam, mu):
        return ZERO
    vec = {mu: ONE}
    target_w = weight(lam)
    for v in reversed(values):
        nxt = {}
        for kappa, coeff in vec.items():
            gap = target_w - weight(kappa)
            for nu in vertical_strips_above(kappa, gap, max_length=len(lam)):
                if not contains(lam, nu):
                    continue
                r = weight(nu) - weight(kappa)
                amp = coeff * pieri_phi_prime(nu, kappa, t) * v ** r
                if amp != 0:
                    nxt[nu] = nxt.get(nu, ZERO) + amp
        vec = nxt
    return vec.get(lam, ZERO)


def skew_eval(kind: str, lam, mu, values, t) -> Fraction:
    if kind == "P-skew":
        return skew_P(lam, mu, values, t)
    if kind == "Qomega-skew":
        return skew_Q_omega(lam, mu, values, t)
    raise ValueError(f"unknown skew kind {kind!r}")


def p_omega(lam, values, t) -> Fraction:
    """P^omega_{lam'} = <lam|lam> * Q^omega_{lam'}; monic on monomials."""
    return state_norm(lam, t) * skew_Q_omega(lam, (), values, t)


# ---------------------------------------------------------------------------
# generating-function coefficients

def _series_mul(a, b, max_r):
    out = [ZERO] * (max_r + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > max_r:
                break
            out[i + j] += ai * bj
    return out


def _geometric(value, max_r):
    out = [ONE]
    for _ in range(max_r):
        out.append(out[-1] * value)
    return out


def complete_q_coeffs(values, t, max_r: int):
    """Coefficients of z^r in prod_k (1 - t z x_k)/(1 - z x_k), r = 0..max_r."""
    t = as_scalar(t)
    series = [ONE] + [ZERO] * max_r
    for x in values:
        x = as_scalar(x)
        factor = _geometric(x, max_r)
        factor = [factor[0]] + [factor[i] - t * x * factor[i - 1] for i in range(1, max_r + 1)]
        series = _series_mul(series, factor, max_r)
    return series


def elementary_e_coeffs(values, max_r: int):
    """Coefficients of z^r in prod_k (1 + z x_k); zero beyond the alphabet size."""
    series = [ONE] + [ZERO] * max_r
    for x in values:
        x = as_scalar(x)
        factor = [ONE, x] + [ZERO] * max(0, max_r - 1)
        series = _series_mul(series, factor[: max_r + 1], max_r)
    return series


def omega_t_pair_coeffs(U, V, t, max_deg: int):
    """Degree coefficients of prod_{k,l} (1 - t u_k v_l)/(1 - u_k v_l)."""
    pairs = [as_scalar(u) * as_scalar(v) for u in U for v in V]
    return complete_q_coeffs(pairs, t, max_deg)


def dual_pair_coeffs(U, V, max_deg: int):
    """Degree coefficients of prod_{k,l} (1 + u_k v_l)."""
    pairs = [as_scalar(u) * as_scalar(v) for u in U for v in V]
    return elementary_e_coeffs(pairs, max_deg)


# ---------------------------------------------------------------------------
# Cauchy checks

def _partitions_of_weight(d, max_len):
    from .partitions import _partitions_of

    return list(_partitions_of(d, d, max_len))


def cauchy_coeff_check(degree: int, U, V, t, kind: str = "cauchy"):
    """Graded Cauchy identity check through the given total degree.

    cauchy: sum_{|lam|=d} Q_lam(U) P_lam(V) == [z^d] prod (1-t u v)/(1 - u v)
    dual:   sum_{|lam|=d} P^omega_{lam'}(U) P_lam(V) == [z^d] prod (1 + u v)

    Both sides are computed through independent routes (symmetrized sums
    vs series expansion).  Returns (ok, report).
    """
    U = [as_scalar(u) for u in U]
    V = [as_scalar(v) for v in V]
    t = as_scalar(t)
    if kind == "cauchy":
        rhs = omega_t_pair_coeffs(U, V, t, degree)
    elif kind == "dual":
        rhs = dual_pair_coeffs(U, V, degree)
    else:
        raise ValueError(f"unknown Cauchy kind {kind!r}")
    report = []
    ok = True
    for d in range(degree + 1):
        lhs = ZERO
        for lam in _partitions_of_weight(d, max_len=d):
            lam = partition(lam)
            if kind == "cauchy":
                lhs += hl_Q(lam, U, t) * hl_P(lam, V, t)
            else:
                # P^omega_{lam'} needs lam_1 <= #U to be nonzero; the
                # tableau sum enforces that automatically
                lhs += p_omega(lam, U, t) * hl_P(lam, V, t)
        good = lhs == rhs[d]
        ok = ok and good
        report.append({"degree": d, "lhs": lhs, "rhs": rhs[d], "ok": good})
        if not good:
            break
    return ok, report
