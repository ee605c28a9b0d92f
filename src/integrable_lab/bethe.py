"""Coordinate Bethe ansatz for the periodic spin chain, at any spin.

The transfer matrix column weights are products of local two-row
Boltzmann factors between consecutive particle positions, with a
boundary substitution when a target position collides with its
neighbour.  The ansatz vector is a permutation sum with two-body
amplitudes; its algebra is certified by an exact staircase identity that
holds at generic rational parameters, no quantization imposed, off the
locus `singular_point` names.  Complex floating point appears only in the
Newton root solver and the periodic residual check; both use the standard
library alone, and the ansatz sums take exact and complex inputs through
one arithmetic path.

Positions are nonnegative integers, the chain occupying 0..N-1; the
wrap-around image of the top particle sits at mu_M + N.
"""

from __future__ import annotations

import random
from itertools import permutations, product as iproduct

from .scalars import ONE, ZERO, as_scalar

TOL_RESIDUAL = 1e-10
TOL_DEDUP = 1e-8
MAX_ITER = 200  # Newton steps per seed


def xi(u, s):
    """Orbach parametrization (u + s)/(1 + u s); works on exact or complex."""
    if isinstance(u, complex) or isinstance(s, complex):
        den = 1 + u * s
        if abs(den) < 1e-14:
            raise ValueError(f"xi pole: 1 + u s = 0 at u={u}, s={s}")
        return (u + s) / den
    u, s = as_scalar(u), as_scalar(s)
    den = 1 + u * s
    if den == 0:
        raise ValueError(f"xi pole: 1 + u s = 0 at u={u}, s={s}")
    return (u + s) / den


def boltzmann_weights(z, s, t):
    """The seven local weights, indexed 0..6."""
    return {
        0: 1 - s * s * t,
        1: 1 + z * s,
        2: z + t * s,
        3: z + s,
        4: 1 + z * t * s,
        5: z * (1 - t),
        6: 1 - s * s,
    }


def _D(m, n, w):
    if m < n:
        return w[3] ** (n - m - 1) * w[6]
    if m == n:
        return w[4] / w[5]
    raise ValueError("D needs m <= n")


def _Dbar(n, m, w):
    if n < m:
        return w[1] ** (m - n - 1) * w[5]
    if n == m:
        return w[2] / w[6]
    raise ValueError("Dbar needs n <= m")


def spin_transfer_column(mu, N: int, w, cyclic: bool = True):
    """All (lam, weight) in the column of the source mu (distinct parts).

    lam interlaces mu with the periodic top boundary mu_0 = mu_M + N; the
    boundary substitution w2 w4 -> w0 w5 applies at every i where
    lam_i = lam_{i-1} = mu_{i-1}.  With cyclic=True the substitution is
    also applied at the seam (i = 1 with lam_0 read as lam_M + N), which
    is what the Lax-monodromy transfer matrix does; cyclic=False is the
    bulk-only matrix entering the interior ansatz identity.
    """
    mu = tuple(mu)
    M = len(mu)
    if len(set(mu)) != M:
        raise ValueError("column formula needs distinct parts")
    prev = [mu[-1] + N] + list(mu[:-1])
    out = []
    for lam in iproduct(*[range(mu[i], prev[i] + 1) for i in range(M)]):
        wgt = ONE
        for i in range(M):
            wgt = wgt * _D(mu[i], lam[i], w) * _Dbar(lam[i], prev[i], w)
        for i in range(1, M):
            if lam[i] == lam[i - 1] == prev[i]:
                wgt = wgt * (w[0] * w[5]) / (w[2] * w[4])
        if cyclic and M >= 2 and lam[0] == lam[-1] + N == prev[0]:
            wgt = wgt * (w[0] * w[5]) / (w[2] * w[4])
        out.append((lam, wgt))
    return out


def bethe_amplitude(us, t):
    """B = prod_{i<j} (u_i - t u_j)/(u_i - u_j)."""
    r = ONE
    n = len(us)
    for i in range(n):
        for j in range(i + 1, n):
            r = r * (us[i] - t * us[j]) / (us[i] - us[j])
    return r


class AnsatzTable:
    """One spectral alphabet at one (t, s): the n! rows (P, B(u_P)) of the
    ansatz sum, built once, with xi(u) and its powers tabulated per u.

    P lists indices into `us`.  The twin of `hall_littlewood.Alphabet`
    (both give R_mu at s = 0), kept apart so that each side checks the
    other.  Exact and complex inputs alike (a complex factor turns the
    Fraction start into a complex); with s = None only the rows are read
    (no xi).
    """

    def __init__(self, us, t, s=None):
        us = list(us)
        if len(set(us)) != len(us):
            raise ValueError("coincident spectral parameters rejected")
        self.us, self.s = us, s
        self.rows = [(P, bethe_amplitude([us[i] for i in P], t))
                     for P in permutations(range(len(us)))]
        self.xi = None if s is None else [xi(u, s) for u in us]
        self._powers = [{} for _ in us]     # index -> {e: xi(u)^e}

    def xi_power(self, i, e):
        powers = self._powers[i]
        p = powers.get(e)
        if p is None:
            p = powers[e] = self.xi[i] ** e
        return p

    def vector(self, mu, normalized=False):
        """R^s_mu = sum_P B(u_P) prod_i xi(u_{P_i})^{mu_i}, mu weakly decreasing.

        With normalized=True the prefactor 1/prod(1 + s u_k) is applied.
        """
        mu = tuple(mu)
        if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
            raise ValueError("exponent vector must be weakly decreasing")
        power = self.xi_power
        total = ZERO
        for P, term in self.rows:
            for i, e in zip(P, mu):
                term = term * power(i, e)
            total = total + term
        if normalized:
            for u in self.us:
                total = total / (1 + self.s * u)
        return total


def bethe_vector(mu, us, t, s, normalized=False):
    """R^s_mu at the spectral alphabet `us`; see `AnsatzTable.vector`."""
    return AnsatzTable(us, t, s).vector(mu, normalized)


def x_hat(xv, w):
    """Per-site forward factor; equals w1 (1 - z t u)/(1 - z u) at xv = xi(u)."""
    return w[4] + xv * w[5] * w[6] / (w[1] - w[3] * xv)


def y_hat(xv, w):
    """Per-site backward factor; equals w3 t (1 - z u / t)/(1 - z u)."""
    return w[2] - w[5] * w[6] / (w[1] - w[3] * xv)


def singular_point(us, z, s, t):
    """The first divisor of the ansatz checks that vanishes at (us, z, s, t),
    described; None if there is none.

    The column weights divide by w5 w6 and, at a collision, by w2 w4;
    xi(u) divides by 1 + u s; Xhat, Yhat and the corrected pair product
    divide by w1 - w3 xi(u).
    """
    us = [as_scalar(u) for u in us]
    z, s, t = as_scalar(z), as_scalar(s), as_scalar(t)
    w = boltzmann_weights(z, s, t)
    for name, value in (("w5 w6", w[5] * w[6]), ("w2 w4", w[2] * w[4])):
        if value == 0:
            return f"z={z}, s={s}, t={t}: {name} = 0"
    for u in us:
        if 1 + u * s == 0:
            return f"u={u}, s={s}: 1 + u s = 0"
        if w[1] - w[3] * xi(u, s) == 0:
            return f"u={u}, z={z}, s={s}, t={t}: w1 - w3 xi(u) = 0"
    return None


def _reject_singular(us, z, s, t) -> None:
    where = singular_point(us, z, s, t)
    if where is not None:
        raise ValueError(f"singular evaluation point {where}")


def pair_cancellation_check(u1, u2, z, s, t) -> bool:
    """Two-body cancellation fixing the amplitude ratio.

    The corrected pair product (the w2 w4 monomial replaced by w0 w5)
    summed over the two permutations with the amplitude ratio
    -(u1 - t u2)/(u2 - t u1) vanishes identically.  Raises ValueError on
    the locus `singular_point` names.
    """
    u1, u2, z, s, t = (as_scalar(v) for v in (u1, u2, z, s, t))
    _reject_singular([u1, u2], z, s, t)
    w = boltzmann_weights(z, s, t)

    def corrected_pair(xa, xb):
        ca = w[5] * w[6] / (w[1] - w[3] * xa)
        cb = w[5] * w[6] / (w[1] - w[3] * xb)
        # Y(xa) X(xb) with the w2 w4 term replaced by w0 w5
        return w[0] * w[5] + w[2] * xb * cb - w[4] * ca - ca * cb * xb

    x1, x2 = xi(u1, s), xi(u2, s)
    lhs = bethe_amplitude([u1, u2], t) * corrected_pair(x2, x1) \
        + bethe_amplitude([u2, u1], t) * corrected_pair(x1, x2)
    return lhs == 0


def interior_staircase_check(mu, N: int, us, t, s, z):
    """Exact quantization-free eigen-identity on a finite column.

    (R Lambda^s)_mu equals the sum over descent positions k = 0..M of

      sum_P B(P) prod_{i<=k} Yhat(xi_i) w3^{L_i - 1} xi_i^{mu_{i-1}}
                 prod_{i>k}  Xhat(xi_i) w1^{L_i - 1} xi_i^{mu_i}

    with L_i = mu_{i-1} - mu_i and mu_0 = mu_M + N.  At Bethe roots the
    middle terms cancel pairwise and the two ends give the eigenvalue.
    The ansatz is proven for at most doubly-occupied targets and assumed
    beyond; these columns only reach multiplicity two.  Raises ValueError
    on the locus `singular_point` names.
    """
    mu = tuple(mu)
    M = len(mu)
    us = [as_scalar(u) for u in us]
    t, s, z = as_scalar(t), as_scalar(s), as_scalar(z)
    if len(us) != M:
        raise ValueError("need one spectral parameter per particle")
    _reject_singular(us, z, s, t)
    w = boltzmann_weights(z, s, t)
    table = AnsatzTable(us, t, s)
    lhs = ZERO
    # bulk-only matrix: the seam substitution belongs to the periodic
    # quantization, not to the interior ansatz algebra
    for lam, wgt in spin_transfer_column(mu, N, w, cyclic=False):
        lhs += table.vector(lam) * wgt
    prev = [mu[-1] + N] + list(mu[:-1])
    L = [prev[i] - mu[i] for i in range(M)]
    if any(l < 1 for l in L):
        raise ValueError("column needs strictly interlacing boundaries")
    X = [x_hat(xv, w) for xv in table.xi]
    Y = [y_hat(xv, w) for xv in table.xi]
    power = table.xi_power
    rhs = ZERO
    for k in range(M + 1):
        for P, amp in table.rows:
            for i, j in enumerate(P):
                if i < k:
                    amp *= Y[j] * w[3] ** (L[i] - 1) * power(j, prev[i])
                else:
                    amp *= X[j] * w[1] ** (L[i] - 1) * power(j, mu[i])
            rhs += amp
    return lhs == rhs, lhs, rhs


def graded_pieri_on_integers_check(mu, us, t, max_degree: int):
    """The infinite-chain relation at s = 0, degree by degree in z.

    sum over horizontal-strip extensions lam of mu (decreasing integers)
    with |lam - mu| = r of psi_{lam/mu} R_lam = q_r(U) R_mu, r <= max_degree.
    """
    from .hall_littlewood import Alphabet, complete_q_coeffs

    mu = tuple(mu)
    M = len(mu)
    us = [as_scalar(u) for u in us]
    t = as_scalar(t)
    series = complete_q_coeffs(us, t, max_degree)
    R = Alphabet(us, t).R
    ok = True
    report = []
    for r in range(max_degree + 1):
        total = ZERO
        # lam_i in [mu_i, mu_{i-1}] (mu_0 = +infinity -> mu_1 + r)
        tops = [mu[0] + r] + list(mu[:-1])
        for lam in iproduct(*[range(mu[i], tops[i] + 1) for i in range(M)]):
            if sum(lam) - sum(mu) != r:
                continue
            total += _integer_psi(lam, mu, t) * R(lam)
        good = total == series[r] * R(mu)
        ok = ok and good
        report.append({"degree": r, "ok": good})
    return ok, report


def _integer_psi(lam, mu, t):
    """psi_{lam/mu} on decreasing integer sequences, via value multiplicities."""
    values = set(lam) | set(mu)
    result = ONE
    for v in values:
        ml = sum(1 for p in lam if p == v)
        mm = sum(1 for p in mu if p == v)
        if ml == mm - 1:
            result *= ONE - t ** mm
    return result


# ---------------------------------------------------------------------------
# root solving (complex doubles; the only floating-point corner)

class BetheSystem:
    def __init__(self, N, M, t, s, x, roots, residuals):
        self.N = N
        self.M = M
        self.t = t
        self.s = s
        self.x = x
        self.roots = roots
        self.residuals = residuals

    def to_json(self):
        return {
            "N": self.N, "M": self.M,
            "t": str(self.t), "s": str(self.s), "x": str(self.x),
            "roots": [[[z.real, z.imag] for z in root] for root in self.roots],
            "residuals": self.residuals,
        }


def _bethe_F(u, N, t, s, x):
    """Cleared polynomial system: one component per particle."""
    M = len(u)
    out = []
    for k in range(M):
        lhs = x * (1 + u[k] * s) ** N
        rhs = (u[k] + s) ** N
        for l in range(M):
            if l == k:
                continue
            lhs *= t * u[k] - u[l]
            rhs *= u[k] - t * u[l]
        out.append(lhs - rhs)
    return out


def _solve(J, b):
    """x with J x = b by elimination with partial pivoting (M <= 3);
    None when a pivot vanishes."""
    n = len(b)
    A = [list(row) + [bk] for row, bk in zip(J, b)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(A[r][c]))
        if A[p][c] == 0:
            return None
        A[c], A[p] = A[p], A[c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            for k in range(c, n + 1):
                A[r][k] -= f * A[c][k]
    x = [0j] * n
    for r in reversed(range(n)):
        x[r] = (A[r][n] - sum(A[r][k] * x[k] for k in range(r + 1, n))) / A[r][r]
    return x


def _raw_residual(u, N, t, s, x):
    M = len(u)
    worst = 0.0
    for k in range(M):
        try:
            lhs = x * xi(complex(u[k]), complex(s)) ** (-N)
        except (ValueError, ZeroDivisionError):  # the xi pole, or xi(u) = 0
            return float("inf")
        rhs = 1.0 + 0j
        for l in range(M):
            if l == k:
                continue
            rhs *= (u[k] - t * u[l]) / (t * u[k] - u[l])
        worst = max(worst, abs(lhs - rhs))
    return worst


def bethe_solve(N: int, M: int, t, s, x, seeds: int = 20, seed: int = 0) -> BetheSystem:
    """Newton iteration from random complex seeds; duplicates merged.

    Returns every distinct solution found with residual below 1e-10 in
    the original (uncleared) equations; per-seed non-convergence is not
    fatal.  Rejects a chain without sites (N < 1: every seed would
    converge on the constant system), a negative particle number, fewer
    than one seed, and t = 1, where the weight w5 = z(1 - t) vanishes and
    the transfer-matrix column weights divide by it.
    """
    if N < 1 or M < 0 or seeds < 1:
        raise ValueError(f"bethe_solve needs N >= 1, M >= 0 and seeds >= 1, "
                         f"got N={N}, M={M}, seeds={seeds}")
    if M > 3 or N > 6:
        raise ValueError("root solver is desk-scale: N <= 6, M <= 3")
    if t == 1:
        raise ValueError("t = 1 is a singular point of the Bethe system: "
                         "the weight w5 = z(1 - t) vanishes there")
    tf, sf, xf = float(t), float(s), float(x)
    if M == 0:
        return BetheSystem(N, M, t, s, x, [tuple()], [0.0])
    rng = random.Random(seed)
    found = []
    residuals = []
    # keys rounded to 7 digits: two distinct keys differ by >= 1e-7 > TOL_DEDUP
    keys = set()
    h = 1e-7
    for _ in range(seeds):
        u = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(M)]
        converged = False
        for _ in range(MAX_ITER):
            Fv = _bethe_F(u, N, tf, sf, xf)
            if max(map(abs, Fv)) < 1e-13:
                converged = True
                break
            cols = []
            for j in range(M):
                du = list(u)
                du[j] += h
                cols.append([(a - b) / h for a, b in zip(_bethe_F(du, N, tf, sf, xf), Fv)])
            step = _solve(list(zip(*cols)), Fv)
            if step is None:
                break
            u = [a - b for a, b in zip(u, step)]
            if max(map(abs, step)) < 1e-14:
                converged = max(map(abs, _bethe_F(u, N, tf, sf, xf))) < 1e-10
                break
        if not converged:
            continue
        if any(abs(u[i] - u[j]) < TOL_DEDUP for i in range(M) for j in range(i + 1, M)):
            continue  # coincident roots carry no Bethe vector
        res = _raw_residual(u, N, tf, sf, xf)
        if res >= TOL_RESIDUAL:
            continue
        key = tuple(sorted((round(z.real, 7), round(z.imag, 7)) for z in u))
        if key not in keys:
            keys.add(key)
            found.append(tuple(u))
            residuals.append(res)
    return BetheSystem(N, M, t, s, x, found, residuals)


def periodic_eigen_residual(system: BetheSystem, z: complex) -> float:
    """max over distinct-part columns of |(R Lambda^s)_mu - eival * R_mu|.

    The eigenvalue is w1^N prod (1-z t u)/(1-z u) + X w3^N t^M prod
    (1-z u/t)/(1-z u); the column sums run over raw wrapped targets, the
    ansatz being evaluated on them directly.  Rejects M = 0: the
    column sums need at least one particle.
    """
    N, M = system.N, system.M
    if M == 0:
        raise ValueError("periodic eigen residual needs M >= 1")
    tf, sf, xf = complex(float(system.t)), complex(float(system.s)), complex(float(system.x))
    zf = complex(z)
    worst = 0.0
    from itertools import combinations

    columns = [tuple(sorted(c, reverse=True)) for c in combinations(range(N), M)]
    for root in system.roots:
        us = list(root)
        w = boltzmann_weights(zf, sf, tf)
        lam_eig = w[1] ** N
        for u in us:
            lam_eig *= (1 - zf * tf * u) / (1 - zf * u)
        second = xf * w[3] ** N * tf ** M
        for u in us:
            second *= (1 - zf * u / tf) / (1 - zf * u)
        lam_eig += second
        table = AnsatzTable(us, tf, sf)
        for mu in columns:
            lhs = 0j
            for lam, wgt in spin_transfer_column(mu, N, w):
                lhs += table.vector(lam) * wgt
            rhs = lam_eig * table.vector(mu)
            scale = max(1.0, abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst
