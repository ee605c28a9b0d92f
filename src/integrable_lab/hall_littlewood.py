"""Hall-Littlewood polynomials at rational alphabets.

Three independent evaluation routes are provided:

  * hl_R      - the symmetrized Bethe-type sum over all n! permutations,
                defined for any weakly decreasing integer exponent vector;
  * hl_P/hl_Q - via the similarity relation Q_mu = (1-t)^n / (t)_{m0} *
                R_{0^{m0} mu} with m0 zero parts appended, P = Q / <mu|mu>;
  * skew tableau sums with branching weights psi (horizontal strips) or
                phi' (vertical strips), which also give the omega-dual
                family.

Each symmetric function is evaluated once per (alphabet, t).  An
`Alphabet` holds the n! permutation table of the symmetrized sum, its
amplitudes B(u_P) as integers over one common denominator, and memoizes
R, Q and P per argument; R_mu is an integer sum over the table with one
Fraction at the end.  hl_R/hl_Q/hl_P build one for a single evaluation,
and callers that evaluate many partitions at one draw build one and
read it.  skew_P and skew_Q_omega run one strip sweep, generic over the
strip generator and the weight, on integer numerators over one
denominator per step; `skew_Q_omega_sweep` returns Q^omega_{lam'/mu'}
for every lam reached from mu under a weight cap from a single sweep.
The two routes share no code, so each checks the other.

The four Pieri coefficients psi, phi, psi', phi' are integer products of
lookups in one `scalars.TTable` through one kernel, `PieriTable.coeff`.  A
`PieriTable` holds that table, the shapes it has read and the product
of each factor signature (the kind and the table indices it multiplies)
for one t, and serves strips that are valid by construction: a sweep
and a half vertex operator build read one per call, a Pieri suite one
per draw.  The one-shot `pieri_coeff`, the table's oracle, validates its
pair and multiplies literal `tfact`s and `tbinom`s.  The symmetrized sums, which
the Pieri checks compare those coefficients against, keep the literal
t-factorials, so a table bug cannot certify itself.

All identity checks are exact evaluations at rational points: a bounded
degree polynomial identity that holds at enough generic points holds
identically, and each exact check is a certificate at that point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import permutations
from math import gcd, lcm, prod
from operator import getitem

from .graded import mismatch_items
from .partitions import (
    _partitions_of,
    conjugate,
    contains,
    horizontal_strips_above,
    multiplicity,
    partition,
    state_norm,
    strip_test,
    vertical_strips_above,
    weight,
)
from .scalars import ONE, ZERO, TTable, as_scalar, reject_singular_t, tbinom, tfact

MAX_SYMMETRIZE = 7  # n! permutation sums stay desk-scale


# ---------------------------------------------------------------------------
# Pieri branching coefficients

_STRIPS = {"psi": "horizontal", "phi": "horizontal", "psi'": "vertical", "phi'": "vertical"}


def pieri_coeff(kind: str, lam, mu, t) -> Fraction:
    """The Pieri coefficient `kind` of lam/mu as a literal product, the
    oracle of `PieriTable.coeff` (m_j part multiplicities, ' conjugates):

      psi_{lam/mu}  = prod over j with m_j(lam) = m_j(mu) - 1 of (1 - t^{m_j(mu)})
      phi_{lam/mu}  = prod over j with m_j(lam) = m_j(mu) + 1 of (1 - t^{m_j(lam)})
      psi'_{lam/mu} = prod_i binom(lam'_i - lam'_{i+1}, lam'_i - mu'_i)_t
      phi'_{lam/mu} = prod_i (mu'_i - mu'_{i+1})!_t / ((lam'_i - mu'_i)!_t (mu'_i - lam'_{i+1})!_t)

    Raises ValueError for an unknown kind or a pair not a strip of its kind.
    """
    strip = _strip_of(kind)
    lam, mu, t = partition(lam), partition(mu), as_scalar(t)
    if not strip_test(lam, mu, strip):
        raise ValueError(f"{lam}/{mu} is not a {strip} strip")
    result = ONE
    if strip == "horizontal":
        for j in range(1, (lam[0] if lam else 0) + 1):
            ml, mm = multiplicity(lam, j), multiplicity(mu, j)
            if kind == "psi" and ml == mm - 1:
                result *= 1 - t ** mm
            elif kind == "phi" and ml == mm + 1:
                result *= 1 - t ** ml
        return result
    lp, mp = conjugate(lam) + (0,), conjugate(mu)
    mp += (0,) * (len(lp) - len(mp))
    for i in range(len(lp) - 1):
        if kind == "psi'":
            result *= tbinom(lp[i] - lp[i + 1], lp[i] - mp[i], t)
        else:
            result *= tfact(mp[i] - mp[i + 1], t) / (tfact(lp[i] - mp[i], t)
                                                      * tfact(mp[i] - lp[i + 1], t))
    return result


def _strip_of(kind: str) -> str:
    strip = _STRIPS.get(kind)
    if strip is None:
        raise ValueError(f"unknown Pieri coefficient kind {kind!r}")
    return strip


def pieri_shape(lam) -> tuple:
    """(lam', (m_1, ..., m_{lam_1})): the conjugate and the part
    multiplicities m_j = lam'_j - lam'_{j+1} the Pieri coefficients read."""
    lp = conjugate(lam)
    return lp, tuple(a - b for a, b in zip(lp, lp[1:] + (0,)))


class PieriTable:
    """The four Pieri coefficients at one t, for strips that are valid by
    construction (as the strip enumerators of `partitions` yield them).

    One `scalars.TTable`, one `pieri_shape` memo and one memo of products
    per factor signature serve every coefficient; the pair is not checked
    to be a strip.  A PieriTable lives for one call or one parameter draw,
    as an `Alphabet` does.
    """

    def __init__(self, t):
        self.table = TTable(t)
        self.shape = cache(pieri_shape)
        self.weight = cache(partial(_pieri_weight, self.table))

    def coeff(self, kind: str, lam, mu) -> Fraction:
        """The coefficient `kind` of the strip lam/mu (canonical tuples): the
        signature of the strip, the table indices of its factors other than
        1 read from the shapes of lam and mu, and their product, made once
        per (kind, signature)."""
        _strip_of(kind)
        lp, ml = self.shape(lam)
        mp, mm = self.shape(mu)
        mm = mm + (0,) * (len(ml) - len(mm))  # mu inside lam: mu_1 <= lam_1
        if kind in ("psi", "phi"):
            # psi: a part value losing one of its m_j(mu) copies gives 1 - t^{m_j(mu)};
            # phi: one gaining a copy gives 1 - t^{m_j(lam)}
            pairs = zip(mm, ml) if kind == "psi" else zip(ml, mm)
            return self.weight(kind, tuple(m for m, other in pairs if m == other + 1))
        d = [x - y for x, y in zip(lp, mp + (0,) * (len(lp) - len(mp)))]  # lam'_i - mu'_i
        if kind == "psi'":
            return self.weight(kind, tuple((a, di) for a, di in zip(ml, d) if 0 < di < a))
        return self.weight(kind, tuple((a, b, di) for a, b, di in zip(ml, mm, d)
                                       if b != a or 0 < di < a))


def _pieri_weight(table: TTable, kind: str, signature: tuple) -> Fraction:
    """The product of the table entries a `PieriTable` signature names:
    1 - t^m per m (psi, phi), binom(a, d)_t per (a, d) (psi') and
    b!_t / (d!_t (a-d)!_t) per (a, b, d) (phi'), multiplied as integer
    numerators and denominators, with one Fraction at the end."""
    num = den = 1
    for f in signature:
        if kind == "phi'":
            a, b, d = f
            up, down, down2 = table.fact[b], table.fact[d], table.fact[a - d]
            num *= up.numerator * down.denominator * down2.denominator
            den *= up.denominator * down.numerator * down2.numerator
        else:
            x = (table.binom if kind == "psi'" else table.one_minus)[f]
            num *= x.numerator
            den *= x.denominator
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# symmetrized sum route

class Alphabet:
    """One alphabet at one t: the permutation table of the symmetrized sum,
    with R, Q and P memoized per argument.

    The table lists the n! permutations P with their amplitudes
    B_P = prod_{i<j} (u_i - t u_j)/(u_i - u_j), at u = u_P, as integers
    B_P d_B over d_B, the lcm of their denominators.  It is built on the
    first R and read by every later one.  R_mu is then an integer sum:
    with u_i = a_i/b_i, lo = min(0, mu_n) and hi = max(0, mu_1),

        R_mu = sum_P B_P d_B prod_k c_{P_k}[mu_k] / (d_B prod_i a_i^-lo b_i^hi),
        c_i[e] = a_i^(e - lo) b_i^(hi - e),

    so R_mu costs n! integer monomials and one Fraction.  Q and P keep the
    literal t-factorials and `state_norm`.  An Alphabet lives for one call
    or one parameter draw: nothing is cached across alphabets.
    """

    def __init__(self, values, t):
        self.values = [as_scalar(v) for v in values]
        self.t = as_scalar(t)
        self._rows = None      # [(value indices of u_P, B_P d_B)]
        self._den = None       # d_B
        self._memo = {}        # ("R" | "Q" | "P", argument) -> value
        self._nonzero = None   # the alphabet without its zero values

    def _table(self):
        if self._rows is None:
            vals, t, n = self.values, self.t, len(self.values)
            if n > MAX_SYMMETRIZE:
                raise ValueError(f"permutation sum capped at {MAX_SYMMETRIZE} variables")
            if len(set(vals)) != n:
                raise ValueError("coincident variable values rejected; perturb the alphabet")
            factor = {(i, j): (vals[i] - t * vals[j]) / (vals[i] - vals[j])
                      for i in range(n) for j in range(n) if i != j}
            amps = []
            for perm in permutations(range(n)):
                num = den = 1
                for a in range(n):
                    for b in range(a + 1, n):
                        f = factor[perm[a], perm[b]]
                        num *= f.numerator
                        den *= f.denominator
                amps.append((perm, Fraction(num, den)))
            self._den = d = lcm(*(amp.denominator for _, amp in amps))
            self._rows = [(perm, amp.numerator * (d // amp.denominator))
                          for perm, amp in amps]
        return self._rows

    def R(self, mu) -> Fraction:
        """R_mu: sum over permutations of u^mu * prod_{i<j} (u_i - t u_j)/(u_i - u_j).

        mu is any weakly decreasing integer sequence (negative parts
        allowed); values must be pairwise distinct, and nonzero when
        negative exponents occur.
        """
        mu = tuple(int(v) for v in mu)
        key = ("R", mu)
        if key in self._memo:
            return self._memo[key]
        if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
            raise ValueError("exponent vector must be weakly decreasing")
        if len(self.values) != len(mu):
            raise ValueError("alphabet size must match exponent count")
        rows = self._table()
        if any(v == 0 for v in self.values) and any(e < 0 for e in mu):
            raise ValueError("zero variable with negative exponent")
        lo, hi = min((0, *mu)), max((0, *mu))
        ab = [(v.numerator, v.denominator) for v in self.values]
        c = {e: [a ** (e - lo) * b ** (hi - e) for a, b in ab] for e in set(mu)}
        cols = [c[e] for e in mu]  # cols[k][i] = c_i[mu_k]
        total = sum(prod(map(getitem, cols, perm), start=amp) for perm, amp in rows)
        value = self._memo[key] = Fraction(
            total, self._den * prod(a ** -lo * b ** hi for a, b in ab))
        return value

    def Q(self, lam) -> Fraction:
        """Q_lam via the zero-padded symmetrized sum; 0 when fewer variables than parts.

        Q is stable under adjoining zero variables, so those are stripped
        first (they would otherwise collide in the symmetrized sum).
        """
        key = ("Q", tuple(lam))
        if key not in self._memo:  # validated once per new argument
            lam = partition(lam)
            if 0 in self.values:
                if self._nonzero is None:
                    self._nonzero = Alphabet([v for v in self.values if v != 0], self.t)
                value = self._nonzero.Q(lam)
            elif len(self.values) < len(lam):
                value = ZERO
            else:
                n, t = len(self.values), self.t
                m0 = n - len(lam)
                reject_singular_t(t, m0)
                value = (ONE - t) ** n / tfact(m0, t) * self.R(lam + (0,) * m0)
            self._memo[key] = value
        return self._memo[key]

    def P(self, lam) -> Fraction:
        """P_lam = Q_lam / <lam|lam>."""
        key = ("P", tuple(lam))
        if key not in self._memo:  # validated once per new argument
            lam = partition(lam)
            reject_singular_t(self.t, max(map(lam.count, lam), default=0))
            self._memo[key] = self.Q(lam) / state_norm(lam, self.t)
        return self._memo[key]


def hl_R(mu, values, t) -> Fraction:
    """R_mu at the alphabet `values`; see `Alphabet.R`."""
    return Alphabet(values, t).R(mu)


def hl_Q(lam, values, t) -> Fraction:
    """Q_lam at the alphabet `values`; see `Alphabet.Q`."""
    return Alphabet(values, t).Q(lam)


def hl_P(lam, values, t) -> Fraction:
    """P_lam = Q_lam / <lam|lam> at the alphabet `values`."""
    return Alphabet(values, t).P(lam)


# ---------------------------------------------------------------------------
# skew tableau route

def _strip_sweep(mu, values, max_weight, strips, coeff, keep=None) -> dict:
    """{lam: tableau sum of shape lam/mu} for every lam reached from mu
    with |lam| <= max_weight.

    One variable per step, v_n first (the sum is symmetric anyway): a step
    adds a strip nu/kappa from strips(kappa, room) with weight
    coeff(nu, kappa) v^{|nu/kappa|}.  `keep` prunes the shapes a step may
    reach.  The sweep runs on integers: each coefficient is read once per
    sweep as a pair w_n/w_d, and at v = p/q an edge of size k adds
    c w_n p^k over w_d q^k to the numerator c of kappa (a term that is 0
    adds nothing).  A step sums its terms over the lcm of their
    denominators and takes out one gcd; one Fraction is made per shape.
    """
    weights = {}
    vec, den = {mu: 1}, 1
    for v in reversed(values):
        p, q = v.numerator, v.denominator
        terms = []
        for kappa, c in vec.items():
            wk = weight(kappa)
            for nu in strips(kappa, max_weight - wk):
                if keep is not None and not keep(nu):
                    continue
                w = weights.get((nu, kappa))
                if w is None:
                    w = weights[nu, kappa] = coeff(nu, kappa).as_integer_ratio()
                k = weight(nu) - wk
                if num := c * w[0] * p ** k:
                    terms.append((nu, num, w[1] * q ** k))
        step = lcm(*{d for _, _, d in terms})
        vec = {}
        for nu, num, d in terms:
            vec[nu] = vec.get(nu, 0) + num * (step // d)
        g = gcd(den * step, *vec.values())
        den = den * step // g
        vec = {nu: num // g for nu, num in vec.items()}
    return {nu: Fraction(num, den) for nu, num in vec.items()}


def skew_P(lam, mu, values, t) -> Fraction:
    """P_{lam/mu} as the horizontal-strip tableau sum, one variable per step."""
    lam, mu = partition(lam), partition(mu)
    values = [as_scalar(v) for v in values]
    t = as_scalar(t)
    if not contains(lam, mu):
        return ZERO
    top = lam[0] if lam else 0
    vec = _strip_sweep(mu, values, weight(lam),
                       lambda kappa, room: horizontal_strips_above(kappa, room, max_part=top),
                       partial(PieriTable(t).coeff, "psi"),
                       keep=lambda nu: contains(lam, nu))
    return vec.get(lam, ZERO)


def skew_Q_omega(lam, mu, values, t) -> Fraction:
    """Q^omega_{lam'/mu'}: vertical-strip tableau sum with phi' weights."""
    lam, mu = partition(lam), partition(mu)
    values = [as_scalar(v) for v in values]
    t = as_scalar(t)
    if not contains(lam, mu):
        return ZERO
    # phi' divides by k!_t, k <= a part multiplicity of a shape inside lam <= len(lam)
    reject_singular_t(t, len(lam))
    vec = _strip_sweep(mu, values, weight(lam),
                       lambda kappa, room: vertical_strips_above(kappa, room,
                                                                 max_length=len(lam)),
                       partial(PieriTable(t).coeff, "phi'"),
                       keep=lambda nu: contains(lam, nu))
    return vec.get(lam, ZERO)


def skew_Q_omega_sweep(mu, values, t, max_weight: int) -> dict:
    """{lam: Q^omega_{lam'/mu'} (as `skew_Q_omega`)} for every lam reached
    from mu with |lam| <= max_weight, from one sweep; a lam absent from the
    result has value 0.
    """
    mu = partition(mu)
    values = [as_scalar(v) for v in values]
    t = as_scalar(t)
    # phi' divides by k!_t, k <= a part multiplicity of a shape reached <= max_weight
    reject_singular_t(t, max_weight)
    return _strip_sweep(mu, values, max_weight, vertical_strips_above,
                        partial(PieriTable(t).coeff, "phi'"))


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

def cauchy_coeff_check(degree: int, U, V, t, kind: str = "cauchy"):
    """Graded Cauchy identity check through the given total degree.

    cauchy: sum_{|lam|=d} Q_lam(U) P_lam(V) == [z^d] prod (1-t u v)/(1 - u v)
    dual:   sum_{|lam|=d} P^omega_{lam'}(U) P_lam(V) == [z^d] prod (1 + u v)

    Both sides are computed through independent routes (symmetrized sums
    vs series expansion).  Returns (ok, failures).
    """
    U = [as_scalar(u) for u in U]
    V = [as_scalar(v) for v in V]
    t = as_scalar(t)
    if kind == "cauchy":
        rhs = omega_t_pair_coeffs(U, V, t, degree)
        left = Alphabet(U, t).Q
    elif kind == "dual":
        rhs = dual_pair_coeffs(U, V, degree)
        # P^omega_{lam'} = <lam|lam> Q^omega_{lam'}, every lam from one
        # sweep; it is nonzero only for lam_1 <= #U, the shapes it reaches
        omega = skew_Q_omega_sweep((), U, t, degree)

        def left(lam):
            return state_norm(lam, t) * omega.get(lam, ZERO)
    else:
        raise ValueError(f"unknown Cauchy kind {kind!r}")
    right = Alphabet(V, t).P
    failures = []
    for d in range(degree + 1):
        lhs = ZERO
        for lam in _partitions_of(d, d, d):
            lhs += left(lam) * right(lam)
        if lhs != rhs[d]:
            failures += mismatch_items([(lhs, rhs[d])], None, degree=d)
    return not failures, failures
