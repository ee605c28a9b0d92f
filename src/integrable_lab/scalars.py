"""Exact rational scalars and t-deformed combinatorial factors.

Every identity in this library is checked over Q, so scalars are
`fractions.Fraction` throughout (arbitrary precision, always in lowest
terms with positive denominator).  The three factors defined here,

    tpoch(a, m, t)  = (1 - a)(1 - a t) ... (1 - a t^(m-1))
    tfact(m, t)     = m!_t = tpoch(t, m, t)
    tbinom(a, b, t) = a!_t / (b!_t (a-b)!_t)

are the building blocks of all state norms, branching coefficients and
Q-matrix entries.  They stay the literal products above, multiplied on
integers with one `Fraction` per call (a state norm included).

A `TTable` holds the same factors at one t, each computed once: t^m,
1 - t^m, m!_t, (a)_m and the t-binomials.  Constructions that read many
entries at one t (the Pieri coefficients of the half vertex operators,
the Q-matrix, the transfer and Toda run amplitudes, the commutation
series) build one per call; nothing is cached across calls.  The
oracles those constructions are checked against (the auxiliary-spin
trace, `ll_F_op`/`ll_G_op`, the symmetrized Hall-Littlewood sums) call
the literal functions, whose integer kernel the table never reads, so a
table bug cannot certify itself.  The auxiliary Lax operator `build_LL`
also stays on the literal `tfact`, reading each order k!_t once per call
rather than once per entry; the trace reaches the literal t-factorials
only through it.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value) -> Fraction:
    """Coerce ints/strings/Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot coerce {value!r} to an exact scalar")


def parse_scalar(text: str) -> Fraction:
    """Parse the "p/q" or "p" text form, bit-exactly."""
    return Fraction(text.strip())


def format_scalar(value: Fraction) -> str:
    """Emit "p/q" (or "p" when the denominator is 1)."""
    value = as_scalar(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _poch_ratio(a: Fraction, m: int, t: Fraction) -> tuple:
    """(a)_m as an unreduced (numerator, denominator) pair of ints, each
    factor 1 - a t^j = (a_d t_d^j - a_n t_n^j) / (a_d t_d^j)."""
    an, ad, tn, td = a.numerator, a.denominator, t.numerator, t.denominator
    num = den = 1
    for _ in range(m):
        num *= ad - an
        den *= ad
        an *= tn
        ad *= td
    return num, den


def reject_singular_t(t, top: int) -> None:
    """Reject the t where a construction dividing by the t-factorials k!_t,
    k <= top, meets a zero denominator: t = 1 once top >= 1, and t = -1
    once top >= 2 (k!_t has the factor 1 - t^2 from k = 2 on)."""
    if t == 1 and top >= 1 or t == -1 and top >= 2:
        raise ValueError(f"t = {t} is a singular point: a t-factorial k!_t, k <= {top}, "
                         "that the construction divides by is 0 there")


def tpoch(a, m: int, t) -> Fraction:
    """t-Pochhammer symbol (a)_m = prod_{j=0}^{m-1} (1 - a t^j); 1 for m = 0."""
    if m < 0:
        raise ValueError("tpoch needs m >= 0")
    return Fraction(*_poch_ratio(as_scalar(a), m, as_scalar(t)))


def tfact(m: int, t) -> Fraction:
    """t-factorial m!_t = (t)_m."""
    return tpoch(t, m, t)


def tbinom(a: int, b: int, t) -> Fraction:
    """t-binomial coefficient (a choose b)_t; rejects b < 0 or b > a."""
    if not 0 <= b <= a:
        raise ValueError(f"tbinom needs 0 <= b <= a, got a={a}, b={b}")
    t = as_scalar(t)
    return tfact(a, t) / (tfact(b, t) * tfact(a - b, t))


class _Lookup(dict):
    """A dict that computes a missing key once, by `fill(key)`."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class TTable:
    """t-scalars at one t, each computed on first lookup and kept:

        power[m]     = t^m (any integer m)
        one_minus[m] = 1 - t^m
        fact[m]      = m!_t
        poch[a, m]   = (a)_m
        binom[a, b]  = (a choose b)_t

    Lookups on known keys are plain dict reads.  A table lives for one
    call at one t: nothing is cached across calls.
    """

    def __init__(self, t):
        t = as_scalar(t)
        self.power = power = _Lookup(lambda m: t ** m)
        self.one_minus = one_minus = _Lookup(lambda m: ONE - power[m])
        facts = [ONE]  # 0!_t .. k!_t, grown in order

        def fill_fact(m):
            if m < 0:
                raise ValueError(f"m!_t needs m >= 0, got {m}")
            while len(facts) <= m:
                facts.append(facts[-1] * one_minus[len(facts)])
            return facts[m]

        def fill_poch(key):
            a, m = key
            if m < 0:
                raise ValueError("tpoch needs m >= 0")
            a = as_scalar(a)
            result = ONE
            for j in range(m):
                result *= ONE - a * power[j]
            return result

        def fill_binom(key):
            a, b = key
            if not 0 <= b <= a:
                raise ValueError(f"tbinom needs 0 <= b <= a, got a={a}, b={b}")
            return fact[a] / (fact[b] * fact[a - b])

        self.fact = fact = _Lookup(fill_fact)
        self.poch = _Lookup(fill_poch)
        self.binom = _Lookup(fill_binom)
