"""Property tests of the per-alphabet tables against literal loops.

`hall_littlewood.Alphabet` (one permutation table per alphabet, R/Q/P
memoized) must equal the plain n! loop on every exponent vector,
negative parts included, and reject what that loop cannot evaluate.
`skew_Q_omega_sweep` (every lam from one strip sweep) must equal the
per-lam tableau loop it replaces, and `skew_P` and `skew_Q_omega` their
tableau loops, and the Pieri-signature strip enumerators the
row-coordinate enumerators and the literal `pieri_coeff`.  `gaudin_sum`
and `bethe_vector`, which read
one `bethe.AnsatzTable` per alphabet, must equal the term-by-term loop,
exactly on rationals and bit for bit on complex doubles, and the table's
integer reader must equal its `Fraction` route.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from integrable_lab.bethe import AnsatzTable, bethe_vector, xi
from integrable_lab.gaudin import _tail_geometric, gaudin_sum, spin_norm_floor
from integrable_lab import hall_littlewood
from integrable_lab.hall_littlewood import (
    MAX_SYMMETRIZE,
    Alphabet,
    PieriTable,
    hl_P,
    hl_Q,
    hl_R,
    horizontal_pieri_strips,
    pieri_coeff,
    skew_P,
    skew_Q_omega,
    skew_Q_omega_sweep,
    vertical_pieri_strips,
)
from integrable_lab.partitions import (
    contains,
    horizontal_strips_above,
    partition,
    partition_basis,
    vertical_strips_above,
    weight,
)

SETTINGS = settings(deadline=None, max_examples=30)
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)
WIDE = st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6)
T_VALUES = RATIONALS.filter(lambda v: v not in (1, -1))


def literal_R(mu, values, t):
    """The symmetrized sum, one permutation at a time."""
    n = len(values)
    total = F(0)
    for perm in permutations(values):
        term = F(1)
        for v, e in zip(perm, mu):
            term *= v ** e
        for i in range(n):
            for j in range(i + 1, n):
                term *= (perm[i] - t * perm[j]) / (perm[i] - perm[j])
        total += term
    return total


def literal_tfact(m, t):
    out = F(1)
    for k in range(1, m + 1):
        out *= 1 - t ** k
    return out


def literal_Q(lam, values, t):
    values = [v for v in values if v != 0]
    n = len(values)
    if n < len(lam):
        return F(0)
    m0 = n - len(lam)
    return (1 - t) ** n / literal_tfact(m0, t) * literal_R(tuple(lam) + (0,) * m0, values, t)


def literal_norm(lam, t):
    out = F(1)
    for part in set(lam):
        out *= literal_tfact(lam.count(part), t)
    return out


@st.composite
def alphabets(draw, min_size=1, max_size=4, nonzero=True):
    values = RATIONALS.filter(lambda v: v != 0) if nonzero else RATIONALS
    return draw(st.lists(values, min_size=min_size, max_size=max_size, unique=True))


@st.composite
def exponent_vectors(draw, n, lo=-3, hi=4):
    return tuple(sorted(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
                        reverse=True))


@SETTINGS
@given(st.data(), st.sampled_from([RATIONALS, WIDE]), st.booleans())
def test_alphabet_R_equals_the_permutation_loop(data, scalars, with_zero):
    values = data.draw(st.lists(scalars.filter(lambda v: v != 0), min_size=1, max_size=4,
                                unique=True))
    if with_zero:  # a zero value takes only non-negative exponents
        values.insert(data.draw(st.integers(0, len(values))), F(0))
    t = data.draw(scalars.filter(lambda v: v not in (1, -1)))
    alphabet = Alphabet(values, t)
    lo = 0 if with_zero else -3
    mus = data.draw(st.lists(exponent_vectors(len(values), lo=lo), min_size=1, max_size=4))
    for mu in mus + mus:  # the second pass reads the memo
        assert alphabet.R(mu) == literal_R(mu, values, t)
    assert hl_R(mus[0], values, t) == literal_R(mus[0], values, t)


def test_empty_alphabet():
    t = F(2, 7)
    assert Alphabet([], t).R(()) == 1 == hl_R((), [], t)
    assert Alphabet([], t).Q(()) == 1
    assert Alphabet([], t).Q((1,)) == 0


@SETTINGS
@given(st.data(), alphabets(max_size=4, nonzero=False), T_VALUES)
def test_alphabet_Q_and_P_equal_the_padded_loop(data, values, t):
    alphabet = Alphabet(values, t)
    lams = data.draw(st.lists(st.sampled_from(partition_basis(5).states), min_size=1,
                              max_size=5))
    for lam in lams + lams:
        Q = literal_Q(lam, values, t)
        assert alphabet.Q(lam) == Q == hl_Q(lam, values, t)
        assert alphabet.P(lam) == Q / literal_norm(lam, t) == hl_P(lam, values, t)


def test_alphabet_validates_each_new_argument_once(monkeypatch):
    calls = []

    def counted(parts):
        calls.append(tuple(parts))
        return partition(parts)

    monkeypatch.setattr(hall_littlewood, "partition", counted)
    alphabet = Alphabet([F(2), F(1, 3), F(-3, 5)], F(2, 7))
    first = alphabet.P((2, 1))
    for _ in range(9):
        assert alphabet.P((2, 1)) == first
    assert calls == [(2, 1), (2, 1)]  # once for P's argument, once for Q's
    for bad in ((1, 2), (2, -1)):
        with pytest.raises(ValueError):
            alphabet.Q(bad)
        with pytest.raises(ValueError):
            alphabet.P(bad)


def test_alphabet_rejects_what_the_loop_cannot_evaluate():
    t = F(1, 3)
    with pytest.raises(ValueError, match="coincident"):
        Alphabet([F(2), F(1, 2), F(2)], t).R((1, 0, 0))
    with pytest.raises(ValueError, match="zero variable with negative exponent"):
        Alphabet([F(0), F(2)], t).R((1, -1))
    too_many = [F(k) for k in range(1, MAX_SYMMETRIZE + 2)]
    with pytest.raises(ValueError, match="capped"):
        Alphabet(too_many, t).R((0,) * len(too_many))
    with pytest.raises(ValueError, match="weakly decreasing"):
        Alphabet([F(2), F(3)], t).R((0, 1))
    with pytest.raises(ValueError, match="must match"):
        Alphabet([F(2), F(3)], t).R((1,))
    # a memoized success does not let a later invalid argument through
    shared = Alphabet([F(0), F(2)], t)
    assert shared.R((1, 0)) == literal_R((1, 0), [F(0), F(2)], t)
    with pytest.raises(ValueError, match="negative exponent"):
        shared.R((0, -1))


# the per-lam tableau loops as they stood before the one sweep

def loop_skew_P(lam, mu, values, t):
    if not contains(lam, mu):
        return F(0)
    vec = {mu: F(1)}
    for v in reversed(values):
        nxt = {}
        for kappa, coeff in vec.items():
            gap = weight(lam) - weight(kappa)
            for nu in horizontal_strips_above(kappa, gap, max_part=lam[0] if lam else 0):
                if not contains(lam, nu):
                    continue
                amp = coeff * pieri_coeff("psi", nu, kappa, t) * v ** (weight(nu) - weight(kappa))
                if amp != 0:
                    nxt[nu] = nxt.get(nu, F(0)) + amp
        vec = nxt
    return vec.get(lam, F(0))


def loop_skew_Q_omega(lam, mu, values, t):
    if not contains(lam, mu):
        return F(0)
    vec = {mu: F(1)}
    for v in reversed(values):
        nxt = {}
        for kappa, coeff in vec.items():
            gap = weight(lam) - weight(kappa)
            for nu in vertical_strips_above(kappa, gap, max_length=len(lam)):
                if not contains(lam, nu):
                    continue
                amp = coeff * pieri_coeff("phi'", nu, kappa, t) * v ** (weight(nu) - weight(kappa))
                if amp != 0:
                    nxt[nu] = nxt.get(nu, F(0)) + amp
        vec = nxt
    return vec.get(lam, F(0))


@SETTINGS
@given(st.sampled_from(partition_basis(3).states), st.integers(0, 4),
       alphabets(max_size=3, nonzero=False), T_VALUES)
def test_one_sweep_equals_the_per_lam_loops(mu, room, values, t):
    cap = weight(mu) + room
    swept = skew_Q_omega_sweep(mu, values, t, cap)
    shapes = [lam for lam in partition_basis(cap).states if contains(lam, mu)]
    assert set(swept) <= set(shapes)
    for lam in shapes:
        expect = loop_skew_Q_omega(lam, mu, values, t)
        assert swept.get(lam, F(0)) == expect
        assert skew_Q_omega(lam, mu, values, t) == expect
        assert skew_P(lam, mu, values, t) == loop_skew_P(lam, mu, values, t)


# ---------------------------------------------------------------------------
# the Bethe side

def literal_amplitude(P, t):
    exact = not any(isinstance(v, complex) for v in (t, *P))
    out = F(1) if exact else 1
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            out = out * (P[i] - t * P[j]) / (P[i] - P[j])
    return out


def literal_vector(mu, us, t, s):
    """R^s_mu as the permutation loop with the amplitudes rebuilt per term."""
    exact = not any(isinstance(v, complex) for v in (t, s, *us))
    total = F(0) if exact else 0j
    for P in permutations(us):
        term = literal_amplitude(P, t)
        for u, e in zip(P, mu):
            term = term * xi(u, s) ** e
        total = total + term
    return total


SMALL = st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=7).filter(
    lambda v: v != 0)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(partition_basis(7).states), st.integers(0, 4),
       st.one_of(st.none(), st.integers(0, 9)), st.sampled_from([F(2, 7), F(-5, 3)]))
def test_signature_enumerators_equal_the_row_enumerators(mu, size, cap, t):
    # cap: lam_1 (horizontal) or len(lam) (vertical) at most cap, None for no cap
    table = PieriTable(t)
    horizontal = horizontal_strips_above(mu, size, max_part=cap)
    vertical = vertical_strips_above(mu, size, max_length=cap)
    for kind, enumerate_strips, row in (("psi", horizontal_pieri_strips, horizontal),
                                        ("phi", horizontal_pieri_strips, horizontal),
                                        ("psi'", vertical_pieri_strips, vertical),
                                        ("phi'", vertical_pieri_strips, vertical)):
        strips = enumerate_strips(mu, size, kind, cap)
        lams = [lam for lam, _ in strips]
        assert len(set(lams)) == len(lams), (kind, mu)  # each strip once
        assert set(lams) == set(row), (kind, mu)
        for lam, signature in strips:
            assert table.weight(kind, signature) == pieri_coeff(kind, lam, mu, t), (kind, lam, mu)


@SETTINGS
@given(st.integers(1, 3), st.data(), T_VALUES, st.sampled_from([F(0), F(1, 6), F(-1, 5)]),
       st.integers(0, 5))
def test_tabulated_gaudin_sum_equals_the_term_loop(n, data, t, s, truncation):
    U = data.draw(st.lists(SMALL, min_size=n, max_size=n, unique=True))
    V = data.draw(st.lists(SMALL, min_size=n, max_size=n, unique=True))
    floor = spin_norm_floor(n, t, s)
    if floor == 0:
        return
    value, tail = gaudin_sum(n, U, V, t, s, truncation)
    expect = F(0)
    for mu_inc in combinations_with_replacement(range(truncation + 1), n):
        mu = tuple(sorted(mu_inc, reverse=True))
        norm = F(1)
        for part in set(mu):
            m = mu.count(part)
            for j in range(m):
                norm *= (1 - t ** (j + 1)) / (1 - s * s * t ** j)
        term = literal_vector(mu, U, t, s) * literal_vector(mu, V, t, s) / norm
        for a in U + V:
            term /= 1 + s * a
        expect += term
    assert value == expect

    def bound(us):
        pref = F(1)
        for a in us:
            pref /= abs(1 + s * a)
        return pref * sum(abs(literal_amplitude(P, t)) for P in permutations(us))

    rho = max(abs(xi(u, s)) for u in U) * max(abs(xi(v, s)) for v in V)
    assert tail == bound(U) * bound(V) / floor * _tail_geometric(n, rho, truncation)


@SETTINGS
@given(st.integers(1, 3), st.data(), T_VALUES, st.sampled_from([F(0), F(1, 6)]),
       st.integers(-3, 0), st.integers(0, 4))
def test_ansatz_numerators_equal_the_vector(n, data, t, s, lo, hi):
    us = data.draw(st.lists(RATIONALS, min_size=n, max_size=n, unique=True))
    table = AnsatzTable(us, t, s)
    if lo < 0 and 0 in table.xi:  # xi(-s) = 0 takes no negative part
        with pytest.raises(ValueError, match="xi\\(u\\) = 0"):
            table.numerators(lo, hi)
        lo = 0
    numerator, denominator = table.numerators(lo, hi)
    mu = data.draw(exponent_vectors(n, lo=lo, hi=hi))
    assert F(numerator(mu), denominator) == table.vector(mu)
    k = data.draw(st.integers(0, n - 1))
    for part in (lo - 1, hi + 1):
        outside = tuple(sorted(mu[:k] + (part,) + mu[k + 1:], reverse=True))
        with pytest.raises(ValueError, match="leaves"):
            numerator(outside)
    rows, d_B = table.integer_rows()
    assert [(P, F(b, d_B)) for P, b in rows] == table.rows


@SETTINGS
@given(st.integers(1, 3), st.data())
def test_bethe_vector_on_complex_inputs_matches_the_loop_bit_for_bit(n, data):
    parts = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    us = data.draw(st.lists(st.builds(complex, parts, parts), min_size=n, max_size=n,
                            unique=True))
    t, s = complex(1 / 3), complex(1 / 6)
    if any(abs(a - b) < 1e-3 for i, a in enumerate(us) for b in us[i + 1:]) or \
            any(abs(1 + u * s) < 1e-3 for u in us):
        return
    mu = data.draw(exponent_vectors(n, lo=0, hi=4))
    assert bethe_vector(mu, us, t, s) == literal_vector(mu, us, t, s)
