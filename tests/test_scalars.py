import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from integrable_lab.partitions import state_norm
from integrable_lab.scalars import TTable, format_scalar, parse_scalar, tbinom, tfact, tpoch

# wide rationals: negative, |t| > 1, large numerators and denominators
WIDE = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)


def test_tpoch_empty_product():
    assert tpoch(F(3, 7), 0, F(1, 2)) == 1


def test_tpoch_direct():
    t = F(2, 5)
    assert tpoch(t, 2, t) == (1 - t) * (1 - t**2)


def test_tpoch_single_factor():
    # frozen: single factor 1 - 1/2
    assert tpoch(F(1, 2), 1, F(1, 3)) == F(1, 2)


def test_tpoch_recursion():
    rng = random.Random(11)
    for _ in range(25):
        a = F(rng.randint(-9, 9), rng.randint(1, 11))
        t = F(rng.randint(-9, 9), rng.randint(1, 11))
        m = rng.randint(0, 6)
        assert tpoch(a, m + 1, t) == tpoch(a, m, t) * (1 - a * t**m)


def test_tbinom_expand():
    # oracle: (1-t^2)/(1-t) = 1 + t, expanded by hand
    t = F(3, 11)
    assert tbinom(2, 1, t) == 1 + t


def test_tbinom_edges_and_value():
    t = F(1, 2)
    assert tbinom(5, 0, t) == 1
    assert tbinom(5, 5, t) == 1
    # 1 + t + t^2 at t = 1/2
    assert tbinom(3, 1, t) == F(7, 4)


def test_tbinom_symmetry():
    rng = random.Random(5)
    for _ in range(30):
        a = rng.randint(0, 8)
        b = rng.randint(0, a)
        t = F(rng.randint(-9, 9), rng.randint(1, 11))
        if t in (1, -1):  # t-factorials vanish at roots of unity
            continue
        assert tbinom(a, b, t) == tbinom(a, a - b, t)


def test_tbinom_rejects_bad_args():
    with pytest.raises(ValueError):
        tbinom(2, 3, F(1, 2))
    with pytest.raises(ValueError):
        tbinom(2, -1, F(1, 2))


def test_tfact_is_tpoch():
    t = F(2, 7)
    assert tfact(4, t) == tpoch(t, 4, t)


def test_scalar_text_roundtrip():
    for text in ["3/7", "-2", "0", "-22/7", "1000000000000000000001/3"]:
        assert format_scalar(parse_scalar(text)) == text


def test_scalar_inverse_property():
    rng = random.Random(3)
    for _ in range(20):
        v = F(rng.randint(1, 50), rng.randint(1, 50)) * rng.choice([1, -1])
        assert v * (1 / v) == 1


@settings(deadline=None, max_examples=60)
@given(WIDE, WIDE)
def test_table_equals_the_literal_factors(t, a):
    table = TTable(t)
    for m in range(13):
        assert table.fact[m] == tfact(m, t)
        assert table.poch[a, m] == tpoch(a, m, t)
        assert table.one_minus[m] == 1 - t**m
        assert table.power[m] == t**m
        if t != 0:
            assert table.power[-m] == t**-m
        for b in range(m + 1):
            if tfact(b, t) * tfact(m - b, t) != 0:
                assert table.binom[m, b] == tbinom(m, b, t)


def literal_poch(a, m, t):
    out = F(1)
    for j in range(m):
        out *= 1 - a * t**j
    return out


@settings(deadline=None, max_examples=60)
@given(WIDE, WIDE, st.integers(0, 12))
def test_integer_pochhammer_equals_the_fraction_product(a, t, m):
    assert tpoch(a, m, t) == literal_poch(a, m, t)
    assert tfact(m, t) == literal_poch(t, m, t)


@settings(deadline=None, max_examples=40)
@given(WIDE.filter(bool), st.integers(0, 11), st.integers(1, 12))
def test_integer_pochhammer_vanishes_at_a_pole_of_one_factor(t, k, m):
    # a = t^-k makes the factor 1 - a t^k zero exactly when k < m
    value = tpoch(t**-k, m, t)
    assert value == literal_poch(t**-k, m, t)
    if k < m:
        assert value == 0


@settings(deadline=None, max_examples=60)
@given(WIDE, st.lists(st.integers(1, 5), max_size=9))
def test_state_norm_is_the_product_of_the_multiplicity_factorials(t, parts):
    lam = tuple(sorted(parts, reverse=True))
    expected = F(1)
    for k in set(lam):
        expected *= tfact(lam.count(k), t)
    assert state_norm(lam, t) == expected


def test_table_fills_out_of_order_and_rejects_what_the_literals_reject():
    t = F(-7, 3)
    table = TTable(t)
    assert table.fact[9] == tfact(9, t)  # fills 1..8 on the way
    assert [table.fact[m] for m in range(12, -1, -1)] == [tfact(m, t) for m in range(12, -1, -1)]
    with pytest.raises(ValueError):
        table.binom[2, 3]
    with pytest.raises(ValueError):
        table.binom[2, -1]
    with pytest.raises(ValueError):
        table.fact[-1]
    with pytest.raises(ValueError):
        table.poch[t, -1]
