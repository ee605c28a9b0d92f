from fractions import Fraction as F

import pytest

from integrable_lab.partitions import (
    conjugate,
    format_occupation,
    format_partition,
    horizontal_strips_above,
    is_horizontal_strip,
    is_vertical_strip,
    multiplicity,
    occupation_basis,
    occupation_to_partition,
    parse_partition,
    partition,
    partition_basis,
    partition_to_occupation,
    state_norm,
    strip_test,
    vertical_strips_above,
    weight,
    window_basis,
)
from integrable_lab.scalars import tfact
from oracles import dominance_leq, monomial_sym


def all_partitions_upto(D):
    return [lam for lam in partition_basis(D)]


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)


def test_conjugate_involution_and_weight():
    for lam in all_partitions_upto(9):
        assert conjugate(conjugate(lam)) == lam
        assert weight(conjugate(lam)) == weight(lam)


def test_multiplicity():
    assert multiplicity((1, 1), 1) == 2
    assert multiplicity((2, 1), 3) == 0
    assert multiplicity((3, 3, 1), 3) == 2


def test_strip_examples():
    assert strip_test((2, 1), (1,), "horizontal") is True
    assert strip_test((2,), (), "vertical") is False
    assert strip_test((1, 1), (1,), "vertical") is True


def test_vertical_strip_is_conjugate_horizontal():
    parts = all_partitions_upto(8)
    for lam in parts:
        for mu in parts:
            assert is_vertical_strip(lam, mu) == is_horizontal_strip(conjugate(lam), conjugate(mu))


def test_state_norm_examples():
    t = F(2, 9)
    assert state_norm((), t) == 1
    assert state_norm((1, 1), t) == (1 - t) * (1 - t**2)
    assert state_norm((2, 1), t) == (1 - t) ** 2


def test_state_norm_toda_form():
    # conjugation bijection m_k = lam'_k - lam'_{k+1}
    t = F(3, 7)
    for lam in all_partitions_upto(8):
        lp = conjugate(lam) + (0,)
        toda = F(1)
        for k in range(len(lp) - 1):
            toda *= tfact(lp[k] - lp[k + 1], t)
        assert state_norm(lam, t) == toda


def test_partition_basis_examples():
    assert partition_basis(2).states == [(), (1,), (2,), (1, 1)]
    # brute-force partition count p(0)+...+p(4) = 12
    assert len(partition_basis(4)) == 12


def test_occupation_basis_example():
    assert occupation_basis(2, 2).states == [(2, 0), (1, 1), (0, 2)]


def test_basis_index_inverse():
    b = partition_basis(6)
    for i, s in enumerate(b.states):
        assert b.index[s] == i


def test_unbounded_rejected():
    with pytest.raises(ValueError):
        partition_basis(-1)
    with pytest.raises(ValueError):
        window_basis(-1, 2)


def test_strips_above_match_predicate():
    univ = all_partitions_upto(9)
    for mu in all_partitions_upto(5):
        above = set(horizontal_strips_above(mu, 4))
        expect = {lam for lam in univ
                  if weight(lam) - weight(mu) <= 4 and is_horizontal_strip(lam, mu)}
        assert above == expect
        vabove = set(vertical_strips_above(mu, 4))
        vexpect = {lam for lam in univ
                   if weight(lam) - weight(mu) <= 4 and is_vertical_strip(lam, mu)}
        assert vabove == vexpect


def test_strips_above_caps():
    for lam in horizontal_strips_above((3, 1), 5, max_part=4):
        assert lam[0] <= 4
    for lam in vertical_strips_above((2, 2), 5, max_length=3):
        assert len(lam) <= 3


def test_occupation_partition_roundtrip():
    for m in occupation_basis(4, 3):
        lam = occupation_to_partition(m)
        assert partition_to_occupation(lam, 4) == m


def test_window_basis_shift():
    b = window_basis(2, 2)
    assert b.shift == 2
    assert len(b) == len({s for s in b.states})
    # every state decreasing within [0, 4]
    for s in b.states:
        assert all(0 <= v <= 4 for v in s)
        assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))


def test_text_roundtrip():
    assert parse_partition("[3,1,1]") == (3, 1, 1)
    assert format_partition((3, 1, 1)) == "[3,1,1]"
    assert format_occupation((2, 0, 1)) == "(2,0,1)"
    assert parse_partition("[]") == ()


def test_dominance():
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    assert not dominance_leq((2, 1), (3, 1))  # different weight


def test_monomial_sym():
    vals = [F(1, 2), F(1, 3)]
    assert monomial_sym((1,), vals) == F(1, 2) + F(1, 3)
    assert monomial_sym((1, 1), vals) == F(1, 6)
    assert monomial_sym((2, 1), vals) == F(1, 4) * F(1, 3) + F(1, 9) * F(1, 2)


def test_strips_are_canonical_tuples():
    # the enumerators build their strips without re-validating them
    for lam in all_partitions_upto(6):
        for strips in (horizontal_strips_above(lam, 3), horizontal_strips_above(lam, 3, max_part=4),
                       vertical_strips_above(lam, 3),
                       vertical_strips_above(lam, 3, max_length=len(lam) + 1)):
            assert len(set(strips)) == len(strips)
            for nu in strips:
                assert type(nu) is tuple and partition(nu) == nu, (lam, nu)
