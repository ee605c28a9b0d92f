"""Property tests for the basis constructors.

For every constructor the inverse index is exact (`index[s] == i` for the
i-th state, one entry per state), the states are exactly the constrained
set, built here by brute force, and the documented order holds:

- `partition_basis`, `occupation_basis`, `window_basis`: graded by weight
  (entry sum) ascending, lexicographically descending within a weight;
- `chain_basis`, `free_window_basis`: lexicographically descending;
- `single_site_basis`: occupancy ascending.
"""

from itertools import combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

from integrable_lab.lattice import chain_basis, free_window_basis, single_site_basis
from integrable_lab.partitions import occupation_basis, partition_basis, window_basis

SETTINGS = settings(deadline=None, max_examples=30)
CAP = st.none() | st.integers(1, 4)


def assert_indexed(basis, expected):
    assert len(basis.index) == len(basis.states) == len(basis)
    assert all(basis.index[s] == i for i, s in enumerate(basis.states))
    assert set(basis.states) == set(expected)


def graded_lex_descending(states):
    return all(sum(a) < sum(b) or (sum(a) == sum(b) and a > b)
               for a, b in zip(states, states[1:]))


def lex_descending(states):
    return all(a > b for a, b in zip(states, states[1:]))


def nonincreasing_tuples(values, length):
    return [tuple(reversed(c)) for c in combinations_with_replacement(values, length)]


@SETTINGS
@given(st.integers(0, 7), CAP, CAP)
def test_partition_basis(max_weight, max_part, max_length):
    basis = partition_basis(max_weight, max_part, max_length)
    expected = [lam for n in range(max_weight + 1)
                for lam in nonincreasing_tuples(range(1, max_weight + 1), n)
                if sum(lam) <= max_weight
                and (max_part is None or not lam or lam[0] <= max_part)
                and (max_length is None or len(lam) <= max_length)]
    assert_indexed(basis, expected)
    assert graded_lex_descending(basis.states)


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 4))
def test_occupation_basis(N, n):
    basis = occupation_basis(N, n)
    assert_indexed(basis, [m for m in product(range(n + 1), repeat=N) if sum(m) == n])
    assert graded_lex_descending(basis.states) and lex_descending(basis.states)


@SETTINGS
@given(st.integers(0, 2), st.integers(1, 3))
def test_window_basis(K, M):
    basis = window_basis(K, M)
    assert_indexed(basis, nonincreasing_tuples(range(2 * K + 1), M))
    assert graded_lex_descending(basis.states)


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 4))
def test_chain_basis(N, total_cap):
    basis = chain_basis(N, total_cap)
    assert_indexed(basis, [m for m in product(range(total_cap + 1), repeat=N)
                           if sum(m) <= total_cap])
    assert lex_descending(basis.states)


@SETTINGS
@given(st.integers(1, 3), st.integers(-2, 1), st.integers(0, 3))
def test_free_window_basis(N, lo, span):
    basis = free_window_basis(N, lo, lo + span)
    assert_indexed(basis, product(range(lo, lo + span + 1), repeat=N))
    assert lex_descending(basis.states)


@SETTINGS
@given(st.integers(0, 6))
def test_single_site_basis(cap):
    basis = single_site_basis(cap)
    assert_indexed(basis, [(m,) for m in range(cap + 1)])
    assert basis.states == sorted(basis.states)
