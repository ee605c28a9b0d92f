"""Property tests for the sparse matrix algebra the window checks rely on.

`SparseMatrix.mismatches` must agree with a dense entrywise comparison
(even on matrices that store zeros), the arithmetic must never store a
zero, and a single wrong entry must be reported exactly once.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from integrable_lab.graded import SparseMatrix

DIM = 4
INDEX = st.integers(0, DIM - 1)
VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = VALUES.filter(lambda v: v != 0)
SETTINGS = settings(deadline=None, max_examples=30)


@st.composite
def raw_matrices(draw):
    """Any column map, stored zeros included."""
    entries = draw(st.dictionaries(st.tuples(INDEX, INDEX), VALUES, max_size=2 * DIM))
    cols = {}
    for (r, c), v in entries.items():
        cols.setdefault(c, {})[r] = v
    return SparseMatrix(DIM, cols)


@st.composite
def matrices(draw):
    """Matrices built through set_entry, so no zero is stored."""
    m = SparseMatrix(DIM)
    for (r, c), v in draw(st.dictionaries(st.tuples(INDEX, INDEX), VALUES,
                                          max_size=2 * DIM)).items():
        m.set_entry(r, c, v)
    return m


def stores_zero(m):
    return any(v == 0 for col in m.cols.values() for v in col.values())


@SETTINGS
@given(raw_matrices(), raw_matrices(), st.lists(INDEX, unique=True),
       st.none() | st.sets(INDEX))
def test_mismatches_equals_dense_comparison(a, b, cols, rows):
    dense = [(r, c, a.entry(r, c), b.entry(r, c))
             for c in cols for r in range(DIM)
             if (rows is None or r in rows) and a.entry(r, c) != b.entry(r, c)]
    assert a.mismatches(b, cols, rows) == dense


@SETTINGS
@given(matrices(), matrices(), INDEX, INDEX, VALUES, VALUES,
       st.lists(NONZERO, min_size=DIM, max_size=DIM), st.booleans())
def test_operations_store_no_zero(a, b, r, c, value, factor, norms, cancel):
    if cancel:
        value = -a.entry(r, c)  # drives the entry to zero
    added = a.copy()
    added.add_to(r, c, value)
    assigned = a.copy()
    assigned.set_entry(r, c, value)
    for out in (a.mul(b), a.add(b), a.add(a.scale(-1)), added, assigned,
                a.scale(factor), a.transpose(), a.conjugate_by_norm(norms)):
        assert not stores_zero(out)


@SETTINGS
@given(matrices(), INDEX, INDEX, NONZERO)
def test_one_perturbed_entry_is_reported_once(a, r, c, delta):
    b = a.copy()
    b.add_to(r, c, delta)
    assert a.mismatches(b, range(DIM)) == [(r, c, a.entry(r, c), a.entry(r, c) + delta)]
    assert a.mismatches(b, [j for j in range(DIM) if j != c]) == []
