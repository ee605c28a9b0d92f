"""Property tests for the sparse matrix algebra the window checks rely on.

Every matrix is stored as integer numerators over one denominator in
canonical form (den >= 1, gcd(den, numerators) = 1, no stored zero, no
empty column), checked through the public surface by `assert_canonical`
on every result: the constructor brings any integer column map to that
form and rejects what is not one.  `SparseMatrix.mismatches` and its
per-column `vector_mismatches` must agree with a dense entrywise
comparison (vectors storing zeros included) and report reduced
Fractions, and a single wrong entry must be reported exactly once.  The
state-map constructor and `GradedOperator.restrict` must equal the loops
they replace, drop what leaves the basis and store no zero (the state
map on listed sources equals the whole map on those columns; `restrict`
refuses a cap below a block it keeps); partitions,
occupation vectors and conjugates must round-trip.  The graded algebra
(`compose`, `lattice.mat2_mul`, `lattice.monodromy` on listed columns,
`eval_at`) must equal dense truncated Cauchy products of Fraction
lists, cancelling terms and empty operands included, on values with
large numerators over many denominators, storing only reduced nonzero
Fractions and no degree above the cap; `sum_of_products` of three or
more pairs must equal the dense sum of their Cauchy products; the ungraded
`sum_of_scaled_products` and `mul` must equal dense sums of scaled
products, and form on the columns W kept in their right factors exactly
the columns W of the whole product; a seeded random projection must
see one bumped entry of C = A B on the asserted rows and columns, at
its row, and `projected_items` must then return the product route's
item naming it, and nothing when C = A B; `commutator_items` must list the
first three entries where the dense AB and BA differ, column by column,
and `covariance_items` must give the verdict of the commutator with an
invertible monomial U, covariant blocks and bumped ones alike, naming
only entries where the dense UB and BU differ;
`scale`, `conjugate_by_norm`, `apply` and `apply_row` must equal their
dense counterparts.  Both `from_entries` constructors must equal the
per-entry `add_to` loop they replace on entry lists with repeats,
cancelling pairs and explicit zeros, and both `from_ratios` constructors
must equal the literal Fraction sum of their integer entries, as
builders hand them (unreduced and negative denominators, repeated
positions across degrees, entries that cancel), store no zero and reject
an index outside the basis.
"""

from fractions import Fraction as F
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from integrable_lab.graded import (
    GradedOperator,
    SparseMatrix,
    _column_mismatches,
    commutator_items,
    covariance_items,
    mismatch_items,
    projected_items,
    random_vector,
    sum_of_products,
    sum_of_scaled_products,
    vector_mismatches,
)
from integrable_lab.lattice import mat2_mul, monodromy
from integrable_lab.partitions import (
    Basis,
    conjugate,
    occupation_to_partition,
    partition,
    partition_to_occupation,
    weight,
)
from integrable_lab.scalars import format_scalar

DIM = 4
COMMUTATOR_BASIS = Basis([(k,) for k in range(DIM, 0, -1)])
INDEX = st.integers(0, DIM - 1)
VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = VALUES.filter(lambda v: v != 0)
SETTINGS = settings(deadline=None, max_examples=30)


@st.composite
def raw_matrices(draw):
    """Any integer column map over any denominator, zeros, empty columns and
    common factors included, through the validating constructor."""
    entries = draw(st.dictionaries(st.tuples(INDEX, INDEX), st.integers(-6, 6),
                                   max_size=2 * DIM))
    cols = {c: {} for c in draw(st.sets(INDEX))}
    for (r, c), v in entries.items():
        cols.setdefault(c, {})[r] = v
    return SparseMatrix(DIM, cols, draw(st.integers(1, 12)))


@st.composite
def matrices(draw):
    """Matrices built through from_entries, so no zero is stored."""
    entries = draw(st.dictionaries(st.tuples(INDEX, INDEX), VALUES, max_size=2 * DIM))
    return SparseMatrix.from_entries(DIM, ((r, c, v) for (r, c), v in entries.items()))


def copy_of(m):
    return SparseMatrix.from_entries(m.dim, m.entries())


def assert_canonical(m):
    """m is stored in canonical form, read through the public surface: every
    entry a nonzero reduced Fraction, den the lcm of their denominators (so
    gcd(den, numerators) = 1), and every stored row and column holds one."""
    entries = list(m.entries())
    assert all(type(v) is F and v != 0 for _, _, v in entries)
    assert type(m.den) is int and m.den == lcm(1, *(v.denominator for _, _, v in entries))
    assert m.stored_columns() == {c for _, c, _ in entries}
    assert m.stored_rows() == {r for r, _, _ in entries}
    assert m.nnz() == len(entries)


def entry_map(m):
    return {(r, c): v for r, c, v in m.entries()}


@SETTINGS
@given(raw_matrices(), raw_matrices(), st.lists(INDEX, unique=True),
       st.none() | st.sets(INDEX))
def test_mismatches_equals_dense_comparison(a, b, cols, rows):
    assert_canonical(a)
    assert_canonical(b)
    dense = [(r, c, a.entry(r, c), b.entry(r, c))
             for c in cols for r in range(DIM)
             if (rows is None or r in rows) and a.entry(r, c) != b.entry(r, c)]
    found = a.mismatches(b, cols, rows)
    assert found == dense
    assert all(type(v) is F for _, _, va, vb in found for v in (va, vb))
    # a copy over the same values compares equal everywhere
    assert a.mismatches(copy_of(a), cols, rows) == []


@SETTINGS
@given(st.dictionaries(INDEX, VALUES), st.dictionaries(INDEX, VALUES),
       st.none() | st.sets(INDEX))
def test_vector_mismatches_equals_dense_comparison(va, vb, rows):
    # sparse Fraction vectors, stored zeros included
    dense = [(r, va.get(r, F(0)), vb.get(r, F(0))) for r in range(DIM)
             if (rows is None or r in rows) and va.get(r, F(0)) != vb.get(r, F(0))]
    assert vector_mismatches(va, vb, rows) == dense
    assert vector_mismatches(va, dict(va), rows) == []


@SETTINGS
@given(matrices(), matrices(), INDEX, INDEX, VALUES, VALUES,
       st.lists(NONZERO, min_size=DIM, max_size=DIM), st.booleans())
def test_operations_store_no_zero(a, b, r, c, value, factor, norms, cancel):
    if cancel:
        value = -a.entry(r, c)  # drives the entry to zero
    added = copy_of(a)
    added.add_to(r, c, value)
    for out in (a.mul(b), a.add(b), a.add(a.scale(-1)), added,
                a.scale(factor), a.conjugate_by_norm(norms)):
        assert_canonical(out)
    assert entry_map(added) == {k: v for k, v in {**entry_map(a), (r, c): a.entry(r, c) + value}
                                .items() if v}


@SETTINGS
@given(matrices(), INDEX, INDEX, NONZERO)
def test_one_perturbed_entry_is_reported_once(a, r, c, delta):
    b = copy_of(a)
    b.add_to(r, c, delta)
    assert a.mismatches(b, range(DIM)) == [(r, c, a.entry(r, c), a.entry(r, c) + delta)]
    assert a.mismatches(b, [j for j in range(DIM) if j != c]) == []


# states 0..DIM-1 are in the basis; DIM..DIM+1 are targets outside it
STATE_MAPS = st.dictionaries(st.integers(0, DIM - 1),
                             st.none() | st.tuples(st.integers(0, DIM + 1), VALUES))


@SETTINGS
@given(STATE_MAPS, st.permutations(range(DIM)))
def test_state_map_equals_the_loop_it_replaces(table, order):
    basis = Basis([(v,) for v in order])

    def fn(state):
        hit = table.get(state[0])
        return None if hit is None else ((hit[0],), hit[1])

    built = SparseMatrix.from_state_map(basis, fn)
    loop = SparseMatrix(DIM)
    for j, state in enumerate(basis.states):
        hit = fn(state)
        if hit is not None and hit[0] in basis.index:
            loop.add_to(basis.index[hit[0]], j, hit[1])
    assert built == loop
    assert_canonical(built)
    for j, state in enumerate(basis.states):
        hit = fn(state)
        if hit is None or hit[0] not in basis.index or hit[1] == 0:
            assert j not in built.stored_columns()


@SETTINGS
@given(STATE_MAPS, st.permutations(range(DIM)), st.lists(INDEX, max_size=DIM + 1))
def test_state_map_on_sources_equals_the_whole_map_on_those_columns(table, order, sources):
    basis = Basis([(v,) for v in order])

    def fn(state):
        hit = table.get(state[0])
        return None if hit is None else ((hit[0],), hit[1])

    whole = SparseMatrix.from_state_map(basis, fn)
    built = SparseMatrix.from_state_map(basis, fn, sources)
    assert built == SparseMatrix.from_entries(DIM, (e for e in whole.entries() if e[1] in sources))
    assert_canonical(built)
    for bad in ([DIM], [0, -1]):
        with pytest.raises(ValueError, match="outside the basis"):
            SparseMatrix.from_state_map(basis, fn, bad)


@SETTINGS
@given(st.dictionaries(st.integers(0, 2), raw_matrices(), max_size=3),
       st.dictionaries(INDEX, st.integers(0, 2)), st.integers(0, 4))
def test_restrict_equals_the_loop_it_replaces(blocks, mapping, max_degree):
    op = GradedOperator(DIM, blocks)
    loop = {}
    for k in op.degrees():
        m = SparseMatrix(3)
        for r, c, v in op.block(k).entries():
            if r in mapping and c in mapping:
                m.add_to(mapping[r], mapping[c], v)
        loop[k] = m
    expect = GradedOperator(3, loop)
    if any(k > max_degree for k in expect.degrees()):
        # a kept block above the requested cap is refused, not truncated
        with pytest.raises(ValueError, match="above max_degree"):
            op.restrict(mapping, 3, max_degree)
        return
    got = op.restrict(mapping, 3, max_degree)
    assert got == expect
    assert got.max_degree == max_degree
    for m in got.blocks.values():
        assert_canonical(m)


PARTITIONS = st.lists(st.integers(1, 4), max_size=6).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@SETTINGS
@given(PARTITIONS, st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_partition_occupation_conjugate_round_trips(lam, occ):
    occ = tuple(occ)
    assert partition(lam) == lam
    assert occupation_to_partition(partition_to_occupation(lam, 4)) == lam
    assert partition_to_occupation(occupation_to_partition(occ), len(occ)) == occ
    assert conjugate(conjugate(lam)) == lam
    assert weight(conjugate(lam)) == weight(lam)
    assert len(conjugate(lam)) == (lam[0] if lam else 0)


# few distinct values, so that sums of products often cancel to zero
SMALL = st.sampled_from([F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)])
# large numerators over denominators up to 60, coprime (primes) or not
# (4, 6, 12, 60): blocks over different common denominators, so that a
# wrong lcm or scale factor in the fraction-free graded sum shows
WIDE = st.builds(F, st.integers(-10 ** 20, 10 ** 20),
                 st.sampled_from([1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 17, 19, 23, 29, 31,
                                  37, 41, 43, 47, 53, 59, 60]))
MIXED = SMALL | WIDE


@st.composite
def graded_ops(draw, max_degree=3, values=SMALL):
    blocks = {}
    for k in range(draw(st.integers(0, max_degree)) + 1):
        entries = draw(st.dictionaries(st.tuples(INDEX, INDEX), values, max_size=2 * DIM))
        blocks[k] = SparseMatrix.from_entries(DIM, ((r, c, v) for (r, c), v in entries.items()))
    return GradedOperator(DIM, blocks)


def dense(m):
    return [[m.entry(r, c) for c in range(DIM)] for r in range(DIM)]


def dense_zero():
    return [[F(0)] * DIM for _ in range(DIM)]


def dense_add(a, b):
    return [[a[r][c] + b[r][c] for c in range(DIM)] for r in range(DIM)]


def dense_mul(a, b):
    return [[sum((a[r][m] * b[m][c] for m in range(DIM)), F(0)) for c in range(DIM)]
            for r in range(DIM)]


def dense_blocks(A, max_degree):
    """[A_0, ..., A_max_degree], dense."""
    return [dense(A.block(k)) for k in range(max_degree + 1)]


def dense_cauchy(A, B, max_degree):
    """[C_0, ..., C_max_degree] with C_k = sum_{i+j=k} A_i B_j, on lists of
    dense blocks."""
    out = [dense_zero() for _ in range(max_degree + 1)]
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            if i + j <= max_degree:
                out[i + j] = dense_add(out[i + j], dense_mul(a, b))
    return out


def dense_mat2(M, max_degree):
    """A 2x2 matrix of graded operators as dense block lists."""
    return [[dense_blocks(e, max_degree) for e in row] for row in M]


def dense_mat2_mul(A, B, max_degree):
    """2x2 product of 2x2 matrices of dense block lists."""
    return [[[dense_add(x, y) for x, y in zip(dense_cauchy(A[i][0], B[0][j], max_degree),
                                              dense_cauchy(A[i][1], B[1][j], max_degree))]
             for j in range(2)] for i in range(2)]


def assert_graded_equals_dense(op, want, max_degree):
    """op equals the dense blocks `want`, stores every block in canonical
    form and no empty block, and has no degree above max_degree."""
    assert op.max_degree == max_degree
    assert all(0 <= k <= max_degree for k in op.degrees())
    assert not any(m.is_zero() for m in op.blocks.values())
    for m in op.blocks.values():
        assert_canonical(m)
    assert dense_blocks(op, max_degree) == want


@SETTINGS
@given(graded_ops(values=MIXED), graded_ops(values=MIXED), st.integers(0, 6), st.booleans())
def test_compose_equals_dense_cauchy_product(A, B, max_degree, cancel):
    if cancel:
        # A = M + z M, B = N - z N: the degree-1 block M(-N) + M N cancels
        A = GradedOperator(DIM, {0: A.block(0), 1: A.block(0)})
        B = GradedOperator(DIM, {0: B.block(0), 1: B.block(0).scale(-1)})
    got = A.compose(B, max_degree)
    want = dense_cauchy(dense_blocks(A, max_degree), dense_blocks(B, max_degree), max_degree)
    assert_graded_equals_dense(got, want, max_degree)
    if cancel and max_degree >= 1:
        assert 1 not in got.blocks


@SETTINGS
@given(st.lists(graded_ops(2, MIXED), min_size=8, max_size=8), st.integers(0, 4),
       st.booleans())
def test_mat2_mul_equals_dense_products(ops, max_degree, cancel):
    A = [ops[0:2], ops[2:4]]
    B = [ops[4:6], ops[6:8]]
    if cancel:
        # entry (0, 0) = A00 B00 + A00 (-B00) = 0
        A[0][1] = A[0][0]
        B[1][0] = B[0][0].scale(-1)
    got = mat2_mul(A, B, max_degree)
    want = dense_mat2_mul(dense_mat2(A, max_degree), dense_mat2(B, max_degree), max_degree)
    for i in range(2):
        for j in range(2):
            assert_graded_equals_dense(got[i][j], want[i][j], max_degree)
    if cancel:
        assert not got[0][0].blocks


def builder(L):
    """A factor builder for `monodromy`: L on the source columns it is asked for."""
    def build(sources):
        if sources is None:
            return L
        return [[GradedOperator(DIM, {d: SparseMatrix.from_entries(
                    DIM, (e for e in m.entries() if e[1] in sources))
                                      for d, m in e.blocks.items()}, max_degree=e.max_degree)
                 for e in row] for row in L]
    return build


@SETTINGS
@given(st.lists(graded_ops(1, MIXED), min_size=12, max_size=12), st.sets(INDEX),
       st.integers(0, 4))
def test_column_monodromy_equals_dense_products(ops, cols, max_degree):
    laxes = [[ops[4 * f:4 * f + 2], ops[4 * f + 2:4 * f + 4]] for f in range(3)]
    got = monodromy([builder(L) for L in laxes], max_degree, cols)
    dense_laxes = [dense_mat2(L, max_degree) for L in laxes]
    want = dense_laxes[0]
    for L in dense_laxes[1:]:
        want = dense_mat2_mul(want, L, max_degree)
    for i in range(2):
        for j in range(2):
            kept = [[[v if c in cols else F(0) for c, v in enumerate(row)] for row in block]
                    for block in want[i][j]]
            assert_graded_equals_dense(got[i][j], kept, max_degree)


def test_sum_of_products_of_empty_operands():
    M = SparseMatrix.from_entries(DIM, [(0, 3, F(5, 7))])  # only column 3
    N = SparseMatrix.from_entries(DIM, [(1, 2, F(-3, 11))])  # reads column 1 of its left
    zero = GradedOperator(DIM)
    for A, B in [(zero, zero), (GradedOperator(DIM, {1: M}), zero),
                 (zero, GradedOperator(DIM, {0: N})),
                 (GradedOperator(DIM, {0: M}), GradedOperator(DIM, {0: N}))]:
        got = A.compose(B, 2)
        assert not got.blocks and got.max_degree == 2
    # an empty pair beside a nonempty one leaves the nonempty product alone
    P = SparseMatrix.from_entries(DIM, [(2, 0, F(13, 60))])
    got = sum_of_products([(zero, GradedOperator(DIM, {0: M})),
                           (GradedOperator(DIM, {0: N}), GradedOperator(DIM, {1: P}))], 1)
    assert_graded_equals_dense(got, [dense_zero(), dense(SparseMatrix.from_entries(
        DIM, [(1, 0, F(-3, 11) * F(13, 60))]))], 1)
    with pytest.raises(ValueError, match="no pairs"):
        sum_of_products([], 2)


def test_sum_of_scaled_products_of_no_terms():
    with pytest.raises(ValueError, match="no terms"):
        sum_of_scaled_products([])
    with pytest.raises(ValueError, match="no terms"):
        sum_of_scaled_products(iter([]))


@SETTINGS
@given(graded_ops(), st.fractions(min_value=-2, max_value=2, max_denominator=3),
       st.booleans())
def test_eval_at_equals_dense_sum(A, z, cancel):
    if cancel:
        # A(z) = M - z M vanishes at z = 1
        A = GradedOperator(DIM, {0: A.block(0), 1: A.block(0).scale(-1)})
        z = F(1)
    want = dense_zero()
    for k in A.degrees():
        want = dense_add(want, [[v * z ** k for v in row] for row in dense(A.block(k))])
    got = A.eval_at(z)
    assert dense(got) == want
    assert_canonical(got)
    if cancel:
        assert got.is_zero() and not got.stored_columns()


@SETTINGS
@given(st.lists(st.tuples(SMALL | st.just(F(0)), matrices(), matrices()), min_size=1,
                max_size=4), st.booleans())
def test_sum_of_scaled_products_equals_dense_sum(terms, cancel):
    if cancel:
        # the first term and its negation cancel entry by entry
        c, A, B = terms[0]
        terms.append((-c, A, B))
    want = dense_zero()
    for c, A, B in terms:
        want = dense_add(want, [[c * v for v in row] for row in dense_mul(dense(A), dense(B))])
    got = sum_of_scaled_products(iter(terms))
    assert dense(got) == want
    assert_canonical(got)
    a, b = terms[0][1:]
    assert dense(a.mul(b)) == dense_mul(dense(a), dense(b))
    ab_minus_ba = dense_add(dense_mul(dense(a), dense(b)),
                            [[-v for v in row] for row in dense_mul(dense(b), dense(a))])
    assert dense_add(dense(a.mul(b)), [[-v for v in row] for row in dense(b.mul(a))]) == \
        ab_minus_ba
    ab, ba = dense_mul(dense(a), dense(b)), dense_mul(dense(b), dense(a))
    labels = COMMUTATOR_BASIS.labels()
    want = [{"bidegree": (0, 1), "row": labels[r], "col": labels[c],
             "lhs": format_scalar(ab[r][c]), "rhs": format_scalar(ba[r][c])}
            for c in range(DIM) for r in range(DIM) if ab[r][c] != ba[r][c]]
    assert commutator_items(GradedOperator(DIM, {0: a}), GradedOperator(DIM, {1: b}),
                            range(DIM), COMMUTATOR_BASIS, 0) == want[:3]
    with pytest.raises(ValueError, match="dimension mismatch"):
        sum_of_scaled_products([*terms, (F(1), a, SparseMatrix(DIM + 1))])


@st.composite
def monomials(draw):
    """(perm, weights) of an invertible monomial U e_c = weights[c] e_{perm[c]}
    on DIM states; with `unit_cycles` every cycle's weights multiply to 1,
    so that entries between different cycles can be covariant too."""
    perm = draw(st.permutations(range(DIM)))
    weights = draw(st.lists(NONZERO, min_size=DIM, max_size=DIM))
    if draw(st.booleans()):
        for c in range(DIM):
            cycle = [c]
            while perm[cycle[-1]] != c:
                cycle.append(perm[cycle[-1]])
            if c == min(cycle):
                weights[cycle[-1]] = F(1) / prod(weights[k] for k in cycle[:-1])
    return perm, weights


@st.composite
def covariant_graded(draw, perm, weights):
    """A graded operator commuting with U block by block: scaled powers of U,
    and seed entries carried around their orbits by
    B[perm r, perm c] = u_r B[r, c] / u_c, a seed kept when its orbit closes
    on the value it started from."""
    blocks = {}
    for k in range(draw(st.integers(0, 2)) + 1):
        acc = {}
        for power, c0 in draw(st.lists(st.tuples(st.integers(0, 2), SMALL), max_size=2)):
            for c in range(DIM):
                r, v = c, c0
                for _ in range(power):
                    r, v = perm[r], v * weights[r]
                acc[r, c] = acc.get((r, c), 0) + v
        for r0, c0, v0 in draw(st.lists(st.tuples(INDEX, INDEX, NONZERO), max_size=3)):
            orbit, (r, c, v) = {}, (r0, c0, v0)
            while (r, c) not in orbit:
                orbit[r, c] = v
                r, c, v = perm[r], perm[c], weights[r] * v / weights[c]
            if v == v0:
                for key, value in orbit.items():
                    acc[key] = acc.get(key, 0) + value
        blocks[k] = SparseMatrix.from_entries(DIM, ((r, c, v) for (r, c), v in acc.items()))
    return GradedOperator(DIM, blocks)


@SETTINGS
@given(monomials().flatmap(lambda u: st.tuples(st.just(u), covariant_graded(*u))),
       st.none() | st.tuples(st.integers(0, 2), INDEX, INDEX, NONZERO))
def test_covariance_items_decide_as_the_commutator_with_the_monomial(u_and_B, bump):
    # the one-pass covariance check and the commutator [U, B] through `mul`
    # give the same verdict, on covariant blocks and on blocks with one
    # entry bumped; each item it reports is a dense mismatch of U B and B U
    (perm, weights), B = u_and_B
    if bump is not None:
        k, r, c, v = bump
        B = B.add(GradedOperator(DIM, {k: SparseMatrix.from_entries(DIM, [(r, c, v)])}))
    U = SparseMatrix.from_entries(DIM, ((perm[c], c, w) for c, w in enumerate(weights)))
    items = covariance_items(B, perm, weights, COMMUTATOR_BASIS)
    if bump is None:
        assert items == []
    assert (items == []) == (commutator_items(GradedOperator(DIM, {0: U}), B, range(DIM),
                                              COMMUTATOR_BASIS, 0) == [])
    index = {label: i for i, label in enumerate(COMMUTATOR_BASIS.labels())}
    for item in items:
        assert set(item) == {"degree", "row", "col", "lhs", "rhs"}
        b = dense(B.block(item["degree"]))
        ub, bu = dense_mul(dense(U), b), dense_mul(b, dense(U))
        r, c = index[item["row"]], index[item["col"]]
        assert (item["lhs"], item["rhs"]) == (format_scalar(ub[r][c]), format_scalar(bu[r][c]))
        assert ub[r][c] != bu[r][c]


def test_covariance_items_reject_a_monomial_that_is_not_invertible():
    B = GradedOperator(DIM, {0: SparseMatrix.identity(DIM)})
    with pytest.raises(ValueError, match="not a permutation"):
        covariance_items(B, [0, 0, 1, 2], [1] * DIM, COMMUTATOR_BASIS)
    with pytest.raises(ValueError, match="invertible"):
        covariance_items(B, list(range(DIM)), [1, 0, 1, 1], COMMUTATOR_BASIS)


@SETTINGS
@given(matrices(), raw_matrices(), st.lists(st.tuples(SMALL | st.just(F(0)), matrices(),
                                                      raw_matrices()), min_size=1, max_size=3),
       st.sets(INDEX), st.integers(2, 6), st.integers(1, 5), st.integers(-5, 5))
def test_a_product_on_kept_columns_equals_the_kept_columns_of_the_product(a, b, terms, window,
                                                                          g, h, k):
    # the window checks form each product on the columns they compare only,
    # keeping them in its rightmost factor: (A B)[:, W] = A (B[:, W])
    got = a.mul(b.keep_columns(window))
    assert got == a.mul(b).keep_columns(window)
    assert_canonical(got)
    got = sum_of_scaled_products((c, A, B.keep_columns(window)) for c, A, B in terms)
    assert got == sum_of_scaled_products(terms).keep_columns(window)
    assert_canonical(got)
    assert got.stored_columns() <= window
    assert dense(b.keep_columns(window)) == [[v if c in window else F(0)
                                              for c, v in enumerate(row)] for row in dense(b)]
    # a W that drops nothing gives the same matrix, as a new object
    whole = b.keep_columns(window | b.stored_columns())
    assert whole == b and whole is not b
    assert_canonical(whole)
    # dropping column 0, which holds the only numerator coprime to the
    # denominator g h, leaves g k / (g h): the gcd g must come out
    m = SparseMatrix(DIM, {0: {0: 1}, 1: {DIM - 1: g * k}}, g * h)
    kept = m.keep_columns(window - {0})
    assert dense(kept) == [[v if c in window - {0} else F(0) for c, v in enumerate(row)]
                           for row in dense(m)]
    assert_canonical(kept)


@SETTINGS
@given(raw_matrices(), raw_matrices(), st.sets(INDEX, min_size=1), st.sets(INDEX, min_size=1),
       NONZERO, st.integers(0, 2 ** 64), st.booleans(), st.data())
def test_a_projection_sees_one_bumped_entry_and_the_product_route_names_it(a, b, cols, rows, v,
                                                                          seed, bumped, data):
    # C = A B, with one entry bumped by v inside the asserted rows and
    # columns or not at all: A (B x) and C x differ exactly at the bumped
    # row (x has no zero entry), and the product route names the entry
    r, c = data.draw(st.sampled_from(sorted(rows))), data.draw(st.sampled_from(sorted(cols)))
    ab = a.mul(b)
    C = ab.add(SparseMatrix.from_entries(DIM, [(r, c, v)])) if bumped else copy_of(ab)
    x = random_vector(cols, seed)
    assert set(x[1]) == cols and all(1 <= e <= 2 ** 30 for e in x[1].values())
    lhs, rhs = a.apply_ints(b.apply_ints(x)), C.apply_ints(x)
    differ = [row for row, *_ in _column_mismatches(lhs[1], lhs[0], rhs[1], rhs[0], rows)]
    assert differ == ([r] if bumped else [])

    def products():
        return mismatch_items(ab.mismatches(C, sorted(cols), rows), COMMUTATOR_BASIS, rel="AB=C")

    items = projected_items([({"rel": "AB=C"}, lhs, rhs)], rows, products)
    labels = COMMUTATOR_BASIS.labels()
    assert items == ([{"rel": "AB=C", "row": labels[r], "col": labels[c],
                       "lhs": format_scalar(ab.entry(r, c)),
                       "rhs": format_scalar(ab.entry(r, c) + v)}] if bumped else [])
    # the vectors a projection compares equal the dense products applied to x
    xs = [F(x[1].get(k, 0)) for k in range(DIM)]
    for (den, ints), M in ((lhs, ab), (rhs, C)):
        assert [F(ints.get(k, 0), den) for k in range(DIM)] == \
            [sum(M.entry(i, k) * xs[k] for k in range(DIM)) for i in range(DIM)]


@st.composite
def entry_lists(draw):
    """(degree, row, col, value) entries in any order: repeated positions,
    some negated copies (pairs that cancel) and some explicit zeros."""
    entries = draw(st.lists(st.tuples(st.integers(0, 2), INDEX, INDEX, VALUES),
                            max_size=3 * DIM))
    extra = [(k, r, c, -v) for k, r, c, v in entries] + \
            [(k, r, c, F(0)) for k, r, c, _ in entries]
    keep = draw(st.lists(st.booleans(), min_size=len(extra), max_size=len(extra)))
    return draw(st.permutations(entries + [e for e, b in zip(extra, keep) if b]))


@SETTINGS
@given(entry_lists())
def test_from_entries_equals_the_add_to_loop(entries):
    loop = {}
    for k, r, c, v in entries:
        loop.setdefault(k, SparseMatrix(DIM)).add_to(r, c, v)
        assert_canonical(loop[k])
    graded = GradedOperator.from_entries(DIM, iter(entries), 2)
    assert graded == GradedOperator(DIM, loop)
    assert graded.max_degree == 2
    assert sorted(graded.blocks) == sorted(k for k, m in loop.items() if not m.is_zero())
    for k in range(3):
        plain = SparseMatrix.from_entries(DIM, ((r, c, v) for d, r, c, v in entries if d == k))
        assert plain == loop.get(k, SparseMatrix(DIM))
        assert entry_map(plain) == entry_map(graded.block(k))
        assert_canonical(plain)
        assert_canonical(graded.block(k))


@st.composite
def ratio_lists(draw):
    """(degree, row, col, num, den) integer entries in any order, as the
    builders hand them: unreduced and negative denominators, and some
    copies of an entry at its position in another degree or, negated over
    a multiple of its denominator, cancelling it."""
    dens = st.integers(-12, 12).filter(bool)
    entries = draw(st.lists(st.tuples(st.integers(0, 2), INDEX, INDEX, st.integers(-6, 6), dens),
                            max_size=3 * DIM))
    extra = []
    for k, r, c, n, d in entries:
        s = draw(st.integers(-3, 3).filter(bool))
        extra += [((k + 1) % 3, r, c, draw(st.integers(-6, 6)), draw(dens)),
                  (k, r, c, -n * s, d * s)]
    keep = draw(st.lists(st.booleans(), min_size=len(extra), max_size=len(extra)))
    return draw(st.permutations(entries + [e for e, b in zip(extra, keep) if b]))


@SETTINGS
@given(ratio_lists())
def test_from_ratios_equals_the_literal_fraction_sum(entries):
    literal = {}
    for k, r, c, n, d in entries:
        literal[k, r, c] = literal.get((k, r, c), 0) + F(n, d)
    graded = GradedOperator.from_ratios(DIM, iter(entries), 2)
    assert graded.max_degree == 2
    assert sorted(graded.blocks) == sorted({k for (k, _, _), v in literal.items() if v})
    for k in range(3):
        plain = SparseMatrix.from_ratios(DIM, ((r, c, n, d) for j, r, c, n, d in entries
                                               if j == k))
        assert entry_map(plain) == {(r, c): v for (j, r, c), v in literal.items() if j == k and v}
        assert plain == graded.block(k)
        assert_canonical(plain)
        assert_canonical(graded.block(k))


@SETTINGS
@given(ratio_lists(), st.sampled_from([-1, DIM, DIM + 3]), st.booleans(), st.integers(0, 2),
       st.integers(-3, 3))
def test_from_ratios_rejects_an_index_outside_the_basis(entries, bad, in_row, k, n):
    wrong = (k, bad, 0, n, 5) if in_row else (k, 0, bad, n, 5)
    entries = entries + [wrong]
    with pytest.raises(ValueError, match="outside"):
        GradedOperator.from_ratios(DIM, entries, 2)
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix.from_ratios(DIM, (e[1:] for e in entries if e[0] == k))


@SETTINGS
@given(st.lists(graded_ops(2, MIXED), min_size=6, max_size=8), st.integers(0, 4),
       st.booleans())
def test_sum_of_products_of_three_or_more_pairs_equals_dense(ops, max_degree, cancel):
    pairs = list(zip(ops[0::2], ops[1::2]))  # 3 or 4 pairs
    if cancel:
        # the last pair cancels the first
        A, B = pairs[0]
        pairs[-1] = (A, B.scale(-1))
    got = sum_of_products(pairs, max_degree)
    want = [dense_zero() for _ in range(max_degree + 1)]
    for A, B in pairs:
        want = [dense_add(w, p) for w, p in zip(want, dense_cauchy(
            dense_blocks(A, max_degree), dense_blocks(B, max_degree), max_degree))]
    assert_graded_equals_dense(got, want, max_degree)


@SETTINGS
@given(matrices(), st.fractions(min_value=-3, max_value=3, max_denominator=7),
       st.lists(NONZERO, min_size=DIM, max_size=DIM),
       st.dictionaries(INDEX, NONZERO), st.dictionaries(INDEX, NONZERO))
def test_scale_conjugate_and_apply_equal_dense(a, factor, norms, vec, covec):
    d = dense(a)
    scaled = a.scale(factor)
    assert dense(scaled) == [[factor * v for v in row] for row in d]
    assert_canonical(scaled)
    conj = a.conjugate_by_norm(norms)
    assert dense(conj) == [[d[c][r] * norms[c] / norms[r] for c in range(DIM)]
                           for r in range(DIM)]
    assert_canonical(conj)
    # vectors come back as {index: nonzero reduced Fraction}
    applied = a.apply(vec)
    want = {r: sum((d[r][j] * v for j, v in vec.items()), F(0)) for r in range(DIM)}
    assert applied == {r: v for r, v in want.items() if v}
    row = a.apply_row(covec)
    want = {c: sum((v * d[r][c] for r, v in covec.items()), F(0)) for c in range(DIM)}
    assert row == {c: v for c, v in want.items() if v}
    assert all(type(v) is F for v in (*applied.values(), *row.values()))


def test_constructor_brings_any_integer_map_to_canonical_form():
    # zeros and empty columns dropped, numerators and den divided by their gcd
    m = SparseMatrix(3, {0: {0: 0, 1: 4}, 1: {}, 2: {2: -2}}, 6)
    assert m.den == 3 and m.nnz() == 2
    assert entry_map(m) == {(1, 0): F(2, 3), (2, 2): F(-1, 3)}
    assert m == SparseMatrix.from_entries(3, [(1, 0, F(2, 3)), (2, 2, F(-1, 3))])
    assert_canonical(m)
    # a zero stored anywhere leaves the zero matrix, equal to the empty one
    zero = SparseMatrix(3, {1: {2: 0}}, 5)
    assert zero.is_zero() and zero.nnz() == 0 and zero.den == 1
    assert zero == SparseMatrix(3)


@pytest.mark.parametrize("cols", [{5: {0: 1}}, {1: {7: 2}}, {-1: {0: 1}}, {0: {-1: 1}},
                                  {3: {0: 0}}, {3: {}}])
def test_constructor_rejects_an_index_outside_the_basis(cols):
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        SparseMatrix(3, cols)


@pytest.mark.parametrize("den", [0, -2, 1.0, F(1, 2), "3"])
def test_constructor_rejects_a_denominator_that_is_not_an_int_of_at_least_1(den):
    with pytest.raises(ValueError, match="denominator must be an int >= 1"):
        SparseMatrix(3, {0: {0: 1}}, den)


@pytest.mark.parametrize("value", [F(2), F(0), 1.5, "1", True])
def test_constructor_rejects_a_numerator_that_is_not_an_int(value):
    with pytest.raises(TypeError, match="must be an int"):
        SparseMatrix(3, {1: {0: value}})
    # the example of a map once taken as given: a zero at column 5, a
    # Fraction at row 7, both outside a 3-state basis
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix(3, {5: {0: F(0)}, 1: {7: F(2)}})


def test_from_entries_and_add_to_reject_an_index_outside_the_basis():
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix.from_entries(3, [(0, 3, F(1))])
    with pytest.raises(ValueError, match="outside"):
        GradedOperator.from_entries(3, [(1, -1, 0, F(1))], 2)
    with pytest.raises(ValueError, match="outside"):
        SparseMatrix(3).add_to(3, 0, F(1))
