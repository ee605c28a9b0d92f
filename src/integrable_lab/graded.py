"""Sparse exact matrices and z-graded operator families.

A GradedOperator is a finite family of sparse matrices A_k, standing for
the polynomial operator A(z) = sum_k z^k A_k on a fixed basis.  Absent
degrees are zero.  Composition is the Cauchy convolution of blocks and
always takes an explicit truncation degree; silently exceeding it is a
bug class this module refuses to host.

A SparseMatrix stores integer numerators over one denominator: `cols`
maps col -> {row: int} and `den` is an int, the matrix being cols / den.
The stored form is canonical: den >= 1, the gcd of den and every
numerator is 1, no zero is stored and no column is empty.  So two
matrices are equal exactly when their `den` and `cols` are, `entry` and
`entries` give reduced Fractions, and no other module reads the storage.
Every operation multiplies and adds Python ints into one accumulator over
a common denominator and brings the result back to canonical form once,
through `_canonical` (drop zeros, divide by one gcd), or, in
`keep_columns`, whose kept columns hold no zero, by dividing only.

Every check of the 16 suites (rll, pieri, hall-pieri, cauchy,
dual-cauchy, gamma-commute, gamma-eigen, tq, lambda-q, ar-project,
bethe, gaudin, lascoux, adjoint, gauge, paper-matrices) returns
(ok, failures), each item made by `mismatch_items` from the mismatches
of a matrix (`SparseMatrix.mismatches`), a vector (`vector_mismatches`),
a graded family (`graded_items`), a commutator (`commutator_items`), a
covariance (`covariance_items`) or a scalar (lhs, rhs) pair, which has
no basis and so no `row`/`col`.
Equal columns are skipped; otherwise only the
rows stored in either column are walked, a missing entry reading as
zero, and entries are compared by cross-multiplied numerators, so the
result is exactly the dense entrywise comparison at O(nnz) cost; a
Fraction is made only for an entry that is reported.

Operators that send each basis state to at most one target (site
operators, window shifts, diagonals, the translation) are all built by
`SparseMatrix.from_state_map`, which drops targets outside the basis
and, given a list of source indices, builds only those columns.

Every operator built entry by entry from combinatorial weights goes
through one entry accumulator, `SparseMatrix.from_ratios`, which sums
integer (numerator, denominator) entries: repeated positions add up over
the lcm of the denominators and zeros are dropped once, at the end.
`GradedOperator.from_ratios` groups its entries by degree and hands each
group to it, and `from_entries` (both classes) passes Fraction entries
on as their numerator and denominator, so builders that multiply
integers per entry (the transfer matrix, the Q-matrix and the auxiliary
Lax operator) make no Fraction per entry.

Sums of products are fused into one product kernel, `_add_product`:
`sum_of_scaled_products` adds c A B over a list of terms column by column
into one integer accumulator over the lcm of the terms' denominators,
and `sum_of_products` does the same per degree for graded pairs.
`GradedOperator.compose` is its one-pair case and every 2x2 monodromy
entry is one call; `SparseMatrix.mul` is the one-term ungraded case.

Identities with a symmetry are decided on one column per orbit.
`covariance_items` decides U B = B U for an invertible monomial
U e_c = u_c e_{pi(c)} in one pass over the stored entries of B,
comparing B[pi r, pi c] u_c with u_r B[r, c] on integers, with no
product.  That covariance is the precondition: when every operator of
an identity commutes with U, so does lhs - rhs = D, and with U
invertible D e_{pi(c)} = U D e_c / u_c, so D vanishes on a whole orbit
of pi once it vanishes on one column of it.  `commutator_items` and
`graded_items` then need only one column per orbit (the TQ relation and
the commutators of the transfer and Q-matrices, under the ring's
twisted translation, are decided so).

Product identities are decided by a seeded random projection
(Freivalds): to decide A B = C on the asserted columns W, compare
A (B x) with C x exactly, for one integer vector x on W drawn by
`random_vector(W, seed)`, each entry uniform on S = {1, ..., 2^30} from
`random.Random(seed)`, so a report is reproducible from its seed.  When
A B - C is nonzero on the asserted rows and W, some row of it is a
nonzero linear form in x, so the two vectors agree with probability at
most 1/|S| = 2^-30 (Schwartz-Zippel); equal products always agree,
arithmetic being exact.  Vectors are (den, {index: int}) pairs, ints
over den; the one mat-vec kernel `_mat_vec` applies an integer column
map to one (`SparseMatrix.apply_ints`, which `apply` also runs on),
`combination` adds scaled vectors over one denominator, and
`projected_items` compares the two sides of each identity through
`_column_mismatches`.  A passing check so forms no matrix product.
Where a projection differs, `column_items` localizes the failure with the
check's own sides: column c of A B is A (B e_c), so the sides applied to
each unit vector e_c, c in W, are column c of both products, and the
failure items are those of the full comparison on W, column by column,
rows ascending, as `SparseMatrix.mismatches` lists them.  Should no
column differ, the check still fails, with an item saying so.

An identity whose left factor is the large one, A B = C with A read in
full and B, C kept on the asserted columns W, is projected on the left
instead (Freivalds on the transpose): y^T A is formed once, for y drawn
on every row by `random_vector(range(dim), seed)`, and (y^T A) B is
compared with y^T C on W.  When A B - C is nonzero at (r, c), c in W,
(y^T (A B - C))_c is a nonzero linear form in y, missed with probability
at most 2^-30 as above.  The one covector kernel `_vec_mat` applies an
integer covector to an integer column map, one entry per stored column
(`SparseMatrix.apply_row_ints`, which `apply_row` also runs on), and
covectors are (den, {index: int}) pairs compared by `projected_items` as
vectors are.  The TQ relation, Lambda q = q(tz) + x z^N t^n q(z/t), is
decided so.  Its failure items still come from products: a unit covector
through `_vec_mat` visits every stored entry of A, so localizing row by
row would cost O(nnz A) per row.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .scalars import ONE, ZERO, as_scalar, format_scalar

_EMPTY = {}  # read-only stand-in for a column that stores nothing


def _add_product(acc: dict, acols: dict, bcols: dict, factor: int) -> None:
    """acc += factor * a @ b on integer column maps (col -> {row: int});
    zeros may remain.  The factor multiplies each entry of b once."""
    for c, bcol in bcols.items():
        tgt = acc.get(c)
        if tgt is None:
            tgt = acc[c] = {}
        for k, vb in bcol.items():
            acol = acols.get(k)
            if acol:
                vb *= factor
                for r, va in acol.items():
                    tgt[r] = tgt.get(r, 0) + va * vb


def _mat_vec(cols: dict, vec: dict) -> dict:
    """cols @ vec on integers: an integer column map (col -> {row: int})
    applied to an integer vector ({col: int}), as {row: int}; zeros may
    remain.  The one mat-vec kernel."""
    out = {}
    for j, a in vec.items():
        col = cols.get(j)
        if col:
            for r, v in col.items():
                out[r] = out.get(r, 0) + a * v
    return out


def _vec_mat(cols: dict, covec: dict) -> dict:
    """covec @ cols on integers: an integer covector ({row: int}) applied
    on the left of an integer column map (col -> {row: int}), as
    {col: int}, one entry per stored column; zeros may remain.  The one
    covector kernel."""
    out = {}
    get = covec.get
    for c, col in cols.items():
        acc = 0
        for r, v in col.items():
            acc += get(r, 0) * v
        out[c] = acc
    return out


def _add_scaled(acc: dict, cols: dict, factor: int) -> None:
    """acc += factor * cols on integer column maps; zeros may remain."""
    for c, col in cols.items():
        tgt = acc.get(c)
        if tgt is None:
            acc[c] = {r: v * factor for r, v in col.items()}
        else:
            for r, v in col.items():
                tgt[r] = tgt.get(r, 0) + v * factor


def _gcd_with(g: int, cols: dict) -> int:
    """gcd of g and every numerator of an integer column map, stopping at 1."""
    for col in cols.values():
        if g == 1:
            break
        g = gcd(g, *col.values())
    return g


def _canonical(acc: dict, den: int):
    """(cols, den) of the matrix acc / den (den >= 1) in canonical form:
    zeros and empty columns dropped, numerators and den divided by their gcd."""
    cols = {}
    for c, col in acc.items():
        if 0 in col.values():
            col = {r: v for r, v in col.items() if v}
        if col:
            cols[c] = col
    g = _gcd_with(den, cols)
    if g != 1:
        den //= g
        cols = {c: {r: v // g for r, v in col.items()} for c, col in cols.items()}
    return cols, den


def _reduced(dim: int, acc: dict, den: int) -> "SparseMatrix":
    return SparseMatrix._wrap(dim, *_canonical(acc, den))


def _check_indices(dim: int, acc: dict) -> None:
    """Reject a column map (no empty column) with an index outside [0, dim)."""
    if acc and not (0 <= min(acc) and max(acc) < dim
                    and 0 <= min(map(min, acc.values()))
                    and max(map(max, acc.values())) < dim):
        raise ValueError(f"index outside [0, {dim})")


def _products(dim: int, terms) -> "SparseMatrix":
    """sum of c A B over (c, A, B) in terms (c an int or Fraction), added
    into one integer accumulator over the lcm of c.denominator A.den B.den."""
    terms = [(c.numerator, c.denominator * A.den * B.den, A.cols, B.cols)
             for c, A, B in terms if c]
    den = lcm(*(d for _, d, _, _ in terms))
    acc = {}
    for n, d, acols, bcols in terms:
        _add_product(acc, acols, bcols, n * (den // d))
    return _reduced(dim, acc, den)


def _over_lcm(vec: dict):
    """(d, {index: int}) with vec[j] == ints[j] / d, d the lcm of the
    denominators of a sparse vector of Fractions."""
    d = lcm(*(v.denominator for v in vec.values()))
    return d, {j: v.numerator * (d // v.denominator) for j, v in vec.items()}


def _column_mismatches(a: dict, da, b: dict, db, rows) -> list:
    """(row, a entry, b entry) for every differing entry of two row maps of
    numerators over da and db, compared cross-multiplied, rows ascending
    (only those in the set `rows`, when given); reported entries as Fractions."""
    out = []
    same = da == db
    for r in sorted(a.keys() | b.keys()):
        if rows is None or r in rows:
            va, vb = a.get(r, 0), b.get(r, 0)
            if va != vb if same else va * db != vb * da:
                out.append((r, Fraction(va, da), Fraction(vb, db)))
    return out


def vector_mismatches(a: dict, b: dict, rows=None) -> list:
    """(row, a entry, b entry) for every differing entry of two row maps of
    Fractions, rows ascending (only those in the set `rows`, when given)."""
    return _column_mismatches(a, 1, b, 1, rows)


# entries of a projection vector are drawn uniformly from {1, ..., 2^_DRAW_BITS}
_DRAW_BITS = 30


def random_vector(cols, seed: int) -> tuple:
    """The vector (1, {c: x_c}) on the indices `cols`, each x_c drawn
    uniformly from S = {1, ..., 2^30} by random.Random(seed), in ascending
    index order: a nonzero difference of two products is missed by its
    projection on x with probability at most 1/|S| (module docstring)."""
    rng = random.Random(seed)
    return 1, {c: 1 + rng.getrandbits(_DRAW_BITS) for c in sorted(cols)}


def combination(terms) -> tuple:
    """sum of c v over (c, v) in terms, c an int or Fraction and v a vector
    (den, {index: int}), as one vector over the lcm of the c.denominator
    den; zeros may remain."""
    terms = [(c.numerator, c.denominator * d, ints) for c, (d, ints) in terms if c]
    den = lcm(*(d for _, d, _ in terms))  # 1 for no term: the zero vector
    out = {}
    for n, d, ints in terms:
        f = n * (den // d)
        for r, v in ints.items():
            out[r] = out.get(r, 0) + v * f
    return den, out


def projected_items(sides, rows, products) -> list:
    """Failure items of identities decided on a random projection.

    `sides` yields (where, lhs, rhs): lhs and rhs are the two sides of one
    identity applied to the drawn vector, as vectors (den, {row: int}),
    compared on the set `rows` (every row when None) through
    `_column_mismatches`.  When every pair agrees there are none.  At the
    first pair that differs the rest are not formed, and the items are
    products(), the check's full comparison (`column_items` for a right
    projection); when that finds nothing, the check still fails, with one
    item tagged with that pair's `where` keys and `projection`."""
    for where, (da, a), (db, b) in sides:
        if _column_mismatches(a, da, b, db, rows):
            return products() or [dict(where, projection="differs; no product entry does")]
    return []


def column_items(sides, cols, rows, basis) -> list:
    """Failure items of the identities that sides(x) applies to a vector x,
    as `projected_items` takes them, compared column by column: column c
    of A B is A (B e_c), so sides((1, {c: 1})) yields column c of each
    side, for each c in `cols`, in that order.  The two are compared on
    the set `rows` (every row when None) through `_column_mismatches`, and
    the differing entries are grouped by the identity's `where` keys,
    column by column with rows ascending, as `SparseMatrix.mismatches`
    lists them; each identity gives its `mismatch_items`, in the order
    `sides` yields them."""
    found = {}
    for c in cols:
        for where, (da, a), (db, b) in sides((1, {c: 1})):
            entries = found.setdefault(tuple(where.items()), (where, []))[1]
            entries += [(r, c, va, vb) for r, va, vb in _column_mismatches(a, da, b, db, rows)]
    return [item for where, entries in found.values()
            for item in mismatch_items(entries, basis, **where)]


def mismatch_items(found, basis, **where) -> list:
    """The first three of `found` as report items: the `where` keys, the
    basis labels `row` (and `col` for a matrix; none for a scalar pair,
    passed with no basis), `lhs` and `rhs` as "p/q"."""
    items = []
    for *at, lhs, rhs in found[:3]:
        item = dict(where)
        item.update(zip(("row", "col"), (basis.label(basis.states[i]) for i in at)))
        item["lhs"], item["rhs"] = format_scalar(lhs), format_scalar(rhs)
        items.append(item)
    return items


def graded_items(lhs, rhs, top: int, cols, basis, **where) -> list:
    """Failure items of lhs_k = rhs_k on the columns `cols`, for every
    degree k <= top (blocks above top are not asserted), each item tagged
    with the `where` keys and its `degree`."""
    return [item for k in range(top + 1)
            for item in mismatch_items(lhs.block(k).mismatches(rhs.block(k), cols),
                                       basis, **where, degree=k)]


def commutator_items(A, B, cols, basis, seed: int, **where) -> list:
    """Failure items of [A(z1), B(z2)] = 0 on the columns `cols`, for
    every block pair, tagged `bidegree` (i, j): A_i (B_j x) against
    B_j (A_i x) for x = random_vector(cols, seed), each A_i x and B_j x
    formed once, so a pair that commutes costs two mat-vecs and no
    product.  Where a projection differs, `column_items` gives the entries
    of A_i B_j (`lhs`) and B_j A_i (`rhs`) on `cols`.  A self-commutator
    visits only i < j: (j, i) is (i, j) swapped, and (i, i) commutes
    trivially."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    cols = list(cols)

    def sides(x):
        ax = {i: a.apply_ints(x) for i, a in A.blocks.items()}
        bx = ax if A is B else {j: b.apply_ints(x) for j, b in B.blocks.items()}
        for i, a in A.blocks.items():
            for j, b in B.blocks.items():
                if A is not B or i < j:
                    yield dict(where, bidegree=(i, j)), a.apply_ints(bx[j]), b.apply_ints(ax[i])

    return projected_items(sides(random_vector(cols, seed)), None,
                           lambda: column_items(sides, cols, None, basis))


def _covariance_mismatches(m: "SparseMatrix", perm, nums, dens) -> list:
    """(row, col, (U m) entry, (m U) entry) wherever a stored entry m[r, c]
    and its image m[perm r, perm c] break U m = m U, for the monomial
    U e_c = (nums[c] / dens[c]) e_{perm[c]}: the two sides at
    (perm r, c) read u_r m[r, c] and m[perm r, perm c] u_c, compared
    cross-multiplied on the numerators, column by column, rows ascending."""
    found = []
    den = m.den
    for c, col in m.cols.items():
        image = m.cols.get(perm[c], _EMPTY)
        nc, dc = nums[c], dens[c]
        for r, v in col.items():
            w = image.get(perm[r], 0)
            if v * nums[r] * dc != w * nc * dens[r]:
                found.append((perm[r], c, Fraction(v * nums[r], den * dens[r]),
                              Fraction(w * nc, den * dc)))
    found.sort(key=lambda e: (e[1], e[0]))
    return found


def covariance_items(B, perm, weights, basis, **where) -> list:
    """Failure items of U B(z) = B(z) U, for the invertible monomial
    U e_c = weights[c] e_{perm[c]} (perm a permutation of the basis
    indices, no weight zero): U B_k (`lhs`) against B_k U (`rhs`) for
    every block, tagged `degree`, as `commutator_items` of U and B would
    decide it, but in one pass over the stored entries of B, on integers,
    with no product.

    Each stored entry B[r, c] is compared with B[perm r, perm c] as
    B[perm r, perm c] u_c = u_r B[r, c].  Entries that B does not store
    need no visit: along the cycle of (r, c) under perm a nonzero entry
    followed by a zero one breaks the relation at the stored entry, since
    no weight is zero.  Only such mismatches are reported, so the items
    are a subset of the commutator's; the verdict is the same.
    """
    if len(perm) != B.dim or set(perm) != set(range(B.dim)):
        raise ValueError(f"perm is not a permutation of the {B.dim} basis indices")
    if len(weights) != B.dim or any(w == 0 for w in weights):
        raise ValueError("U must be invertible: one nonzero weight per basis index")
    nums = [w.numerator for w in weights]
    dens = [w.denominator for w in weights]
    return [item for k in sorted(B.blocks)
            for item in mismatch_items(_covariance_mismatches(B.blocks[k], perm, nums, dens),
                                       basis, **where, degree=k)]


class SparseMatrix:
    """Square sparse matrix over Q: integer numerators per column (col ->
    {row: int}) over one denominator `den`, always in canonical form (see
    the module docstring).

    The constructor takes any integer column map and denominator, drops
    zeros and empty columns and divides by the gcd; it rejects an index
    outside [0, dim), a denominator below 1 and a numerator that is not
    an int.
    """

    __slots__ = ("dim", "cols", "den")

    def __init__(self, dim: int, cols=None, den: int = 1):
        if type(den) is not int or den < 1:
            raise ValueError(f"denominator must be an int >= 1, got {den!r}")
        acc = {}
        for c, col in (cols or {}).items():
            if not 0 <= c < dim:
                raise ValueError(f"column {c} outside [0, {dim})")
            for r, v in col.items():
                if not 0 <= r < dim:
                    raise ValueError(f"entry ({r}, {c}) outside [0, {dim})")
                if type(v) is not int:
                    raise TypeError(f"numerator at ({r}, {c}) must be an int, got {v!r}")
            acc[c] = dict(col)
        self.dim = dim
        self.cols, self.den = _canonical(acc, den)

    @classmethod
    def _wrap(cls, dim: int, cols: dict, den: int) -> "SparseMatrix":
        """The matrix cols / den, already in canonical form (not checked)."""
        m = cls.__new__(cls)
        m.dim, m.cols, m.den = dim, cols, den
        return m

    @classmethod
    def identity(cls, dim: int, sources=None) -> "SparseMatrix":
        """The identity, or only its columns at the indices `sources`."""
        if sources is None:
            sources = range(dim)
        elif any(not 0 <= j < dim for j in sources):
            raise ValueError(f"source index outside the basis of {dim} states")
        return cls._wrap(dim, {j: {j: 1} for j in sources}, 1)

    @classmethod
    def from_state_map(cls, basis, fn, sources=None) -> "SparseMatrix":
        """Matrix sending each basis state to at most one target.

        fn(state) returns (target state, value) or None.  A target outside
        the basis, or a zero value, leaves that column empty, so edge drops
        need no test in fn and no zero is stored.  With `sources` (basis
        indices) only those columns are built, so a factor that only some
        columns of a product read costs those columns, not the basis; an
        index outside the basis raises ValueError.
        """
        index, states = basis.index, basis.states
        if sources is None:
            sources = range(len(states))
        elif any(not 0 <= j < len(states) for j in sources):
            raise ValueError(f"source index outside the basis of {len(states)} states")

        hits = {}  # a source listed twice is one column
        for j in sources:
            hit = fn(states[j])
            if hit is not None:
                i = index.get(hit[0])
                if i is not None:
                    hits[j] = i, as_scalar(hit[1])
        den = lcm(*(v.denominator for _, v in hits.values()))
        return _reduced(len(states), {j: {i: v.numerator * (den // v.denominator)}
                                      for j, (i, v) in hits.items()}, den)

    @classmethod
    def from_entries(cls, dim: int, entries) -> "SparseMatrix":
        """Sum of (row, col, value) entries, values ints or Fractions, as
        in `from_ratios`."""
        return cls.from_ratios(dim, ((r, c, v.numerator, v.denominator) for r, c, v in entries))

    @classmethod
    def from_ratios(cls, dim: int, entries) -> "SparseMatrix":
        """Sum of (row, col, num, den) entries, each the value num/den of
        two ints (den nonzero): numerators add up over the lcm of the
        denominators, so no Fraction is made per entry, and zeros, given or
        cancelled, are dropped once, at the end.  The one entry accumulator:
        `GradedOperator.from_ratios` hands it each degree."""
        entries = list(entries)
        dens = {d for _, _, _, d in entries}
        den = lcm(*dens)
        scale = {d: den // d for d in dens}
        acc = {}
        for r, c, n, d in entries:
            col = acc.get(c)
            n *= scale[d]
            if col is None:
                acc[c] = {r: n}
            else:
                col[r] = col.get(r, 0) + n
        _check_indices(dim, acc)
        return _reduced(dim, acc, den)

    def entry(self, row: int, col: int) -> Fraction:
        v = self.cols.get(col, _EMPTY).get(row)
        return ZERO if v is None else Fraction(v, self.den)

    def add_to(self, row: int, col: int, value) -> None:
        """Add `value` at (row, col) in place.  O(nnz): the sum is brought
        back to canonical form, over a new denominator when it changes."""
        if not (0 <= row < self.dim and 0 <= col < self.dim):
            raise ValueError(f"entry ({row}, {col}) outside [0, {self.dim})")
        value = as_scalar(value)
        if value == 0:
            return
        den = lcm(self.den, value.denominator)
        cols = dict(self.cols)
        if den != self.den:
            f = den // self.den
            cols = {c: {r: v * f for r, v in cl.items()} for c, cl in cols.items()}
        column = dict(cols.get(col, _EMPTY))  # columns may be shared: never edit one
        column[row] = column.get(row, 0) + value.numerator * (den // value.denominator)
        cols[col] = column
        self.cols, self.den = _canonical(cols, den)

    def is_zero(self) -> bool:
        return not self.cols

    def nnz(self) -> int:
        return sum(map(len, self.cols.values()))

    def entries(self):
        """(row, col, value) for every stored entry, values as Fractions."""
        den = self.den
        for c, col in self.cols.items():
            for r, v in col.items():
                yield r, c, Fraction(v, den)

    def stored_rows(self) -> set:
        """Indices of the rows that store an entry."""
        return set().union(*self.cols.values())

    def stored_columns(self) -> set:
        """Indices of the columns that store an entry."""
        return set(self.cols)

    def keep_columns(self, cols) -> "SparseMatrix":
        """This matrix with every column outside the set `cols` zeroed, in
        canonical form again: the kept columns store no zero, so only the
        gcd with the denominator can change, and only when a column is
        dropped."""
        kept = {c: col for c, col in self.cols.items() if c in cols}
        g = 1 if len(kept) == len(self.cols) else _gcd_with(self.den, kept)
        if g != 1:
            kept = {c: {r: v // g for r, v in col.items()} for c, col in kept.items()}
        return SparseMatrix._wrap(self.dim, kept, self.den // g)

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other (other acts first on kets): one-term `sum_of_scaled_products`."""
        return sum_of_scaled_products([(ONE, self, other)])

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        acc = {}
        _add_scaled(acc, self.cols, den // self.den)
        _add_scaled(acc, other.cols, den // other.den)
        return _reduced(self.dim, acc, den)

    def scale(self, factor) -> "SparseMatrix":
        """factor * self in one pass: with factor = p/q in lowest terms, the
        gcd of den q and the numerators times p is gcd(den, p) gcd(q, numerators)."""
        factor = as_scalar(factor)
        p, q = factor.numerator, factor.denominator
        if p == 0:
            return SparseMatrix(self.dim)
        g1, g2 = gcd(self.den, p), _gcd_with(q, self.cols)
        p //= g1
        return SparseMatrix._wrap(self.dim, {c: {r: v // g2 * p for r, v in col.items()}
                                             for c, col in self.cols.items()},
                                  self.den // g1 * (q // g2))

    def conjugate_by_norm(self, norms) -> "SparseMatrix":
        """N^-1 A^T N for a diagonal N given as a list of nonzero Fractions."""
        if len(norms) != self.dim:
            raise ValueError("norm vector length mismatch")
        norms = [as_scalar(v) for v in norms]
        if any(v == 0 for v in norms):
            raise ValueError("zero norm entry")
        # (N^-1 A^T N)[c, r] = A[r, c] * norm_r / norm_c, one ratio per entry
        p = [v.numerator for v in norms]
        q = [v.denominator for v in norms]
        den = self.den
        return SparseMatrix.from_ratios(self.dim, ((c, r, v * p[r] * q[c], den * q[r] * p[c])
                                                   for c, col in self.cols.items()
                                                   for r, v in col.items()))

    def apply(self, vec: dict) -> dict:
        """Apply to a sparse vector {index: Fraction}, on integers: the
        vector is taken over the lcm D of its denominators, and each output
        entry is one Fraction over den D."""
        den, out = self.apply_ints(_over_lcm(vec))
        return {r: Fraction(v, den) for r, v in out.items() if v}

    def apply_ints(self, vec: tuple) -> tuple:
        """Apply to a vector (d, {index: int}), standing for ints / d, through
        the mat-vec kernel: (den d, {row: int}), zeros may remain."""
        d, ints = vec
        return self.den * d, _mat_vec(self.cols, ints)

    def apply_row(self, covec: dict) -> dict:
        """Apply a sparse covector {index: Fraction} on the left, (covec . A),
        on integers as `apply` does, through `apply_row_ints`."""
        den, out = self.apply_row_ints(_over_lcm(covec))
        return {c: Fraction(v, den) for c, v in out.items() if v}

    def apply_row_ints(self, covec: tuple) -> tuple:
        """Apply a covector (d, {index: int}), standing for ints / d, on the
        left through the covector kernel: (den d, {col: int}), one entry per
        stored column, zeros may remain."""
        d, ints = covec
        return self.den * d, _vec_mat(self.cols, ints)

    def mismatches(self, other: "SparseMatrix", cols) -> list:
        """(row, col, self entry, other entry) for every differing entry.

        Only the given columns are compared.  Results come column by
        column in the order of `cols`, rows ascending, as a dense
        entrywise loop would find them.
        """
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        da, db = self.den, other.den
        if da == db and self.cols == other.cols:
            return []  # equal canonical forms differ nowhere
        out = []
        for c in cols:
            a, b = self.cols.get(c, _EMPTY), other.cols.get(c, _EMPTY)
            if da != db or a != b:  # an equal column needs no sorting
                out += [(r, c, va, vb) for r, va, vb in _column_mismatches(a, da, b, db, None)]
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix) or self.dim != other.dim:
            return NotImplemented
        return self.den == other.den and self.cols == other.cols

    __hash__ = None  # mutable

    def __repr__(self):
        return f"SparseMatrix(dim={self.dim}, nnz={self.nnz()})"


class GradedOperator:
    """Finite z-graded family of sparse matrices on a common basis; a
    nonzero block above a given `max_degree` is rejected."""

    def __init__(self, dim: int, blocks=None, max_degree=None):
        self.dim = dim
        self.blocks = {}
        if blocks:
            for k, m in blocks.items():
                if k < 0:
                    raise ValueError("negative degree")
                if m.dim != dim:
                    raise ValueError("dimension mismatch")
                if m.is_zero():
                    continue
                if max_degree is not None and k > max_degree:
                    raise ValueError(f"block of degree {k} above max_degree {max_degree}")
                self.blocks[k] = m
        self.max_degree = max_degree if max_degree is not None else \
            (max(self.blocks) if self.blocks else 0)

    @classmethod
    def from_entries(cls, dim: int, entries, max_degree: int) -> "GradedOperator":
        """Sum of (degree, row, col, value) entries, values ints or
        Fractions, as in `SparseMatrix.from_entries`; a degree keeps a
        block only when it has a nonzero entry."""
        return cls.from_ratios(dim, ((k, r, c, v.numerator, v.denominator)
                                     for k, r, c, v in entries), max_degree)

    @classmethod
    def from_ratios(cls, dim: int, entries, max_degree: int) -> "GradedOperator":
        """Sum of (degree, row, col, num, den) entries, each the value
        num/den of two ints: the entries are grouped by degree and each
        group is one `SparseMatrix.from_ratios`."""
        groups = {}
        for k, r, c, n, d in entries:
            groups.setdefault(k, []).append((r, c, n, d))
        return cls(dim, {k: SparseMatrix.from_ratios(dim, group) for k, group in groups.items()},
                   max_degree=max_degree)

    def block(self, k: int) -> SparseMatrix:
        m = self.blocks.get(k)
        return SparseMatrix(self.dim) if m is None else m

    def degrees(self):
        return sorted(self.blocks)

    def compose(self, other: "GradedOperator", max_degree: int) -> "GradedOperator":
        """Cauchy product truncated at max_degree (explicit, always)."""
        return sum_of_products([(self, other)], max_degree)

    def add(self, other: "GradedOperator") -> "GradedOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.blocks)
        for k, m in other.blocks.items():
            out[k] = out[k].add(m) if k in out else m
        return GradedOperator(self.dim, out,
                              max_degree=max(self.max_degree, other.max_degree))

    def scale(self, factor) -> "GradedOperator":
        return GradedOperator(self.dim, {k: m.scale(factor) for k, m in self.blocks.items()},
                              max_degree=self.max_degree)

    def shift(self, k0: int) -> "GradedOperator":
        """Multiply by z^k0: degree k -> k + k0."""
        if k0 < 0:
            raise ValueError("negative shift")
        return GradedOperator(self.dim, {k + k0: m for k, m in self.blocks.items()},
                              max_degree=self.max_degree + k0)

    def eval_at(self, z) -> SparseMatrix:
        """A(z) = sum_k z^k A_k, with z = p/q: block k adds p^k times its
        numerators over q^k den_k, all in one accumulator over their lcm."""
        z = as_scalar(z)
        p, q = z.numerator, z.denominator
        terms = [(p ** k, q ** k * m.den, m.cols) for k, m in self.blocks.items()]
        den = lcm(*(d for _, d, _ in terms))
        acc = {}
        for n, d, cols in terms:
            if n:
                _add_scaled(acc, cols, n * (den // d))
        return _reduced(self.dim, acc, den)

    def restrict(self, mapping: dict, dim: int, max_degree: int) -> "GradedOperator":
        """Entries whose row and column both lie in `mapping` (old index ->
        new index), relabelled onto a basis of size dim; the rest dropped.
        Entries mapped to one position add up; a new index outside [0, dim)
        raises ValueError."""
        if any(not 0 <= j < dim for j in mapping.values()):
            raise ValueError(f"mapped index outside [0, {dim})")
        return GradedOperator.from_ratios(
            dim, ((k, mapping[r], mapping[c], v, m.den) for k, m in self.blocks.items()
                  for c, col in m.cols.items() if c in mapping
                  for r, v in col.items() if r in mapping), max_degree)

    def bar_adjoint(self, norms) -> "GradedOperator":
        """Blockwise N^-1 A_k^T N.

        Degree reindexing under z -> 1/z is left to the caller (compare
        against the operator rebuilt at bar-substituted parameters,
        reflected with `reflect` where the identity says so).
        """
        return GradedOperator(self.dim,
                              {k: m.conjugate_by_norm(norms) for k, m in self.blocks.items()},
                              max_degree=self.max_degree)

    def reflect(self, top: int) -> "GradedOperator":
        """Degree reflection k -> top - k (for z -> 1/z comparisons)."""
        out = {}
        for k, m in self.blocks.items():
            if top - k < 0:
                raise ValueError("reflection would produce a negative degree")
            out[top - k] = m
        return GradedOperator(self.dim, out, max_degree=top)

    def __eq__(self, other):
        if not isinstance(other, GradedOperator) or self.dim != other.dim:
            return NotImplemented
        keys = set(self.blocks) | set(other.blocks)
        return all(self.block(k) == other.block(k) for k in keys)

    __hash__ = None  # mutable

    def __repr__(self):
        return f"GradedOperator(dim={self.dim}, degrees={self.degrees()})"


def sum_of_products(pairs, max_degree: int) -> GradedOperator:
    """sum over (A, B) in pairs (not empty) of the Cauchy product A B,
    truncated at max_degree (explicit, always): every block product A_i B_j
    with i + j = k <= max_degree adds into one integer accumulator of
    degree k, so no block product is built on its own."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("sum_of_products of no pairs")
    dim = pairs[0][0].dim
    if any(A.dim != dim or B.dim != dim for A, B in pairs):
        raise ValueError("dimension mismatch")
    terms = {}  # degree -> [(1, A_i, B_j)]
    for A, B in pairs:
        for i, a in A.blocks.items():
            for j, b in B.blocks.items():
                if i + j <= max_degree:
                    terms.setdefault(i + j, []).append((1, a, b))
    return GradedOperator(dim, {k: _products(dim, products) for k, products in terms.items()},
                          max_degree=max_degree)


def sum_of_scaled_products(terms) -> SparseMatrix:
    """sum over (c, A, B) in terms (not empty) of c A B, added column by
    column into one integer accumulator; zeros are dropped once, at the end."""
    terms = list(terms)
    if not terms:
        raise ValueError("sum_of_scaled_products of no terms")
    dim = terms[0][1].dim
    if any(A.dim != dim or B.dim != dim for _, A, B in terms):
        raise ValueError("dimension mismatch")
    return _products(dim, terms)


def matrix_dump(op: GradedOperator, basis, name: str, metadata=None) -> dict:
    """JSON-ready dump: basis labels plus (degree, row, col, "p/q") entries."""
    entries = []
    for k in op.degrees():
        for r, c, v in sorted(op.block(k).entries(), key=lambda e: (e[0], e[1])):
            entries.append({"degree": k, "row": r, "col": c, "value": format_scalar(v)})
    dump = {
        "name": name,
        "basis": basis.labels(),
        "orientation": "rows are targets, columns are sources",
        "entries": entries,
    }
    if metadata:
        dump["metadata"] = metadata
    return dump
