"""Sparse exact matrices and z-graded operator families.

A GradedOperator is a finite family of sparse matrices A_k, standing for
the polynomial operator A(z) = sum_k z^k A_k on a fixed basis.  Absent
degrees are zero.  Composition is the Cauchy convolution of blocks and
always takes an explicit truncation degree; silently exceeding it is a
bug class this module refuses to host.

Sparse storage is per-column (col -> {row: Fraction}); transfer matrices
are interlacing-sparse so zero entries are never stored.

Every exact identity check (lhs equals rhs on the columns, and
optionally rows, whose intermediate states stay inside the truncated
basis) is decided by `SparseMatrix.mismatches`, or for vectors by its
per-column `vector_mismatches`, and reports its first three failures
through `mismatch_items`.  Equal columns are skipped; otherwise only the
rows stored in either column are walked, a missing entry reading as
zero, so the result is exactly the dense entrywise comparison at O(nnz)
cost.

Operators that send each basis state to at most one target (site
operators, window shifts, diagonals, the translation) are all built by
`SparseMatrix.from_state_map`, which drops targets outside the basis
and, given a list of source indices, builds only those columns.

Every operator built entry by entry from combinatorial weights (transfer
matrices from runs of hops, the Q-matrix from label chains, the half
vertex operators from Pieri coefficients, relabellings) is built by
`SparseMatrix.from_entries` or `GradedOperator.from_entries`: the
builder yields its entries, repeated positions add up and zeros are
dropped once, at the end.

Sums of products are fused: `sum_of_products` adds every block product
of a list of graded pairs column by column into one accumulator per
degree.  `GradedOperator.compose` is its one-pair case and every 2x2
monodromy entry is one call; `add` and `eval_at` share the same column
accumulators.  The graded sum is fraction-free: each block is taken as
integer numerators over the lcm of its denominators (the left factor
only on the columns the right factor's rows read), each degree
accumulates over one common denominator in Python ints, and one
reduced Fraction is made per nonzero output entry.  A Cauchy product of
sector operators makes several block products per output entry (the TQ
compose ~8), so one gcd per output beats one per product.

The ungraded sides of exchange relations (RLL = LLR, the Toda
intertwining, the vertex-operator exchange factors) are fused the same
way by `sum_of_scaled_products` (sum of c A B, c applied once per entry
of B), through the same product loop but on Fractions: there products
are about as many as output entries, so converting would not pay.
`SparseMatrix.mul` is its one-term case, and a commutator is decided
as AB == BA, both products through `mul`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import ONE, ZERO, as_scalar, format_scalar


def _add_product(acc: dict, acols: dict, bcols: dict, factor=ONE) -> None:
    """acc += factor * a @ b on column maps (col -> {row: value}) of any exact
    number type; zeros may remain.  The factor multiplies each entry of b
    once, and only if it is not 1."""
    scaled = factor != 1
    for c, bcol in bcols.items():
        tgt = acc.get(c)
        if tgt is None:
            tgt = acc[c] = {}
        for k, vb in bcol.items():
            acol = acols.get(k)
            if acol:
                if scaled:
                    vb = vb * factor
                for r, va in acol.items():
                    old = tgt.get(r)
                    tgt[r] = va * vb if old is None else old + va * vb


def _add_scaled(acc: dict, m: "SparseMatrix", factor=ONE) -> None:
    """acc += factor * m on a column map; zeros may remain."""
    scaled = factor != 1
    for c, col in m.cols.items():
        tgt = acc.get(c)
        if tgt is None:
            tgt = acc[c] = {}
        for r, v in col.items():
            if scaled:
                v = v * factor
            old = tgt.get(r)
            tgt[r] = v if old is None else old + v


def _nonzero(acc: dict) -> dict:
    """The column map without its zero entries and empty columns."""
    out = {}
    for c, col in acc.items():
        col = {r: v for r, v in col.items() if v}
        if col:
            out[c] = col
    return out


def _over_common_denominator(cols: dict, keep=None):
    """(d, integer column map n) with cols[c][r] == n[c][r] / d on the kept
    columns (all, or those in the set `keep`), d the lcm of their denominators."""
    if keep is not None:
        cols = {c: cols[c] for c in cols.keys() & keep}
    d = lcm(*{v.denominator for col in cols.values() for v in col.values()})
    return d, {c: {r: v.numerator * (d // v.denominator) for r, v in col.items()}
               for c, col in cols.items()}


def _nonzero_over(acc: dict, d: int) -> dict:
    """The column map of Fraction(v, d) over the nonzero entries v of an
    integer accumulator, without empty columns."""
    out = {}
    for c, col in acc.items():
        col = {r: Fraction(v, d) for r, v in col.items() if v}
        if col:
            out[c] = col
    return out


def vector_mismatches(a: dict, b: dict, rows=None) -> list:
    """(row, a entry, b entry) for every differing entry of two row maps,
    rows ascending (only those in the set `rows`, when given)."""
    out = []
    for r in sorted(a.keys() | b.keys()):
        if rows is None or r in rows:
            va, vb = a.get(r, ZERO), b.get(r, ZERO)
            if va != vb:
                out.append((r, va, vb))
    return out


def mismatch_items(found, basis, **where) -> list:
    """The first three of `found` as report items: the `where` keys, the
    basis labels `row` (and `col` for a matrix), `lhs` and `rhs` as "p/q"."""
    items = []
    for *at, lhs, rhs in found[:3]:
        item = dict(where)
        item.update(zip(("row", "col"), (basis.label(basis.states[i]) for i in at)))
        item["lhs"], item["rhs"] = format_scalar(lhs), format_scalar(rhs)
        items.append(item)
    return items


class SparseMatrix:
    """Square sparse matrix over Fractions, stored as per-column row maps."""

    def __init__(self, dim: int, cols=None):
        self.dim = dim
        self.cols = {} if cols is None else cols

    @classmethod
    def identity(cls, dim: int, sources=None) -> "SparseMatrix":
        """The identity, or only its columns at the indices `sources`."""
        return cls(dim, {j: {j: ONE} for j in (range(dim) if sources is None else sources)})

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
        cols = {}
        for j in sources:
            hit = fn(states[j])
            if hit is not None:
                i = index.get(hit[0])
                if i is not None:
                    value = as_scalar(hit[1])
                    if value:
                        cols[j] = {i: value}
        return cls(len(basis.states), cols)

    @classmethod
    def from_entries(cls, dim: int, entries) -> "SparseMatrix":
        """Sum of (row, col, value) entries: a repeated position adds up,
        and zeros, given or cancelled, are dropped once, at the end."""
        acc = {}
        for r, c, v in entries:
            col = acc.get(c)
            if col is None:
                acc[c] = {r: v}
            else:
                old = col.get(r)
                col[r] = v if old is None else old + v
        return cls(dim, _nonzero(acc))

    def entry(self, row: int, col: int) -> Fraction:
        return self.cols.get(col, {}).get(row, ZERO)

    def add_to(self, row: int, col: int, value) -> None:
        value = as_scalar(value)
        if value == 0:
            return
        col_map = self.cols.setdefault(col, {})
        new = col_map.get(row, ZERO) + value
        if new == 0:
            col_map.pop(row, None)
            if not col_map:
                self.cols.pop(col, None)
        else:
            col_map[row] = new

    def is_zero(self) -> bool:
        return all(not col for col in self.cols.values())

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols.values())

    def entries(self):
        for c, col in self.cols.items():
            for r, v in col.items():
                yield r, c, v

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other (other acts first on kets): one-term `sum_of_scaled_products`."""
        return sum_of_scaled_products([(ONE, self, other)])

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        acc = {c: dict(col) for c, col in self.cols.items()}
        _add_scaled(acc, other)
        return SparseMatrix(self.dim, _nonzero(acc))

    def scale(self, factor) -> "SparseMatrix":
        factor = as_scalar(factor)
        if factor == 0:
            return SparseMatrix(self.dim)
        return SparseMatrix(self.dim, {c: {r: v * factor for r, v in col.items()}
                                       for c, col in self.cols.items()})

    def conjugate_by_norm(self, norms) -> "SparseMatrix":
        """N^-1 A^T N for a diagonal N given as a list of nonzero Fractions."""
        if len(norms) != self.dim:
            raise ValueError("norm vector length mismatch")
        norms = [as_scalar(v) for v in norms]
        if any(v == 0 for v in norms):
            raise ValueError("zero norm entry")
        # (N^-1 A^T N)[c, r] = A[r, c] * norm_r / norm_c
        return SparseMatrix.from_entries(
            self.dim, ((c, r, v * norms[r] / norms[c]) for r, c, v in self.entries()))

    def apply(self, vec: dict) -> dict:
        """Apply to a sparse vector {index: Fraction}."""
        out = {}
        for j, coeff in vec.items():
            for r, v in self.cols.get(j, {}).items():
                out[r] = out.get(r, ZERO) + v * coeff
        return {r: v for r, v in out.items() if v != 0}

    def apply_row(self, covec: dict) -> dict:
        """Apply a sparse covector on the left: (covec . A)."""
        out = {}
        for c, col in self.cols.items():
            acc = ZERO
            for r, v in col.items():
                if r in covec:
                    acc += covec[r] * v
            if acc != 0:
                out[c] = acc
        return out

    def mismatches(self, other: "SparseMatrix", cols, rows=None) -> list:
        """(row, col, self entry, other entry) for every differing entry.

        Only the given columns are compared, and only rows in `rows` when
        it is given.  Results come column by column in the order of
        `cols`, rows ascending, as a dense entrywise loop would find them.
        """
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.cols == other.cols:
            return []  # equal maps differ nowhere
        if rows is not None:
            rows = set(rows)
        out = []
        for c in cols:
            a, b = self.cols.get(c, {}), other.cols.get(c, {})
            if a != b:  # an equal column needs no sorting
                out += [(r, c, va, vb) for r, va, vb in vector_mismatches(a, b, rows)]
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix) or self.dim != other.dim:
            return NotImplemented
        return {c: col for c, col in self.cols.items() if col} == \
               {c: col for c, col in other.cols.items() if col}

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
    def identity(cls, dim: int) -> "GradedOperator":
        return cls(dim, {0: SparseMatrix.identity(dim)}, max_degree=0)

    @classmethod
    def zero(cls, dim: int) -> "GradedOperator":
        return cls(dim, {}, max_degree=0)

    @classmethod
    def from_entries(cls, dim: int, entries, max_degree: int) -> "GradedOperator":
        """Sum of (degree, row, col, value) entries, as in
        `SparseMatrix.from_entries`; a degree keeps a block only when it
        has a nonzero entry."""
        acc = {}
        for k, r, c, v in entries:
            cols = acc.get(k)
            if cols is None:
                cols = acc[k] = {}
            col = cols.get(c)
            if col is None:
                cols[c] = {r: v}
            else:
                old = col.get(r)
                col[r] = v if old is None else old + v
        return cls(dim, {k: SparseMatrix(dim, _nonzero(cols)) for k, cols in acc.items()},
                   max_degree=max_degree)

    def block(self, k: int) -> SparseMatrix:
        return self.blocks.get(k, SparseMatrix(self.dim))

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
        """A(z) = sum_k z^k A_k, summed into one column map."""
        z = as_scalar(z)
        acc = {}
        for k, m in self.blocks.items():
            _add_scaled(acc, m, z ** k)
        return SparseMatrix(self.dim, _nonzero(acc))

    def restrict(self, mapping: dict, dim: int, max_degree: int) -> "GradedOperator":
        """Entries whose row and column both lie in `mapping` (old index ->
        new index), relabelled onto a basis of size dim; the rest dropped."""
        return GradedOperator.from_entries(dim, (
            (k, mapping[r], mapping[c], v)
            for k, m in self.blocks.items()
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
    truncated at max_degree (explicit, always).

    Fraction-free: each block B_j is taken once per call as integer
    numerators over d_B, the lcm of its denominators, and each A_i as
    integer numerators over d_A on the columns that the rows of B's blocks
    read.  Every block product A_i B_j with i + j = k <= max_degree is added
    column by column into one integer accumulator over L_k, the lcm of the
    d_A d_B of degree k, with the factor L_k / (d_A d_B); each nonzero sum
    becomes one Fraction at the end, so no block product is built on its
    own and no Fraction is normalized per term.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("sum_of_products of no pairs")
    dim = pairs[0][0].dim
    if any(A.dim != dim or B.dim != dim for A, B in pairs):
        raise ValueError("dimension mismatch")
    b_ints = {}  # id(block) -> (d_B, integer columns), once per call
    terms = {}  # degree -> [(d_A d_B, A columns, B columns)]
    for A, B in pairs:
        read = set().union(*(col.keys() for b in B.blocks.values() for col in b.cols.values()))
        for i, a in A.blocks.items():
            da, acols = _over_common_denominator(a.cols, read)
            for j, b in B.blocks.items():
                if i + j <= max_degree:
                    hit = b_ints.get(id(b))
                    if hit is None:
                        hit = b_ints[id(b)] = _over_common_denominator(b.cols)
                    db, bcols = hit
                    terms.setdefault(i + j, []).append((da * db, acols, bcols))
    blocks = {}
    for k, products in terms.items():
        L = lcm(*(d for d, _, _ in products))
        acc = {}
        for d, acols, bcols in products:
            _add_product(acc, acols, bcols, L // d)
        blocks[k] = SparseMatrix(dim, _nonzero_over(acc, L))
    return GradedOperator(dim, blocks, max_degree=max_degree)


def sum_of_scaled_products(terms) -> SparseMatrix:
    """sum over (c, A, B) in terms (not empty) of c A B, added column by
    column into one accumulator; zeros are dropped once, at the end."""
    terms = list(terms)
    if not terms:
        raise ValueError("sum_of_scaled_products of no terms")
    dim = terms[0][1].dim
    if any(A.dim != dim or B.dim != dim for _, A, B in terms):
        raise ValueError("dimension mismatch")
    acc = {}
    for c, A, B in terms:
        if c:
            _add_product(acc, A.cols, B.cols, c)
    return SparseMatrix(dim, _nonzero(acc))


def commutator_vanishes(A: GradedOperator, B: GradedOperator) -> bool:
    """[A(z1), B(z2)] = 0 identically: every cross block pair commutes, ab ==
    ba with both products through `mul`.  A self-commutator visits only
    i < j: (j, i) is (i, j) swapped, and (i, i) commutes trivially."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    return all(a.mul(b) == b.mul(a)
               for i, a in A.blocks.items() for j, b in B.blocks.items()
               if A is not B or i < j)


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
