import random
from fractions import Fraction as F

import pytest

from integrable_lab.graded import (
    GradedOperator,
    SparseMatrix,
    commutator_items,
    graded_items,
    matrix_dump,
    mismatch_items,
)
from integrable_lab.partitions import occupation_basis, partition_basis


def random_sparse(dim, rng, fill=0.4):
    return SparseMatrix.from_entries(dim, ((r, c, F(rng.randint(-5, 5), rng.randint(1, 7)))
                                           for r in range(dim) for c in range(dim)
                                           if rng.random() < fill))


def random_graded(dim, rng, max_deg=3):
    return GradedOperator(dim, {k: random_sparse(dim, rng) for k in range(max_deg + 1)},
                          max_degree=max_deg)


def test_identity_compose():
    rng = random.Random(0)
    B = random_graded(4, rng)
    I = GradedOperator(4, {0: SparseMatrix.identity(4)}, max_degree=0)
    assert I.compose(B, 6) == B
    assert B.compose(I, 6) == B


def test_compose_is_convolution():
    rng = random.Random(2)
    A = random_graded(3, rng, 2)
    B = random_graded(3, rng, 2)
    C = A.compose(B, 4)
    for k in range(5):
        acc = SparseMatrix(3)
        for i in range(k + 1):
            acc = acc.add(A.block(i).mul(B.block(k - i)))
        assert C.block(k) == acc


def test_compose_truncates_explicitly():
    rng = random.Random(3)
    A = random_graded(3, rng, 3)
    B = random_graded(3, rng, 3)
    C = A.compose(B, 2)
    assert C.max_degree == 2
    assert all(k <= 2 for k in C.degrees())


def test_associativity_random_triples():
    rng = random.Random(4)
    for _ in range(5):
        A = random_graded(3, rng, 2)
        B = random_graded(3, rng, 2)
        C = random_graded(3, rng, 2)
        assert A.compose(B, 6).compose(C, 6) == A.compose(B.compose(C, 6), 6)


def test_bar_adjoint_diagonal_trivial_norm():
    d = SparseMatrix.from_entries(3, ((i, i, F(i + 1, 2)) for i in range(3)))
    A = GradedOperator(3, {0: d})
    assert A.bar_adjoint([F(1)] * 3) == A


def test_bar_adjoint_involution():
    rng = random.Random(5)
    A = random_graded(4, rng, 2)
    norms = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
    assert A.bar_adjoint(norms).bar_adjoint(norms) == A


def test_bar_adjoint_rejects_zero_norm():
    A = GradedOperator(2, {0: SparseMatrix.identity(2)}, max_degree=0)
    with pytest.raises(ValueError):
        A.bar_adjoint([F(1), F(0)])


def test_reflect():
    rng = random.Random(6)
    A = random_graded(3, rng, 2)
    R = A.reflect(2)
    assert R.block(0) == A.block(2)
    assert R.block(2) == A.block(0)


def test_eval_matches_blocks():
    rng = random.Random(7)
    A = random_graded(3, rng, 2)
    z = F(3, 5)
    M = A.eval_at(z)
    expect = A.block(0).add(A.block(1).scale(z)).add(A.block(2).scale(z * z))
    assert M == expect


def test_apply_vector_and_row():
    rng = random.Random(8)
    m = random_sparse(4, rng)
    vec = {0: F(1), 2: F(-1, 3)}
    out = m.apply(vec)
    for r in range(4):
        expect = m.entry(r, 0) * vec[0] + m.entry(r, 2) * vec[2]
        assert out.get(r, F(0)) == expect
    cov = {1: F(2), 3: F(1, 2)}
    row = m.apply_row(cov)
    for c in range(4):
        expect = cov[1] * m.entry(1, c) + cov[3] * m.entry(3, c)
        assert row.get(c, F(0)) == expect


def test_commutator_vanishes_on_powers():
    rng = random.Random(9)
    m = random_sparse(3, rng)
    A = GradedOperator(3, {0: m, 1: m.mul(m)})
    B = GradedOperator(3, {0: m.mul(m).mul(m)})
    assert commutator_items(A, B, range(3), occupation_basis(3, 1), 0) == []


def test_shift_and_scale():
    rng = random.Random(10)
    A = random_graded(3, rng, 1)
    S = A.shift(2)
    assert S.block(2) == A.block(0)
    assert S.block(3) == A.block(1)
    assert A.scale(F(2)).block(1) == A.block(1).scale(F(2))


def test_dump_schema():
    basis = partition_basis(2)
    A = GradedOperator(len(basis), {0: SparseMatrix.identity(len(basis))}, max_degree=0)
    d = matrix_dump(A, basis, "id")
    assert d["basis"] == ["[]", "[1]", "[2]", "[1,1]"]
    assert all(set(e) == {"degree", "row", "col", "value"} for e in d["entries"])
    assert all(e["value"] == "1" for e in d["entries"])


def test_blocks_above_max_degree_are_rejected():
    I = SparseMatrix.identity(2)
    with pytest.raises(ValueError, match="degree 5 above max_degree 2"):
        GradedOperator(2, {5: I}, max_degree=2)
    with pytest.raises(ValueError, match="above max_degree"):
        GradedOperator.from_entries(2, [(3, 0, 0, F(1))], max_degree=2)
    op = GradedOperator(2, {1: I, 2: I}, max_degree=2)
    with pytest.raises(ValueError, match="above max_degree"):
        op.restrict({0: 0, 1: 1}, 2, max_degree=1)
    # the derived constructors declare a cap that holds every block
    for derived in (op.shift(3), op.reflect(2), op.restrict({0: 0}, 1, 2),
                    op.compose(op, 3), GradedOperator(2, {5: I})):
        assert all(k <= derived.max_degree for k in derived.degrees())


def test_commutator_vanishes_reports_non_commuting_operators():
    e12 = SparseMatrix.from_entries(2, [(0, 1, F(1))])
    e21 = SparseMatrix.from_entries(2, [(1, 0, F(1))])
    A = GradedOperator(2, {0: e12})
    B = GradedOperator(2, {1: e21})
    basis = occupation_basis(2, 1)
    first, second = basis.labels()
    cols = range(2)
    # e12 e21 = e11 and e21 e12 = e22: the two differ at (0, 0) and (1, 1)
    assert commutator_items(A, B, cols, basis, 0, relation="AB") == [
        {"relation": "AB", "bidegree": (0, 1), "row": first, "col": first, "lhs": "1", "rhs": "0"},
        {"relation": "AB", "bidegree": (0, 1), "row": second, "col": second, "lhs": "0", "rhs": "1"}]
    # on the asserted columns only: column 1 alone holds the second item
    assert commutator_items(A, B, [1], basis, 0) == [
        {"bidegree": (0, 1), "row": second, "col": second, "lhs": "0", "rhs": "1"}]
    assert [item["bidegree"] for item in commutator_items(B, A, cols, basis, 0)] == [(1, 0), (1, 0)]
    assert commutator_items(A, A, cols, basis, 0) == []
    # with A is B only the pair of degrees (0, 1) can decide, and it fails
    AB = GradedOperator(2, {0: e12, 1: e21})
    assert [item["bidegree"] for item in commutator_items(AB, AB, cols, basis, 0)] == [(0, 1)] * 2
    I2 = GradedOperator(2, {0: SparseMatrix.identity(2)}, max_degree=0)
    assert commutator_items(AB, I2, cols, basis, 0) == []
    I3 = GradedOperator(3, {0: SparseMatrix.identity(3)}, max_degree=0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator_items(A, I3, cols, basis, 0)


def test_graded_items_name_the_degree_and_skip_blocks_above_top():
    e12 = SparseMatrix.from_entries(2, [(0, 1, F(1, 3))])
    basis = occupation_basis(2, 1)
    first, second = basis.labels()
    lhs = GradedOperator(2, {0: e12, 2: e12})
    rhs = GradedOperator(2, {1: e12})
    assert graded_items(lhs, rhs, 1, range(2), basis, side="x") == [
        {"side": "x", "degree": 0, "row": first, "col": second, "lhs": "1/3", "rhs": "0"},
        {"side": "x", "degree": 1, "row": first, "col": second, "lhs": "0", "rhs": "1/3"}]
    assert graded_items(lhs, rhs, 1, [0], basis) == []  # column 1 not asserted
    assert len(graded_items(lhs, rhs, 2, range(2), basis)) == 3


def test_mismatch_items_label_and_format_the_first_three():
    basis = partition_basis(3)
    a = SparseMatrix.from_entries(len(basis), [(r, 0, F(r + 1, 2)) for r in range(len(basis))])
    found = a.mismatches(SparseMatrix(len(basis)), [0])
    assert len(found) == len(basis) > 3
    assert mismatch_items(found, basis, degree=2, aux=(0, 1)) == [
        {"degree": 2, "aux": (0, 1), "row": basis.label(basis.states[r]),
         "col": "[]", "lhs": lhs, "rhs": "0"}
        for r, lhs in [(0, "1/2"), (1, "1"), (2, "3/2")]]
    # vector mismatches (row, lhs, rhs) give items without a column
    assert mismatch_items([(1, F(-2, 3), F(0))], basis, degree=0) == [
        {"degree": 0, "row": "[1]", "lhs": "-2/3", "rhs": "0"}]
    assert mismatch_items([], basis, degree=0) == []


def test_a_projection_that_differs_where_the_products_agree_still_fails(monkeypatch):
    # exact arithmetic cannot make the projections of equal products differ,
    # so a kernel made to do it must fail the check, never pass it: the
    # product route then finds no entry, and one item says so
    from integrable_lab import baxter_q, graded, lattice, vertex_ops

    basis = occupation_basis(3, 2)
    lam = lattice.periodic_transfer(basis, F(3, 5), F(2, 7))
    q = baxter_q.build_qmatrix(basis, F(3, 5), F(2, 7))
    gbasis = partition_basis(5)
    plus = vertex_ops.build_gamma("L", "+", gbasis, F(2, 7))
    minus = vertex_ops.build_gamma("L", "-", gbasis, F(2, 7))
    checks = [lambda: commutator_items(lam, q, range(q.dim), basis, 0, N=3),
              lambda: vertex_ops.gamma_commutation_check(plus, minus, 3, 0)[1],
              lambda: vertex_ops.pair_commutation_check(minus, 3, 0)[1]]
    assert all(check() == [] for check in checks)

    real = graded._mat_vec
    calls = []

    def first_call_off(cols, vec):  # one more at every row of the first vector returned
        out = real(cols, vec)
        calls.append(1)
        return {r: v + 1 for r, v in out.items()} if len(calls) == 1 else out

    monkeypatch.setattr(graded, "_mat_vec", first_call_off)
    for check, tag in zip(checks, ({"N": 3, "bidegree": (0, 0)}, {"bidegree": (0, 0)},
                                   {"bidegree": (0, 1)})):
        calls.clear()
        items = check()
        assert calls and items == [dict(tag, projection="differs; no product entry does")]
