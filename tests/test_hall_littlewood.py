import random
from fractions import Fraction as F

import pytest

from integrable_lab.hall_littlewood import (
    PieriTable,
    cauchy_coeff_check,
    complete_q_coeffs,
    dual_pair_coeffs,
    elementary_e_coeffs,
    hl_P,
    hl_Q,
    hl_R,
    omega_t_pair_coeffs,
    pieri_coeff,
    skew_P,
    skew_Q_omega,
)
from integrable_lab.partitions import (
    conjugate,
    horizontal_strips_above,
    is_horizontal_strip,
    multiplicity,
    partition,
    partition_basis,
    state_norm,
    vertical_strips_above,
    weight,
)
from integrable_lab.scalars import tfact
from oracles import dominance_leq, monomial_sym


def rational_draw(rng, lo=-9, hi=9, den=7):
    while True:
        v = F(rng.randint(lo, hi), rng.randint(1, den))
        if v != 0:
            return v


def distinct_draws(rng, n, **kw):
    out = []
    while len(out) < n:
        v = rational_draw(rng, **kw)
        if v not in out:
            out.append(v)
    return out


def gauss_solve(rows, rhs):
    """Exact Gaussian elimination; rows is a list of lists of Fractions."""
    n = len(rows)
    m = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    piv = 0
    where = []
    for col in range(m):
        sel = next((r for r in range(piv, n) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[piv], aug[sel] = aug[sel], aug[piv]
        inv = 1 / aug[piv][col]
        aug[piv] = [v * inv for v in aug[piv]]
        for r in range(n):
            if r != piv and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[piv])]
        where.append(col)
        piv += 1
        if piv == n:
            break
    sol = [F(0)] * m
    for r, col in enumerate(where):
        sol[col] = aug[r][m]
    return sol


# ---------------------------------------------------------------------------
# branching coefficients

def test_psi_oracle_linear_solve():
    # solve q_1 Q_(1,1) = sum psi_lam Q_lam for the two 1-strip extensions
    t = F(2, 7)
    mu = (1, 1)
    lams = [lam for lam in horizontal_strips_above(mu, 1) if weight(lam) == 3]
    assert set(lams) == {(2, 1), (1, 1, 1)}
    rng = random.Random(42)
    rows, rhs = [], []
    for _ in range(len(lams)):
        U = distinct_draws(rng, 3)
        q1 = complete_q_coeffs(U, t, 1)[1]
        rows.append([hl_Q(lam, U, t) for lam in lams])
        rhs.append(q1 * hl_Q(mu, U, t))
    sol = gauss_solve(rows, rhs)
    expect = {lam: s for lam, s in zip(lams, sol)}
    assert expect[(2, 1)] == pieri_coeff("psi", (2, 1), mu, t) == 1 - t**2
    assert expect[(1, 1, 1)] == pieri_coeff("psi", (1, 1, 1), mu, t)


def test_phi_via_adjoint_oracle():
    t = F(3, 8)
    # phi_{lam/mu} = psi_{lam/mu} * norm(lam)/norm(mu)
    assert pieri_coeff("phi", (1,), (), t) == pieri_coeff("psi", (1,), (), t) * state_norm((1,), t) == 1 - t


def test_adjoint_relation_all_pairs():
    t = F(2, 5)
    parts = list(partition_basis(8))
    for lam in parts:
        for mu in parts:
            if is_horizontal_strip(lam, mu):
                assert pieri_coeff("phi", lam, mu, t) * state_norm(mu, t) == \
                    pieri_coeff("psi", lam, mu, t) * state_norm(lam, t)


def test_psi_prime_trivial_and_phi_prime():
    t = F(1, 3)
    assert pieri_coeff("psi'", (2, 1), (2, 1), t) == 1
    # phi'_{[1]/[]} = 1/(1-t)
    assert pieri_coeff("phi'", (1,), (), t) == 1 / (1 - t)


def literal_pieri(kind, lam, mu, t):
    """The four Pieri coefficients as literal products of t-powers and tfact."""
    result = F(1)
    if kind in ("psi", "phi"):
        for j in range(1, (lam[0] if lam else 0) + 1):
            a, b = multiplicity(lam, j), multiplicity(mu, j)
            if kind == "psi" and a == b - 1:
                result *= 1 - t**b
            if kind == "phi" and a == b + 1:
                result *= 1 - t**a
        return result
    lp, mp = conjugate(lam), conjugate(mu)
    lp, mp = lp + (0,), mp + (0,) * (len(lp) + 1 - len(mp))
    for i in range(len(lp) - 1):
        top = lp[i] - lp[i + 1] if kind == "psi'" else mp[i] - mp[i + 1]
        result *= tfact(top, t) / (tfact(lp[i] - mp[i], t) * tfact(mp[i] - lp[i + 1], t))
    return result


def table_strips(table, max_weight):
    """(kind, lam, mu, coefficient) for every strip lam/mu with |lam| <=
    max_weight and both kinds of its strip type, as `table` yields them."""
    for mu in partition_basis(max_weight):
        for kind in ("psi", "phi", "psi'", "phi'"):
            for lam, c in table.strips(kind, mu, max_weight - weight(mu)):
                yield kind, lam, mu, c


@pytest.mark.parametrize("t", [F(2, 7), F(-5, 3), F(11, 4), F(0)])
def test_table_pieri_equals_the_literal_product_on_every_strip(t):
    coefficients = 0
    for kind, lam, mu, c in table_strips(PieriTable(t), 8):
        coefficients += 1
        assert c == literal_pieri(kind, lam, mu, t), (kind, lam, mu)
    assert coefficients > 1000


@pytest.mark.parametrize("t", [F(2, 7), F(-5, 3), F(0)])
def test_pieri_table_equals_the_one_shot_coefficients(t):
    table = PieriTable(t)  # one table for every strip, as a suite draw reads it
    coefficients = 0
    for kind, lam, mu, c in table_strips(table, 8):
        coefficients += 1
        assert c == pieri_coeff(kind, lam, mu, t), (kind, lam, mu)
    assert coefficients > 1000
    with pytest.raises(ValueError, match="unknown Pieri coefficient kind"):
        table.strips("nope", (1,), 1)


def test_pieri_coeff_dispatch_and_errors():
    t = F(1, 2)
    # the part 1 loses its one copy: psi_{[2]/[1]} = 1 - t; any sequence form
    assert pieri_coeff("psi", [2], (1, 0), t) == 1 - t
    with pytest.raises(ValueError):
        pieri_coeff("psi", (1, 1, 1), (), t)  # not a horizontal strip
    with pytest.raises(ValueError):
        pieri_coeff("phi'", (3,), (1,), t)  # not a vertical strip
    with pytest.raises(ValueError):
        pieri_coeff("nope", (1,), (), t)


# ---------------------------------------------------------------------------
# R, P, Q evaluation

def test_hl_R_examples():
    t = F(1, 2)
    u1, u2 = F(2), F(3)
    assert hl_R((1, 0), [u1, u2], t) == u1 + u2
    assert hl_R((0,), [u1], t) == 1
    assert hl_R((5,), [u1], t) == u1**5


def test_hl_R_rejects_coincident():
    with pytest.raises(ValueError):
        hl_R((1, 0), [F(2), F(2)], F(1, 3))


def test_hl_P_examples():
    t = F(1, 5)
    v1, v2 = F(1, 2), F(1, 3)
    assert hl_P((1,), [v1, v2], t) == v1 + v2
    assert hl_P((2,), [v1, v2], t) == v1**2 + v2**2 + (1 - t) * v1 * v2
    assert hl_Q((1,), [v1, v2], t) == (1 - t) * (v1 + v2)


def test_hl_Q_fewer_vars_is_zero():
    assert hl_Q((2, 1, 1), [F(1, 2), F(1, 3)], F(1, 7)) == 0


def test_padding_independence():
    t = F(2, 9)
    lam = (2, 1)
    rng = random.Random(7)
    vals = distinct_draws(rng, 3)
    base = hl_Q(lam, vals, t)
    assert hl_Q(lam, vals + [F(0)], t) == base
    assert hl_Q(lam, vals + [F(0), F(0)], t) == base


def test_symmetry_under_permutation():
    t = F(3, 10)
    rng = random.Random(8)
    vals = distinct_draws(rng, 4)
    lam = (2, 2, 1)
    base = hl_P(lam, vals, t)
    for _ in range(4):
        rng.shuffle(vals)
        assert hl_P(lam, vals, t) == base
    mu = (2, 1, 0, -1)
    base_r = hl_R(mu, vals, t)
    for _ in range(4):
        rng.shuffle(vals)
        assert hl_R(mu, vals, t) == base_r


def test_monic_triangular_on_monomials():
    # P_lam = m_lam + combination of m_mu for mu < lam in dominance
    t = F(2, 7)
    rng = random.Random(13)
    for d in range(1, 6):
        shapes = [partition(p) for p in partition_basis(d) if weight(p) == d]
        for lam in shapes:
            nvars = d
            rows, rhs = [], []
            for _ in range(len(shapes) + 2):
                vals = distinct_draws(rng, nvars)
                rows.append([monomial_sym(mu, vals) for mu in shapes])
                rhs.append(hl_P(lam, vals, t))
            sol = gauss_solve(rows[: len(shapes)], rhs[: len(shapes)])
            # verify the solution reproduces the extra evaluations
            for r, b in zip(rows[len(shapes):], rhs[len(shapes):]):
                assert sum(c * v for c, v in zip(sol, r)) == b
            coeffs = dict(zip(shapes, sol))
            assert coeffs[lam] == 1
            for mu, c in coeffs.items():
                if c != 0 and mu != lam:
                    assert dominance_leq(mu, lam) and mu != lam


# ---------------------------------------------------------------------------
# skew and omega-dual

def test_skew_examples():
    t = F(1, 4)
    v = F(2, 3)
    assert skew_P((2, 1), (2, 1), [v], t) == 1
    assert skew_P((1,), (), [v], t) == v
    assert skew_P((3,), (1,), [v], t) == v**2 * pieri_coeff("psi", (3,), (1,), t)
    assert skew_P((1,), (2,), [v], t) == 0


def test_skew_q_omega_single_column():
    # components of the one-variable omega-dual state: v^k / k!_t on 1^k
    t = F(2, 5)
    v = F(3, 7)
    from integrable_lab.scalars import tfact

    for k in range(5):
        lam = (1,) * k
        assert skew_Q_omega(lam, (), [v], t) == v**k / tfact(k, t)


def test_p_omega_monic_example():
    # P^omega on two variables: frozen expansion m_2 + (1+t) m_11
    t = F(3, 8)
    v1, v2 = F(1, 2), F(2, 5)
    lam = (1, 1)  # conjugate is (2)
    expect = monomial_sym((2,), [v1, v2]) + (1 + t) * monomial_sym((1, 1), [v1, v2])
    assert state_norm(lam, t) * skew_Q_omega(lam, (), [v1, v2], t) == expect


def test_tableau_vs_product_rule():
    # P_{lam/mu} consistency: skew from empty equals straight P
    t = F(4, 9)
    rng = random.Random(3)
    vals = distinct_draws(rng, 3)
    for lam in partition_basis(5):
        assert skew_P(lam, (), vals, t) == hl_P(lam, vals, t)


# ---------------------------------------------------------------------------
# generating functions and Pieri rules

def test_gen_coeff_examples():
    t = F(1, 6)
    xs = [F(1, 2), F(1, 3), F(1, 5)]
    q = complete_q_coeffs(xs, t, 3)
    assert q[0] == 1
    assert q[1] == (1 - t) * sum(xs)
    e = elementary_e_coeffs(xs, 5)
    assert e[0] == 1
    assert e[4] == 0 and e[5] == 0
    assert e[2] == xs[0] * xs[1] + xs[0] * xs[2] + xs[1] * xs[2]


def test_pieri_rule_exact():
    # q_r(U) Q_mu(U) = sum over horizontal r-strips of psi Q_lam
    rng = random.Random(21)
    for draw in range(2):
        t = rational_draw(rng, den=9)
        if t in (1, -1):
            t = F(2, 5)
        U = distinct_draws(rng, 3)
        qr = complete_q_coeffs(U, t, 3)
        for mu in partition_basis(4):
            for r in range(1, 4):
                lhs = qr[r] * hl_Q(mu, U, t)
                rhs = F(0)
                for lam in horizontal_strips_above(mu, r):
                    if weight(lam) - weight(mu) == r:
                        rhs += pieri_coeff("psi", lam, mu, t) * hl_Q(lam, U, t)
                assert lhs == rhs, (mu, r, t)


def test_hall_pieri_rule_exact():
    # e_r(V) P_mu(V) = sum over vertical r-strips of psi' P_lam
    rng = random.Random(22)
    t = F(3, 7)
    V = distinct_draws(rng, 3)
    er = elementary_e_coeffs(V, 3)
    for mu in partition_basis(4):
        for r in range(1, 4):
            lhs = er[r] * hl_P(mu, V, t)
            rhs = F(0)
            for lam in vertical_strips_above(mu, r):
                if weight(lam) - weight(mu) == r:
                    rhs += pieri_coeff("psi'", lam, mu, t) * hl_P(lam, V, t)
            assert lhs == rhs, (mu, r)


# ---------------------------------------------------------------------------
# Cauchy identities

def test_cauchy_degree_one_frozen():
    # expand (1 - t u v)/(1 - u v): degree-1 coefficient is (1-t) u v
    t = F(1, 3)
    u, v = F(1, 2), F(1, 5)
    assert cauchy_coeff_check(1, [u], [v], t, kind="cauchy") == (True, [])
    assert omega_t_pair_coeffs([u], [v], t, 1) == [1, (1 - t) * u * v]
    assert hl_Q((), [u], t) * hl_P((), [v], t) == 1
    assert hl_Q((1,), [u], t) * hl_P((1,), [v], t) == (1 - t) * u * v


def test_cauchy_small():
    rng = random.Random(31)
    t = F(2, 5)
    U = distinct_draws(rng, 2, den=5)
    V = distinct_draws(rng, 2, den=5)
    ok, failures = cauchy_coeff_check(4, U, V, t, kind="cauchy")
    assert ok, failures


def test_dual_cauchy_small():
    rng = random.Random(32)
    t = F(3, 11)
    U = distinct_draws(rng, 2, den=5)
    V = distinct_draws(rng, 2, den=5)
    ok, failures = cauchy_coeff_check(4, U, V, t, kind="dual")
    assert ok, failures


def test_kernel_coeff_helpers():
    t = F(1, 2)
    U, V = [F(1, 3)], [F(1, 5)]
    w = F(1, 15)
    assert omega_t_pair_coeffs(U, V, t, 2)[2] == (1 - t) * w**2
    assert dual_pair_coeffs(U, V, 3)[1] == w
    assert dual_pair_coeffs(U, V, 3)[2] == 0
