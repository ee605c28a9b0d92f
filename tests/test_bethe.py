import random
import re
from fractions import Fraction as F

import pytest

from integrable_lab.bethe import (
    _solve,
    bethe_solve,
    bethe_vector,
    boltzmann_weights,
    graded_pieri_on_integers_check,
    interior_staircase_check,
    pair_cancellation_check,
    periodic_eigen_residual,
    singular_point,
    spin_transfer_column,
    x_hat,
    xi,
    y_hat,
)
from integrable_lab.hall_littlewood import hl_R
from integrable_lab.partitions import occupation_basis
from oracles import spin_periodic_transfer_cleared

T = F(2, 7)
S = F(1, 6)


def test_xi_examples():
    assert xi(F(5, 3), F(0)) == F(5, 3)
    assert xi(F(1), F(2, 9)) == 1
    assert xi(F(2), F(1, 2)) == F(5, 4)
    with pytest.raises(ValueError, match="1 \\+ u s = 0"):
        xi(F(-2), F(1, 2))


def test_bethe_vector_single_and_s0():
    u = F(5, 3)
    assert bethe_vector((4,), [u], T, S) == xi(u, S) ** 4
    rng = random.Random(3)
    us = [F(5, 3), F(-7, 4), F(9, 5)]
    for mu in [(2, 1, 0), (3, 1, 1), (5, 2, 0), (0, -1, -2)]:
        assert bethe_vector(mu, us, T, F(0)) == hl_R(mu, us, T)


def test_xhat_yhat_product_forms():
    z, u = F(3, 4), F(5, 3)
    w = boltzmann_weights(z, S, T)
    assert x_hat(xi(u, S), w) == w[1] * (1 - z * T * u) / (1 - z * u)
    assert y_hat(xi(u, S), w) == w[3] * T * (1 - z * u / T) / (1 - z * u)


def test_pair_cancellation():
    assert pair_cancellation_check(F(5, 3), F(-7, 4), F(3, 4), S, T) == (True, [])
    assert pair_cancellation_check(F(2, 3), F(7, 5), F(1, 5), F(0), T) == (True, [])


def test_interior_staircase_exact():
    us2 = [F(5, 3), F(-7, 4)]
    us3 = [F(5, 3), F(-7, 4), F(9, 5)]
    z = F(3, 4)
    for (mu, N, us) in [
        ((2,), 5, [F(5, 3)]),
        ((4, 1), 6, us2),
        ((3, 2), 6, us2),
        ((2, 1), 3, us2),
        ((5, 3, 1), 7, us3),
        ((4, 3, 1), 7, us3),
        ((2, 1, 0), 4, us3),
        ((1, -1), 5, [F(1, 3), F(-2, 5)]),  # a negative part must not wrap the reader
    ]:
        ok, failures = interior_staircase_check(mu, N, us, T, S, z)
        assert ok and failures == [], (mu, N, failures)
    # also at zero spin
    assert interior_staircase_check((3, 1), 5, us2, T, F(0), z) == (True, [])


def test_graded_pieri_on_integers():
    us = [F(5, 3), F(-7, 4)]
    assert graded_pieri_on_integers_check((2, -1), us, T, 3) == (True, [])
    assert graded_pieri_on_integers_check((1, 0), us, T, 3) == (True, [])
    assert graded_pieri_on_integers_check((1, -1), us, T, 3) == (True, [])


def test_column_weights_cross_check_with_monodromy():
    # fold the raw column targets and compare with the cleared spin-Lax
    # monodromy transfer at a sample z (two independent routes)
    from itertools import combinations

    z, X = F(3, 4), F(3, 5)
    for (N, M) in [(3, 1), (3, 2), (4, 2), (4, 3)]:
        basis = occupation_basis(N, M)
        lam_op = spin_periodic_transfer_cleared(N, M, X, T, S).eval_at(z)
        w = boltzmann_weights(z, S, T)
        for mu in [c for c in combinations(range(N - 1, -1, -1), M)]:
            mu = tuple(sorted(mu, reverse=True))
            occ_mu = tuple(sum(1 for p in mu if p == site) for site in range(N))
            col = {}
            for lam, wgt in spin_transfer_column(mu, N, w):
                if lam[0] >= N:
                    target = tuple(sorted(lam[1:] + (lam[0] - N,), reverse=True))
                    twist = X
                else:
                    target, twist = lam, F(1)
                occ_t = tuple(sum(1 for p in target if p == site) for site in range(N))
                col[occ_t] = col.get(occ_t, F(0)) + wgt * twist
            j = basis.index[occ_mu]
            for occ_t, val in col.items():
                assert lam_op.entry(basis.index[occ_t], j) == val, (mu, occ_t)


def test_bethe_solve_m1_closed_form():
    # at s = 0, M = 1: u^N = x; roots are the N-th roots of x
    N, X = 3, F(3, 5)
    system = bethe_solve(N, 1, F(1, 3), F(0), X, seeds=40, seed=11)
    assert len(system.roots) == N
    for root in system.roots:
        u = root[0]
        assert abs(u ** N - float(X)) < 1e-12
    assert all(r < 1e-10 for r in system.residuals)


def test_bethe_solve_m2_and_residual():
    N, M = 3, 2
    system = bethe_solve(N, M, F(1, 3), F(0), F(1), seeds=40, seed=7)
    assert system.roots, "solver found no roots"
    assert all(r < 1e-10 for r in system.residuals)
    res = periodic_eigen_residual(system, complex(0.37, 0.0))
    assert res < 1e-8, res


def test_m0_trivial():
    system = bethe_solve(4, 0, F(1, 3), F(0), F(2), seeds=1, seed=0)
    assert system.roots == [tuple()]
    # the periodic residual needs a particle; M = 0 is rejected, not passed
    with pytest.raises(ValueError, match="M >= 1"):
        periodic_eigen_residual(system, 0.3)


def test_json_roundtrip():
    system = bethe_solve(3, 1, F(1, 3), F(1, 6), F(2, 3), seeds=30, seed=5)
    dump = system.to_json()
    assert dump["N"] == 3 and len(dump["roots"]) == len(system.residuals)
    assert all(isinstance(pair, list) and len(pair) == 2
               for root in dump["roots"] for pair in root)


def test_bethe_solve_rejects_t_one():
    # at t = 1 the weight w5 = z(1 - t) vanishes and the column weights
    # divide by it; the solver refuses up front instead
    for t in (F(1), 1, 1.0):
        with pytest.raises(ValueError, match="t = 1"):
            bethe_solve(2, 1, t, F(0), F(1), seeds=2, seed=0)


@pytest.mark.parametrize("N, M, seeds", [(0, 1, 20), (-1, 0, 20), (3, -1, 20), (3, 1, 0),
                                         (3, 1, -2)])
def test_bethe_solve_rejects_degenerate_inputs(N, M, seeds):
    # N = 0 used to return every seed as a root of the constant system
    with pytest.raises(ValueError, match=f"got N={N}, M={M}, seeds={seeds}"):
        bethe_solve(N, M, F(1, 3), F(0), F(1), seeds=seeds)


@pytest.mark.parametrize("us, z, s, t, named", [
    ([F(5, 3), F(-7, 4)], F(0), F(1, 6), T, "w5 w6 = 0"),
    # w2 = z + t s vanishes at t = -9/2 for z = 3/4, s = 1/6
    ([F(5, 3), F(-7, 4)], F(3, 4), F(1, 6), F(-9, 2), "w2 w4 = 0"),
    ([F(5, 3), F(-6)], F(3, 4), F(1, 6), T, "1 + u s = 0"),
    # at s = 0, w1 - w3 xi(u) = 1 - z u
    ([F(5, 3), F(4, 3)], F(3, 4), F(0), T, "w1 - w3 xi(u) = 0"),
    # B divides by u_1 - u_2 (this pair raised ZeroDivisionError before)
    ([F(2), F(2)], F(3, 4), F(1, 6), F(2, 7), "u_i = u_j"),
], ids=["w5-w6", "w2-w4", "xi-pole", "xhat-pole", "coincident"])
def test_checks_reject_the_declared_singular_locus(us, z, s, t, named):
    assert named in singular_point(us, z, s, t)
    with pytest.raises(ValueError, match=re.escape(named)):
        interior_staircase_check((4, 1), 6, us, t, s, z)
    with pytest.raises(ValueError, match=re.escape(named)):
        pair_cancellation_check(*us, z, s, t)
    assert singular_point([F(5, 3), F(-7, 4)], F(3, 4), F(1, 6), T) is None


def test_solve_pivots_and_reports_a_zero_pivot():
    # the leading entry is zero, so the rows must swap
    J = [[0j, 2 + 0j, 1j], [1 + 0j, 1 + 0j, 0j], [3 + 0j, 0j, 1 + 0j]]
    x = [1 + 1j, -2 + 0j, 0.5j]
    b = [sum(a * v for a, v in zip(row, x)) for row in J]
    assert all(abs(got - want) < 1e-14 for got, want in zip(_solve(J, b), x))
    assert _solve([[1 + 0j, 2 + 0j], [2 + 0j, 4 + 0j]], [1j, 0j]) is None
    assert _solve([[0j]], [1 + 0j]) is None
