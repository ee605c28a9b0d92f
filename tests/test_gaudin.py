import random
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from integrable_lab.bethe import bethe_vector, xi
from integrable_lab.gaudin import (
    gaudin_det,
    gaudin_sum,
    hecke_symmetrize,
    lascoux_reduction_check,
    spin_norm_floor,
    spin_state_norm,
    omega_t_product,
)
from integrable_lab.hall_littlewood import hl_R
from integrable_lab.scalars import tfact, tpoch

T = F(2, 7)
S = F(1, 6)


def test_spin_state_norm():
    assert spin_state_norm((2, 1), T, S) == \
        (tfact(1, T) / tpoch(S * S, 1, T)) ** 2
    assert spin_state_norm((1, 1, 0), T, S) == \
        (tfact(2, T) / tpoch(S * S, 2, T)) * (tfact(1, T) / tpoch(S * S, 1, T))
    # s = 0: plain t-factorial norms, zeros included
    assert spin_state_norm((0, 0), T, F(0)) == tfact(2, T)


def test_norm_floor_holds_when_a_norm_factor_exceeds_one():
    # at t = -1/2 every factor (t)_m / (s^2)_m exceeds 1 for m <= 3
    for n, s in [(2, F(0)), (3, F(1, 6))]:
        floor = spin_norm_floor(n, F(-1, 2), s)
        for mu in combinations_with_replacement(range(4), n):
            assert floor <= abs(spin_state_norm(mu, F(-1, 2), s)), (n, s, mu)


def test_gaudin_det_n1_frozen():
    u, v = F(1, 3), F(1, 2)
    assert gaudin_det(1, [u], [v], T) == 1 / ((1 - T) * (1 - u * v))


def test_gaudin_det_singular_rejected():
    with pytest.raises(ValueError):
        gaudin_det(1, [F(2)], [F(1, 2)], T)


def test_gaudin_sum_n1_geometric():
    # s = 0: sum (uv)^m / (1-t) telescopes to the determinant value
    u, v = F(1, 3), F(1, 2)
    val, tail = gaudin_sum(1, [u], [v], T, F(0), truncation=80)
    det = gaudin_det(1, [u], [v], T)
    assert abs(val - det) <= tail
    assert tail < F(1, 10**12)


def test_gaudin_sum_n0():
    val, tail = gaudin_sum(0, [], [], T, S, truncation=5)
    assert val == 1 and tail == 0


def test_gaudin_sum_matches_det_n2_two_spins():
    U = [F(1, 3), F(1, 5)]
    V = [F(1, 2), F(1, 7)]
    det = gaudin_det(2, U, V, T)
    for s in (F(0), S):
        val, tail = gaudin_sum(2, U, V, T, s, truncation=60)
        assert tail < F(1, 10**12), tail
        assert abs(val - det) <= tail, (s, float(val - det), float(tail))


def test_spin_independence_within_tails():
    U = [F(1, 3), F(1, 5)]
    V = [F(1, 2), F(1, 7)]
    v0, t0 = gaudin_sum(2, U, V, T, F(0), truncation=50)
    v1, t1 = gaudin_sum(2, U, V, T, S, truncation=50)
    assert abs(v0 - v1) <= t0 + t1


def test_divergent_draw_rejected():
    with pytest.raises(ValueError):
        gaudin_sum(1, [F(3)], [F(2)], T, F(0), truncation=10)


def test_hecke_symmetrizer_normalization():
    # constants are fixed points of the symmetrizer
    U = [F(1, 3), F(1, 5), F(2, 7)]
    assert hecke_symmetrize(lambda us: F(1), U, T) == 1


def test_lascoux_n1_hand_expansion():
    # (1 - t tau) on the one-pair kernel: (1-tuv)/(1-uv) - t = (1-t)/(1-uv),
    # equal to (1-t) D1/d1
    u, v = F(1, 3), F(1, 2)
    k = omega_t_product([u], [v], T)
    lhs = k - T
    assert lhs == (1 - T) / (1 - u * v)
    assert lascoux_reduction_check(1, [u], [v], T)


def test_lascoux_n2_n3():
    rng = random.Random(9)
    U2 = [F(1, 3), F(2, 5)]
    V2 = [F(1, 2), F(3, 7)]
    assert lascoux_reduction_check(2, U2, V2, T)
    U3 = [F(1, 3), F(2, 5), F(3, 8)]
    V3 = [F(1, 2), F(3, 7), F(1, 5)]
    assert lascoux_reduction_check(3, U3, V3, T)


def test_lascoux_t_zero_degeneration():
    # n = 1 survives t = 0 literally (the det ratio is regular there);
    # for n >= 2 both sides vanish to the same order, so sample near zero
    assert lascoux_reduction_check(1, [F(1, 3)], [F(1, 2)], F(0))
    U2 = [F(1, 3), F(2, 5)]
    V2 = [F(1, 2), F(3, 7)]
    assert lascoux_reduction_check(2, U2, V2, F(1, 1000))


def test_warnaar_style_sum_converges_monotonically():
    # s = 0 partial sums approach the determinant with shrinking remainder
    u, v = F(1, 3), F(1, 2)
    det = gaudin_det(2, [u, F(1, 5)], [v, F(1, 7)], T)
    prev_gap = None
    for K in (10, 20, 30):
        val, tail = gaudin_sum(2, [u, F(1, 5)], [v, F(1, 7)], T, F(0), truncation=K)
        gap = abs(det - val)
        assert gap <= tail
        if prev_gap is not None:
            assert gap <= prev_gap
        prev_gap = gap


def test_lascoux_rejects_singular_point():
    # u v = 1 and t u v = 1 are poles of the kernel: a ValueError naming the
    # pair, not a ZeroDivisionError from deep inside the expansion
    with pytest.raises(ValueError, match=r"u=2, v=1/2.*u v = 1"):
        lascoux_reduction_check(2, [F(1, 3), F(2)], [F(1, 2), F(1, 7)], T)
    with pytest.raises(ValueError, match=r"t u v = 1"):
        lascoux_reduction_check(1, [F(7, 2)], [F(1)], T)
