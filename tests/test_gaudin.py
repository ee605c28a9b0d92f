import hashlib
import random
import re
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from integrable_lab import gaudin
from integrable_lab.bethe import AnsatzTable
from integrable_lab.gaudin import (
    _SpinNorms,
    _symmetrized_kernel,
    _tail_geometric,
    gaudin_det,
    gaudin_sum,
    lascoux_reduction_check,
    singular_point,
    spin_norm_floor,
    spin_state_norm,
)
from integrable_lab.scalars import as_scalar, format_scalar, tbinom, tfact, tpoch
from integrable_lab.suites import draw_params

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


def omega_t_product(U, V, t):
    """prod_{k,l} (1 - t u_k v_l)/(1 - u_k v_l), literally."""
    t = as_scalar(t)
    out = F(1)
    for u in U:
        for v in V:
            w = as_scalar(u) * as_scalar(v)
            out *= (1 - t * w) / (1 - w)
    return out


def hecke_symmetrize(fn, U, t):
    """f cup = (1-t)^n / n!_t * sum_P P[f * prod (u_i - t u_j)/(u_i - u_j)], literally."""
    U = [as_scalar(u) for u in U]
    t = as_scalar(t)
    n = len(U)
    total = F(0)
    for P, amp in AnsatzTable(U, t).rows:
        total += fn([U[i] for i in P]) * amp
    return (1 - t) ** n / tfact(n, t) * total


def literal_symmetrized_kernel(U, V, t):
    """The left side of the Lascoux reduction term by term: the word's 2^n
    shift terms, tau^j zeroing the last j variables, on the Fraction kernel."""
    n = len(U)
    coeffs = [(-1) ** j * t ** (j * (j + 1) // 2) * tbinom(n, j, t) for j in range(n + 1)]

    def g(us):
        return sum(c * omega_t_product(us[: n - j], V, t) for j, c in enumerate(coeffs))

    return hecke_symmetrize(g, U, t)


def leibniz_det(rows):
    """The determinant as the signed sum over permutations, on Fractions."""
    n = len(rows)
    total = F(0)
    for P in permutations(range(n)):
        inversions = sum(P[i] > P[j] for i in range(n) for j in range(i + 1, n))
        term = F(-1) ** inversions
        for k, j in enumerate(P):
            term *= rows[k][j]
        total += term
    return total


def literal_gaudin_det(n, U, V, t):
    """t^{n(n-1)/2} / (1-t)^n det D / det d with the Fraction entries written out."""
    D = [[1 / ((1 - u * v) * (1 - t * u * v)) for v in V] for u in U]
    d = [[1 / (1 - t * u * v) for v in V] for u in U]
    return t ** (n * (n - 1) // 2) / (1 - t) ** n * leibniz_det(D) / leibniz_det(d)


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
    assert literal_symmetrized_kernel([u], [v], T) == lhs
    assert lascoux_reduction_check(1, [u], [v], T) == (True, [])


# the suite's t = 2/7 family, t = 0, negative t and a generic draw
T_VALUES = st.one_of(st.sampled_from([F(2, 7), F(0), F(-1, 2), F(-7, 4), F(5, 3)]),
                     st.integers(0, 10**6).map(lambda d: draw_params(d, "generic-t")[0]))


def lascoux_alphabets(n, seed):
    """U and V as the lascoux suite draws them."""
    return ([u / 4 for u in draw_params(seed + 3 * n, f"distinct-{n}")],
            [v / 4 for v in draw_params(seed + 7 * n + 1, f"distinct-{n}")])


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 10**6), T_VALUES)
def test_integer_left_side_equals_the_literal_expansion(n, seed, t):
    U, V = lascoux_alphabets(n, seed)
    # the kernel's poles only: off them the left side is defined at every t
    assume(all(u * v != 1 and t * u * v != 1 for u in U for v in V))
    assert _symmetrized_kernel(U, V, t) == literal_symmetrized_kernel(U, V, t)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 10**6), T_VALUES)
def test_integer_gaudin_det_equals_the_literal_determinant(n, seed, t):
    U, V = lascoux_alphabets(n, seed)
    where = singular_point(U, V, t)
    if where and where.startswith("t=0"):
        # d is the all-ones matrix: gaudin_det names its zero determinant,
        # the literal form divides by it
        with pytest.raises(ValueError, match=r"^singular evaluation point t=0: "):
            gaudin_det(n, U, V, t)
        with pytest.raises(ZeroDivisionError):
            literal_gaudin_det(n, U, V, t)
        return
    assume(where is None)
    assert gaudin_det(n, U, V, t) == literal_gaudin_det(n, U, V, t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lascoux_evaluates_each_kernel_pair_once(monkeypatch, n):
    # the kernel rows come from n^2 pair evaluations, not one per
    # permutation and word term (108 at n = 3)
    calls = []
    real = gaudin._kernel_pair

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gaudin, "_kernel_pair", counted)
    U, V = lascoux_alphabets(n, 0)
    assert lascoux_reduction_check(n, U, V, T) == (True, [])
    assert len(calls) == n * n


def test_gaudin_det_rejects_singular_point_with_its_name():
    with pytest.raises(ValueError, match=r"^singular evaluation point u=2, v=1/2, t=2/7: u v = 1$"):
        gaudin_det(2, [F(1, 3), F(2)], [F(1, 2), F(1, 7)], T)
    with pytest.raises(ValueError, match=r"^singular evaluation point u=7/2, v=1, t=2/7: t u v = 1$"):
        gaudin_det(1, [F(7, 2)], [F(1)], T)
    # the zeros of det[1/(1 - t u v)], which the ratio divides by
    for U, V, t, where in (
            ([F(1, 3), F(1, 5)], [F(1, 2), F(1, 7)], F(0),
             "t=0: det[1/(1 - t u v)] = 0 for n >= 2"),
            ([F(1, 3), F(1, 3)], [F(1, 2), F(1, 7)], T, "u=1/3 twice: det[1/(1 - t u v)] = 0"),
            ([F(1, 3), F(1, 5)], [F(1, 2), F(1, 2)], T, "v=1/2 twice: det[1/(1 - t u v)] = 0")):
        assert singular_point(U, V, t) == where
        with pytest.raises(ValueError, match=re.escape(f"singular evaluation point {where}")):
            gaudin_det(2, U, V, t)
    assert singular_point([F(1, 3)], [F(1, 2)], F(0)) is None  # n = 1 is regular at t = 0


def test_lascoux_n2_n3():
    rng = random.Random(9)
    U2 = [F(1, 3), F(2, 5)]
    V2 = [F(1, 2), F(3, 7)]
    assert lascoux_reduction_check(2, U2, V2, T) == (True, [])
    U3 = [F(1, 3), F(2, 5), F(3, 8)]
    V3 = [F(1, 2), F(3, 7), F(1, 5)]
    assert lascoux_reduction_check(3, U3, V3, T) == (True, [])


def test_lascoux_t_zero_degeneration():
    # n = 1 survives t = 0 literally (the det ratio is regular there);
    # for n >= 2 both sides vanish to the same order, so sample near zero
    assert lascoux_reduction_check(1, [F(1, 3)], [F(1, 2)], F(0)) == (True, [])
    U2 = [F(1, 3), F(2, 5)]
    V2 = [F(1, 2), F(3, 7)]
    assert lascoux_reduction_check(2, U2, V2, F(1, 1000)) == (True, [])


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
    # a repeated v zeroes the right side's divisor
    with pytest.raises(ValueError, match=r"v=1/2 twice"):
        lascoux_reduction_check(2, [F(1, 3), F(1, 5)], [F(1, 2), F(1, 2)], F(2, 7))


def literal_gaudin_sum(n, U, V, t, s, truncation):
    """The half-line sum term by term over `AnsatzTable.vector`, each vector
    times its prefactor 1/prod(1 + s u), and the literal norm, with the tail
    bound written out."""
    TU, TV = AnsatzTable(U, t, s), AnsatzTable(V, t, s)

    def prefactor(table):
        pref = F(1)
        for a in table.us:
            pref /= 1 + s * a
        return pref

    pU, pV = prefactor(TU), prefactor(TV)
    value = F(0)
    for mu_inc in combinations_with_replacement(range(truncation + 1), n):
        mu = tuple(sorted(mu_inc, reverse=True))
        value += pU * TU.vector(mu) * pV * TV.vector(mu) / spin_state_norm(mu, t, s)

    def bound(table):
        pref = F(1)
        for a in table.us:
            pref /= abs(1 + s * a)
        return pref * sum(abs(amp) for _, amp in table.rows)

    rho = max(map(abs, TU.xi)) * max(map(abs, TV.xi))
    tail = bound(TU) * bound(TV) / spin_norm_floor(n, t, s) * _tail_geometric(n, rho, truncation)
    return value, tail


ALPHABET_VALUE = st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=9).filter(
    lambda v: v != 0)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.data(), st.sampled_from([F(2, 7), F(-1, 2), F(5, 3), F(0)]),
       st.sampled_from([F(0), S]), st.integers(0, 8))
def test_integer_sum_equals_the_fraction_route(n, data, t, s, truncation):
    U = data.draw(st.lists(ALPHABET_VALUE, min_size=n, max_size=n, unique=True))
    V = data.draw(st.lists(ALPHABET_VALUE, min_size=n, max_size=n, unique=True))
    assert gaudin_sum(n, U, V, t, s, truncation) == \
        literal_gaudin_sum(n, U, V, t, s, truncation)


def test_tabulated_norm_equals_the_literal_norm():
    for t in (T, F(-1, 2), F(5, 3), F(0), F(-7, 4)):
        for s in (F(0), S, F(-1, 5), F(3)):
            for n in (1, 2, 3):
                factors = _SpinNorms(n, t, s)
                for mu_inc in combinations_with_replacement(range(7), n):
                    mu = mu_inc[::-1]
                    assert spin_state_norm(mu, t, s, factors) == spin_state_norm(mu, t, s), \
                        (t, s, mu)


# sha256 of the exact gaudin_sum values at the gaudin suite's seed-0 draws
# (truncation 60), recorded with the term-by-term Fraction sum
SEED0_SUMS_DIGEST = "8f6d70217a6f98a9de7319d0f630a3ba41d31edb519810575daa5b3bd99a4d0b"


def test_seed0_suite_sums_are_pinned():
    lines = []
    for n in (1, 2):
        U = draw_params(n, "gaudin", n)
        V = draw_params(10 + n, "gaudin", n)
        for s in (F(0), S):
            value, tail = gaudin_sum(n, U, V, T, s, 60)
            lines.append(f"{n} {format_scalar(s)} {format_scalar(value)} {format_scalar(tail)}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SEED0_SUMS_DIGEST


@pytest.mark.parametrize("n, t, s, state", [
    (1, F(1), F(0), "zero"),       # 1!_t = 1 - t
    (2, F(-1), F(0), "zero"),      # 2!_t = (1 - t)(1 - t^2)
    (2, F(4), F(1, 2), "undefined"),   # (s^2)_2 = (1 - s^2)(1 - s^2 t)
    (3, F(2, 7), F(1), "undefined"),   # (s^2)_1 = 1 - s^2
])
def test_degenerate_norm_rejected_before_the_loop(monkeypatch, n, t, s, state):
    calls = []
    monkeypatch.setattr(gaudin, "spin_state_norm", lambda *args: calls.append(args))
    U = [F(1, 10), F(1, 5), F(-1, 7)][:n]
    V = [F(1, 9), F(-1, 4), F(1, 3)][:n]
    with pytest.raises(ValueError, match=f"degenerate spin norm: .* is {state}"):
        gaudin_sum(n, U, V, t, s, truncation=4)
    assert calls == []


def test_gaudin_sum_rejects_bad_sizes():
    with pytest.raises(ValueError, match="truncation"):
        gaudin_sum(1, [F(1, 3)], [F(1, 2)], T, S, truncation=-1)
    with pytest.raises(ValueError, match="alphabet sizes"):
        gaudin_sum(2, [F(1, 3)], [F(1, 2), F(1, 5)], T, S, truncation=5)
