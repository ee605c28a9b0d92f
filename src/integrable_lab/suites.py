"""Named verification suites with deterministic parameter draws.

Each suite re-derives both sides of its identity through independent
code paths (different modules where possible), so a shared bug cannot
self-certify.  A SuiteSpec (name, parameters, seed) reproduces its
report byte for byte; exact suites report deviation 0 or fail, and a
failing check lists the failure items its identity check returned.
Each suite declares the params it reads with their defaults and least
values; a param it does not read, or a value that would leave one of its
checks nothing to assert, is rejected before the suite starts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import count

from .scalars import ONE, ZERO, format_scalar
from . import baxter_q, bethe, gaudin, hall_littlewood as hl, lattice, vertex_ops
from .partitions import (
    horizontal_strips_above,
    horizontal_strips_below,
    occupation_basis,
    occupation_to_partition,
    partition_basis,
    state_norm,
    vertical_strips_above,
    weight,
)


class SuiteSpec:
    def __init__(self, name: str, seed: int = 0, params: dict | None = None):
        self.name = name
        self.seed = seed
        self.params = dict(params or {})

    def __repr__(self):
        return f"SuiteSpec({self.name!r}, seed={self.seed}, params={self.params})"


def draw_params(seed: int, strategy: str, count: int = 1):
    """Deterministic pseudo-random rational draws.

    Magnitudes bounded by 10, denominators by 11; singular loci excluded
    per strategy: generic-t avoids t in {0, 1, -1}; distinct-k returns k
    pairwise distinct nonzero values; gaudin keeps every product inside
    the unit disk with room to spare.
    """
    rng = random.Random(seed)

    def rational(lo=-10, hi=10, den=11, nonzero=True):
        while True:
            v = Fraction(rng.randint(lo, hi), rng.randint(1, den))
            if not nonzero or v != 0:
                return v

    def distinct(k, lo=-10, hi=10, den=11):
        out = []
        while len(out) < k:
            v = rational(lo, hi, den)
            if v not in out:
                out.append(v)
        return out

    if strategy == "generic-t":
        out = []
        for _ in range(count):
            while True:
                v = rational()
                if v not in (1, -1):
                    out.append(v)
                    break
        return out
    if strategy == "generic":
        return [rational() for _ in range(count)]
    if strategy.startswith("distinct-"):
        return distinct(int(strategy.split("-", 1)[1]))
    if strategy == "gaudin":
        # all |u_k v_l| <= 1/2 and the xi-products stay geometric
        vals = []
        while len(vals) < count:
            v = Fraction(rng.randint(-5, 5), rng.randint(8, 11))
            if v != 0 and abs(v) <= Fraction(1, 2) and v not in vals:
                vals.append(v)
        return vals
    raise ValueError(f"unknown draw strategy {strategy!r}")


def _small_t(rng_seed, idx):
    """A generic t draw kept away from 0, 1, -1."""
    vals = draw_params(rng_seed * 1000 + idx, "generic-t", 1)
    return vals[0]


# seed offset between successive redraws of a singular draw
REDRAW = 1000


def _redraw_past(singular_point, draw, seed):
    """(values, k): values = draw(seed + REDRAW k) at the least k >= 0 where
    singular_point(*values) is None, so that a draw on a check's declared
    singular locus is replaced deterministically, not reported as a failure."""
    for k in count():
        values = draw(seed + REDRAW * k)
        if singular_point(*values) is None:
            return values, k


def _redrawn(k, detail=""):
    """A check's detail with the redraw count appended when there was one."""
    note = f"redrawn {k}x past singular draws" if k else ""
    return "; ".join(filter(None, (detail, note)))


def _check(name, ref, ok, deviation="0", detail="", failures=()):
    """One check's report; a failing check also lists the failure items
    its identity check returned, so a passing report never changes."""
    check = {"name": name, "paper_ref": ref, "status": "pass" if ok else "fail",
             "deviation": deviation if ok else str(deviation), "detail": detail}
    if not ok and failures:
        check["failures"] = list(failures)
    return check


# ---------------------------------------------------------------------------
# individual suites

def _suite_rll(seed, p):
    checks = []
    cap = p["cap"]
    for i in range(p["draws"]):
        u, v = draw_params(seed + i, "distinct-2")
        t = _small_t(seed, i)
        ok, fails = lattice.rll_check_qboson(u, v, t, cap)
        checks.append(_check(f"six-vertex RLL draw {i}", "six-vertex RLL relation",
                             ok, detail=f"u={u} v={v} t={t} cap={cap}", failures=fails))
        z, uu = draw_params(seed + 100 + i, "distinct-2")
        ok2, fails2 = baxter_q.ll_relations_check(uu, t, cap + 1)
        checks.append(_check(f"auxiliary Lax relations draw {i}",
                             "q-Toda R-matrix commutation relations", ok2, failures=fails2))
        ok3, fails3 = baxter_q.toda_intertwine_check(z, uu, t, cap + 1)
        checks.append(_check(f"Toda intertwining draw {i}",
                             "intertwining Yang-Baxter relation", ok3, failures=fails3))
    return checks


# the two omega-dual Pieri rules f_r F_mu = sum over strips lam/mu of size
# r of c_{lam/mu} F_lam: (check name, paper ref, alphabet draw seed + a i +
# b as (a, b), series f_r, side F of the alphabet, strips, coefficient c)
_PIERI_RULES = {
    "pieri": ("Pieri rule", "Hall-Littlewood Pieri rule", (7, 1),
              hl.complete_q_coeffs, "Q", horizontal_strips_above, "psi"),
    "hall-pieri": ("Hall Pieri rule", "Hall Pieri (elementary) rule", (11, 2),
                   lambda V, t, max_r: hl.elementary_e_coeffs(V, max_r), "P",
                   vertical_strips_above, "psi'"),
}


def _suite_pieri_rule(rule, seed, p):
    name, ref, (a, b), series_of, side, strips, kind = _PIERI_RULES[rule]
    checks = []
    max_r = p["max_r"]
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        alphabet = draw_params(seed + a * i + b, f"distinct-{p['vars']}")
        series = series_of(alphabet, t, max_r)
        F = getattr(hl.Alphabet(alphabet, t), side)
        coeff = hl.PieriTable(t).coeff
        ok = True
        for mu in partition_basis(p["max_weight"]):
            # one enumeration per mu, bucketed by strip size
            by_size = [[] for _ in range(max_r + 1)]
            for lam in strips(mu, max_r):
                by_size[weight(lam) - weight(mu)].append(lam)
            F_mu = F(mu)
            for r in range(1, max_r + 1):
                rhs = ZERO
                for lam in by_size[r]:
                    rhs += coeff(kind, lam, mu) * F(lam)
                ok = ok and series[r] * F_mu == rhs
        checks.append(_check(f"{name} draw {i}", ref, ok, detail=f"t={t}"))
    return checks


def _suite_cauchy(kind, seed, p):
    checks = []
    degree = p["degree"]
    label = "Cauchy identity" if kind == "cauchy" else "dual Cauchy identity"
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        U = draw_params(seed + 13 * i + 3, f"distinct-{p['vars']}")
        V = draw_params(seed + 17 * i + 4, f"distinct-{p['vars']}")
        ok, report = hl.cauchy_coeff_check(degree, U, V, t, kind=kind)
        bad = [r["degree"] for r in report if not r["ok"]]
        checks.append(_check(f"{label} draw {i}", label, ok,
                             detail=f"degree<={degree}" + (f" first bad {bad[:1]}" if bad else "")))
    return checks


def _suite_gamma_commute(seed, p):
    checks = []
    D, deg = p["D"], p["degree"]
    t = _small_t(seed, 0)
    basis = partition_basis(D)
    gamma = {(fam, sign): vertex_ops.build_gamma(fam, sign, basis, t)
             for fam in ("L", "R") for sign in ("+", "-")}
    for fp, fm in [("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")]:
        ok, fails = vertex_ops.gamma_commutation_check(gamma[fp, "+"], gamma[fm, "-"], deg)
        checks.append(_check(f"raising/lowering exchange {fp}{fm}",
                             "half vertex operator exchange relations", ok,
                             detail=f"D={D} degree<={deg} t={t}", failures=fails))
    for fam in ("L", "R"):
        failures = []
        for sign in ("-", "+"):
            _, fails = vertex_ops.pair_commutation_check(gamma[fam, sign], deg)
            failures += [{"sign": sign, **f} for f in fails]
        checks.append(_check(f"same-sign commutation {fam}",
                             "commuting half vertex operators", not failures,
                             failures=failures))
    return checks


def _suite_gamma_eigen(seed, p):
    checks = []
    D, deg = p["D"], p["degree"]
    t = _small_t(seed, 0)
    basis = partition_basis(D)
    plus_L = vertex_ops.build_gamma("L", "+", basis, t)
    plus_R = vertex_ops.build_gamma("R", "+", basis, t)
    minus_L = vertex_ops.build_gamma("L", "-", basis, t)
    for nv in range(1, p["vars"] + 1):
        V = draw_params(seed + nv, f"distinct-{nv}")
        state_L = vertex_ops.build_eigenstate("L", V, basis, t)
        ok, fails = vertex_ops.gamma_eigen_check(plus_L, "L", V, deg, state_L)
        checks.append(_check(f"annihilation on the Cauchy state, {nv} vars",
                             "eigenstate of the lowering transfer matrix", ok, failures=fails))
        ok, fails = vertex_ops.gamma_eigen_check(plus_L, "R", V, deg)
        checks.append(_check(f"open Toda eigenvector, {nv} vars",
                             "open Toda chain eigenvectors", ok, failures=fails))
        ok, fails = vertex_ops.gamma_eigen_check(plus_R, "L", V, deg, state_L)
        checks.append(_check(f"Hall-side annihilation, {nv} vars",
                             "Hall Pieri eigen relation", ok, failures=fails))
        ok, fails = vertex_ops.covector_pieri_check(minus_L, V, deg)
        checks.append(_check(f"covector Pieri, {nv} vars",
                             "left eigencovector relation", ok, failures=fails))
        # finite-size form: the restriction to lam_1 <= nv acts on the
        # nv-variable dual state exactly the same way
        cap_basis = partition_basis(D, max_part=nv)
        plus_cap = vertex_ops.build_gamma("L", "+", cap_basis, t)
        ok, fails = vertex_ops.gamma_eigen_check(plus_cap, "R", V, deg)
        checks.append(_check(f"finite-size open Toda eigenvector N={nv}",
                             "open Toda chain eigenvectors, finite size", ok, failures=fails))
        A_run = lattice.open_transfer(cap_basis, nv, t, direction="right")
        gm = vertex_ops.build_gamma("L", "-", cap_basis, t)
        okA = all(A_run.block(d) == gm.block(d) for d in range(nv + 1))
        Ab_run = lattice.open_transfer(cap_basis, nv, t, direction="left")
        okB = all(Ab_run.block(d) == plus_cap.block(d) for d in range(nv + 1))
        checks.append(_check(f"finite-size consistency N={nv}",
                             "open-chain transfer vs vertex operator", okA and okB))
    return checks


def _suite_tq(seed, p):
    checks = []
    N_range, n_range = p["N_range"], p["n_range"]
    if isinstance(N_range, int):
        N_range = [N_range]
    if isinstance(n_range, int):
        n_range = [n_range]
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        x = draw_params(seed + 31 * i + 5, "generic", 1)[0]
        failures = []
        for N in N_range:
            for n in n_range:
                _, fails = baxter_q.tq_check(N, n, x, t)
                failures += [{"N": N, "n": n, **f} for f in fails]
        checks.append(_check(f"TQ relation draw {i}", "Baxter TQ relation",
                             not failures, detail=f"t={t} x={x}", failures=failures))
    return checks


def _suite_lambda_q(seed, p):
    checks = []
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        x = draw_params(seed + 41 * i + 6, "generic", 1)[0]
        ok_lq = ok_qq = ok_tr = True
        for N, n in p["pairs"]:  # one Q-matrix per sector for the three checks
            q = baxter_q.build_qmatrix(N, n, x, t)
            ok_lq = ok_lq and baxter_q.lambda_q_commute_check(
                lattice.periodic_transfer(N, n, x, t), q)
            ok_qq = ok_qq and baxter_q.qq_commute_check(q)
            ok_tr = ok_tr and baxter_q.q_translation_check(q, lattice.translation_op(N, n, x))
        checks.append(_check(f"transfer/Q commutation draw {i}",
                             "commuting transfer and Q matrices", ok_lq))
        checks.append(_check(f"Q self-commutation draw {i}",
                             "Q matrices commute at different arguments", ok_qq))
        checks.append(_check(f"Q translation covariance draw {i}",
                             "Q commutes with the one-step translation", ok_tr))
    # independent construction via the auxiliary-spin trace
    t = _small_t(seed, 99)
    x = draw_params(seed + 999, "generic", 1)[0]
    z = Fraction(3, 4)
    ok = True
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        q = baxter_q.build_qmatrix(N, n, x, t)
        ok = ok and q.eval_at(z) == baxter_q.trace_qmatrix(N, n, z, x, t).block(0)
    checks.append(_check("trace construction agreement",
                         "auxiliary-spin trace vs closed form", ok))
    return checks


def _suite_ar_project(seed, p):
    checks = []
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        z, u = draw_params(seed + 51 * i + 7, "distinct-2")
        failures = []
        for N in range(1, p["N_max"] + 1):
            max_len = N + 3 if p["max_len"] is None else p["max_len"]
            _, fails = baxter_q.ar_project_check(N, z, u, t, p["max_weight"], max_len)
            failures += [{"N": N, **f} for f in fails]
        checks.append(_check(f"projected intertwining draw {i}",
                             "open-chain intertwining relation", not failures,
                             detail=f"t={t} z={z} u={u}", failures=failures))
    return checks


# (column mu, chain length N, alphabet draw offset k) of the staircase checks
_STAIRCASE_COLUMNS = [((2,), 5, 1), ((4, 1), 6, 2), ((3, 2), 6, 2),
                      ((5, 3, 1), 7, 3), ((4, 3, 1), 7, 3)]


def _suite_bethe(seed, p):
    checks = []
    t = _small_t(seed, 0)
    z = Fraction(3, 4)

    def on_locus(s):  # a (t, alphabets) draw on the ansatz locus at (z, s)
        return lambda t, alphabets: bethe.singular_point(
            [u for us in alphabets for u in us], z, s, t)

    for s in (Fraction(0), Fraction(1, 6)):
        (ts, alphabets), redraw = _redraw_past(on_locus(s), lambda d: (
            _small_t(d, 0), [draw_params(d + 61 * k, f"distinct-{len(mu)}")
                             for mu, _, k in _STAIRCASE_COLUMNS]), seed)
        ok = True
        for (mu, N, _), us in zip(_STAIRCASE_COLUMNS, alphabets):
            good, _, _ = bethe.interior_staircase_check(mu, N, us, ts, s, z)
            ok = ok and good
        checks.append(_check(f"interior staircase identity s={s}",
                             "coordinate Bethe ansatz, quantization-free", ok,
                             detail=_redrawn(redraw,
                                             "ansatz assumed beyond doubly-occupied targets")))
    us = draw_params(seed + 73, "distinct-2")
    okp, _ = bethe.graded_pieri_on_integers_check((2, -1), us, t, 3)
    checks.append(_check("integer-window graded relation",
                         "infinite-chain eigen relation", okp))
    # periodic: solver + residual
    X = Fraction(1)
    sysm1 = bethe.bethe_solve(3, 1, Fraction(1, 3), Fraction(0), Fraction(3, 5),
                              seeds=40, seed=seed + 1)
    closed = all(abs(root[0] ** 3 - 0.6) < 1e-12 for root in sysm1.roots)
    checks.append(_check("closed-form roots M=1", "Bethe equations, one particle",
                         len(sysm1.roots) == 3 and closed,
                         deviation=max(sysm1.residuals, default=0.0)))
    ok_res = True
    worst = 0.0
    for M in (1, 2):
        system = bethe.bethe_solve(3, M, Fraction(1, 3), Fraction(0), X,
                                   seeds=40, seed=seed + 2)
        ok_res = ok_res and bool(system.roots)
        ok_res = ok_res and all(r < 1e-10 for r in system.residuals)
        res = bethe.periodic_eigen_residual(system, complex(0.37))
        worst = max(worst, res)
        ok_res = ok_res and res < 1e-8
    checks.append(_check("periodic residuals N=3", "Bethe eigenvalue residual",
                         ok_res, deviation=worst,
                         detail="ansatz assumed beyond doubly-occupied targets"))
    s = Fraction(1, 6)
    (tp, [us]), redraw = _redraw_past(on_locus(s), lambda d: (
        _small_t(d, 0), [draw_params(d + 83, "distinct-2")]), seed)
    okc = bethe.pair_cancellation_check(*us, z, s, tp)
    checks.append(_check("two-body cancellation", "Bethe amplitude ratio", okc,
                         detail=_redrawn(redraw)))
    return checks


def _suite_gaudin(seed, p):
    checks = []
    t = Fraction(2, 7)
    truncation = p["truncation"]
    for n in (1, 2):
        U = draw_params(seed + n, "gaudin", n)
        V = draw_params(seed + 10 + n, "gaudin", n)
        det = gaudin.gaudin_det(n, U, V, t)
        ok = True
        worst = Fraction(0)
        for s in (Fraction(0), Fraction(1, 6)):
            val, tail = gaudin.gaudin_sum(n, U, V, t, s, truncation)
            gap = val - det
            gap = gap if gap >= 0 else -gap
            ok = ok and gap <= tail and tail < Fraction(1, 10 ** 12)
            worst = max(worst, tail)
        checks.append(_check(f"sum vs determinant n={n}",
                             "Gaudin determinant scalar product", ok,
                             deviation=format_scalar(worst),
                             detail="two spin values; tail bound returned"))
    return checks


def _suite_lascoux(seed, p):
    checks = []
    t = _small_t(seed, 0)
    for n in (1, 2, 3):
        (U, V), redraw = _redraw_past(lambda U, V: gaudin.singular_point(U, V, t), lambda d: (
            [u / 4 for u in draw_params(d + 3 * n, f"distinct-{n}")],
            [v / 4 for v in draw_params(d + 7 * n + 1, f"distinct-{n}")]), seed)
        ok = gaudin.lascoux_reduction_check(n, U, V, t)
        checks.append(_check(f"symmetrizer reduction n={n}",
                             "Hecke symmetrizer kernel reduction", ok,
                             detail=_redrawn(redraw)))
    return checks


def _suite_adjoint(seed, p):
    checks = []
    t = _small_t(seed, 0)
    x = draw_params(seed + 5, "generic", 1)[0]
    norm = {lam: state_norm(lam, t) for lam in partition_basis(p["max_weight"])}
    coeff = hl.PieriTable(t).coeff
    ok = True
    for lam in norm:  # every horizontal strip lam/mu, lam/lam included
        for mu in horizontal_strips_below(lam):
            ok = ok and coeff("phi", lam, mu) * norm[mu] == coeff("psi", lam, mu) * norm[lam]
    checks.append(_check("branching adjoint relation", "adjoint branching weights", ok))
    basis6 = partition_basis(6)
    checks.append(_check("vertex operator adjoint pairs",
                         "norm-conjugated raising/lowering pair",
                         vertex_ops.adjoint_pair_check("L", basis6, t) and
                         vertex_ops.adjoint_pair_check("R", basis6, t)))
    ok_lam = True
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        norms = [state_norm(occupation_to_partition(m), t) for m in basis.states]
        ok_lam = ok_lam and lattice.hermitian_reflect_check(
            lambda xv: lattice.periodic_transfer(N, n, xv, t), norms, N, x,
            lambda xv: 1 / xv)
    checks.append(_check("transfer reflected conjugation",
                         "reciprocal-parameter conjugation of the transfer matrix", ok_lam))
    ok_q = all(baxter_q.q_hermitian_reflect_check(N, n, x, t)
               for (N, n) in [(2, 2), (3, 2), (3, 3)])
    checks.append(_check("Q reflected conjugation",
                         "reciprocal-parameter conjugation of the Q matrix", ok_q))
    return checks


def _suite_gauge(seed, p):
    checks = []
    t = _small_t(seed, 0)
    x = draw_params(seed + 5, "generic", 1)[0]
    for N in (2, 3):
        ok, fails = lattice.toda_gauge_check(N, t, window_top=N + 2)
        checks.append(_check(f"gauge relations N={N}",
                             "q-boson/Toda gauge equivalence", ok, failures=fails))
    ok = True
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        ok = ok and lattice.periodic_transfer(N, n, x, t) == \
            lattice.folded_toda_transfer(N, n, x, t)
    checks.append(_check("periodic sector identification",
                         "Toda transfer equals the q-boson transfer", ok))
    return checks


def _suite_paper_matrices(seed, p):
    checks = []
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        z, x = draw_params(seed + 91 * i + 8, "distinct-2")
        lam = lattice.periodic_transfer(2, 2, x, t).eval_at(z)
        q = baxter_q.build_qmatrix(2, 2, x, t).eval_at(z)
        # displayed in the source layout: reversed basis order, rows=targets
        lam_disp = [[lam.entry(2 - r, 2 - c) for c in range(3)] for r in range(3)]
        q_disp = [[q.entry(2 - r, 2 - c) for c in range(3)] for r in range(3)]
        lam_expect = [
            [1 + z * z * x, (1 - t) * z, ZERO],
            [(1 - t * t) * z * x, 1 + z * z * x, (1 - t * t) * z],
            [ZERO, (1 - t) * z * x, 1 + z * z * x],
        ]
        q_expect = [
            [ONE, -z, z * z],
            [-(1 + t) * z * x, 1 + z * z * x, -(1 + t) * z],
            [z * z * x * x, -z * x, ONE],
        ]
        ok = lam_disp == lam_expect and q_disp == q_expect
        checks.append(_check(f"printed 3x3 matrices draw {i}",
                             "printed transfer and Q matrices", ok,
                             detail=f"z={z} x={x} t={t}; display order reversed"))
    return checks


def _ar_project_least(p):
    """ar_project_check asserts the columns with headroom N + 1 in weight
    and length, so the empty partition needs both caps >= N_max + 1."""
    return p["N_max"] + 1


def _gamma_least(p):
    """The vertex-operator checks assert degree r on the states of weight
    <= D - r, so the empty partition needs D >= degree."""
    return p["degree"]


_PIERI_PARAMS = {"draws": ("draws", 3, 1), "max_weight": ("max_weight", 5, 0),
                 "max_r": (None, 3, 1), "vars": ("vars", 3, 1)}
_CAUCHY_PARAMS = {"draws": ("draws", 3, 1), "degree": ("degree", 6, 1), "vars": ("vars", 3, 1)}

# name -> (suite, {param: (verify flag, default, least value)}) for the
# params the suite reads.  The flag is None when only run_suite can pass
# the param (values that are not a single integer, and max_r).  The least
# value is the smallest that leaves every check something to assert
# (None: no bound, or a function of the other params); a list or range
# needs every member at least that.
_SUITES = {
    "rll": (_suite_rll, {"cap": ("cap", 5, 2), "draws": ("draws", 5, 1)}),
    "pieri": (partial(_suite_pieri_rule, "pieri"), _PIERI_PARAMS),
    "hall-pieri": (partial(_suite_pieri_rule, "hall-pieri"), _PIERI_PARAMS),
    "cauchy": (partial(_suite_cauchy, "cauchy"), _CAUCHY_PARAMS),
    "dual-cauchy": (partial(_suite_cauchy, "dual"), _CAUCHY_PARAMS),
    "gamma-commute": (_suite_gamma_commute, {"D": ("D", 10, _gamma_least),
                                             "degree": ("degree", 4, 1)}),
    "gamma-eigen": (_suite_gamma_eigen, {"D": ("D", 10, _gamma_least),
                                         "degree": ("degree", 4, 1), "vars": ("vars", 3, 1)}),
    "tq": (_suite_tq, {"draws": ("draws", 3, 1), "N_range": ("N", range(1, 5), 1),
                       "n_range": ("n", range(0, 5), 0)}),
    "lambda-q": (_suite_lambda_q, {"draws": ("draws", 3, 1),
                                   "pairs": (None, [(2, 2), (3, 2), (2, 3), (3, 3)], None)}),
    "ar-project": (_suite_ar_project, {"draws": ("draws", 3, 1), "N_max": ("N", 3, 1),
                                       "max_weight": ("max_weight", 8, _ar_project_least),
                                       "max_len": ("max_len", None, _ar_project_least)}),
    "bethe": (_suite_bethe, {}),
    "gaudin": (_suite_gaudin, {"truncation": ("truncation", 60, 0)}),
    "lascoux": (_suite_lascoux, {}),
    "adjoint": (_suite_adjoint, {"max_weight": ("max_weight", 8, 0)}),
    "gauge": (_suite_gauge, {}),
    "paper-matrices": (_suite_paper_matrices, {"draws": ("draws", 5, 1)}),
}

SUITE_NAMES = sorted(_SUITES)


def _registered(name: str):
    """(suite, params it reads); the KeyError for an unknown name lists the known ones."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return _SUITES[name]


def suite_flags(name: str) -> dict:
    """{verify flag: param} for the flags the named suite reads."""
    return {flag: param for param, (flag, _, _) in _registered(name)[1].items() if flag}


def suite_params(spec: SuiteSpec) -> dict:
    """Every param the suite reads: the given value (made an integer unless
    it is a list, tuple or range) or its default.

    Raises KeyError for a param the suite does not read and ValueError,
    naming the param, its flag and the value, for a value below its least
    value and for an empty list, tuple or range.
    """
    reads = _registered(spec.name)[1]
    unread = sorted(set(spec.params) - set(reads))
    if unread:
        raise KeyError(f"suite {spec.name!r} does not read {', '.join(unread)}; "
                       f"it reads {', '.join(sorted(reads)) or 'no params'}")
    params = {}
    for param, (_, default, _) in reads.items():
        value = spec.params.get(param, default)
        if value is not None and not isinstance(value, (list, tuple, range)):
            value = int(value)
        params[param] = value
    for param, (flag, _, least) in reads.items():
        value = params[param]
        if value is None:
            continue
        if callable(least):
            least = least(params)
        members = list(value) if isinstance(value, (list, tuple, range)) else [value]
        if not members or least is not None and min(members) < least:
            via = f" (--{flag})" if flag else ""
            need = "nonempty" if least is None else f">= {least}"
            raise ValueError(f"suite {spec.name!r} needs {param} {need}{via}, got {value}")
    return params


def run_suite(spec: SuiteSpec) -> dict:
    """Run a registered suite; the report is reproducible from (name, seed).

    Its params are checked first (`suite_params`): a param the suite does
    not read is rejected, not ignored, and so is a value that would leave a
    check nothing to assert.
    """
    suite, _ = _registered(spec.name)
    checks = suite(spec.seed, suite_params(spec))
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {
        "suite": spec.name,
        "seed": spec.seed,
        "params": {k: str(v) for k, v in sorted(spec.params.items())},
        "status": status,
        "checks": checks,
    }
