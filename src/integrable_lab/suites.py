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
from .graded import (commutator_items, covariance_items, graded_items, mismatch_items,
                     vector_mismatches)
from .partitions import (
    occupation_basis,
    occupation_to_partition,
    partition_basis,
    state_norm,
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

    def rational():
        while True:
            v = Fraction(rng.randint(-10, 10), rng.randint(1, 11))
            if v != 0:
                return v

    def distinct(k):
        out = []
        while len(out) < k:
            v = rational()
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


def _check(name, ref, failures, deviation="0", detail=""):
    """One check's report: it fails when its identity check returned
    failure items, and lists them, so a passing report never changes."""
    check = {"name": name, "paper_ref": ref, "status": "fail" if failures else "pass",
             "deviation": str(deviation) if failures else deviation, "detail": detail}
    if failures:
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
        _, fails = lattice.rll_check_qboson(u, v, t, cap)
        checks.append(_check(f"six-vertex RLL draw {i}", "six-vertex RLL relation",
                             fails, detail=f"u={u} v={v} t={t} cap={cap}"))
        z, uu = draw_params(seed + 100 + i, "distinct-2")
        # LL(uu) and the spin windows serve both checks of the draw, each
        # projected on a vector drawn from the draw's seed
        LL = baxter_q.build_LL(uu, t, cap + 1, cap + 1)
        windows = baxter_q.spin_windows(cap + 1, t)
        _, fails = baxter_q.ll_relations_check(LL, uu, t, windows, seed + 100 + i)
        checks.append(_check(f"auxiliary Lax relations draw {i}",
                             "q-Toda R-matrix commutation relations", fails))
        _, fails = baxter_q.toda_intertwine_check(LL, z, uu, t, windows, seed + 100 + i)
        checks.append(_check(f"Toda intertwining draw {i}",
                             "intertwining Yang-Baxter relation", fails))
    return checks


# the two omega-dual Pieri rules f_r F_mu = sum over strips lam/mu of size
# r of c_{lam/mu} F_lam: (check name, paper ref, alphabet draw seed + a i +
# b as (a, b), series f_r, side F of the alphabet, coefficient c, whose
# kind names the strips)
_PIERI_RULES = {
    "pieri": ("Pieri rule", "Hall-Littlewood Pieri rule", (7, 1),
              hl.complete_q_coeffs, "Q", "psi"),
    "hall-pieri": ("Hall Pieri rule", "Hall Pieri (elementary) rule", (11, 2),
                   lambda V, t, max_r: hl.elementary_e_coeffs(V, max_r), "P", "psi'"),
}


def _suite_pieri_rule(rule, seed, p):
    name, ref, (a, b), series_of, side, kind = _PIERI_RULES[rule]
    checks = []
    max_r = p["max_r"]
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        alphabet = draw_params(seed + a * i + b, f"distinct-{p['vars']}")
        series = series_of(alphabet, t, max_r)
        F = getattr(hl.Alphabet(alphabet, t), side)
        strips = partial(hl.PieriTable(t).strips, kind)
        failures = []
        for mu in partition_basis(p["max_weight"]):
            # one enumeration per mu, bucketed by strip size
            by_size = [[] for _ in range(max_r + 1)]
            for lam, c in strips(mu, max_r):
                by_size[weight(lam) - weight(mu)].append((lam, c))
            F_mu = F(mu)
            for r in range(1, max_r + 1):
                rhs = ZERO
                for lam, c in by_size[r]:
                    rhs += c * F(lam)
                if series[r] * F_mu != rhs:
                    failures += mismatch_items([(series[r] * F_mu, rhs)], None, mu=mu, r=r)
        checks.append(_check(f"{name} draw {i}", ref, failures, detail=f"t={t}"))
    return checks


def _suite_cauchy(kind, seed, p):
    checks = []
    degree = p["degree"]
    label = "Cauchy identity" if kind == "cauchy" else "dual Cauchy identity"
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        U = draw_params(seed + 13 * i + 3, f"distinct-{p['vars']}")
        V = draw_params(seed + 17 * i + 4, f"distinct-{p['vars']}")
        _, fails = hl.cauchy_coeff_check(degree, U, V, t, kind=kind)
        checks.append(_check(f"{label} draw {i}", label, fails, detail=f"degree<={degree}"))
    return checks


def _suite_gamma_commute(seed, p):
    checks = []
    D, deg = p["D"], p["degree"]
    t = _small_t(seed, 0)
    basis = partition_basis(D)
    gamma = {(fam, sign): vertex_ops.build_gamma(fam, sign, basis, t)
             for fam in ("L", "R") for sign in ("+", "-")}
    # every relation is projected on a vector drawn from the suite seed
    for fp, fm in [("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")]:
        _, fails = vertex_ops.gamma_commutation_check(gamma[fp, "+"], gamma[fm, "-"], deg, seed)
        checks.append(_check(f"raising/lowering exchange {fp}{fm}",
                             "half vertex operator exchange relations", fails,
                             detail=f"D={D} degree<={deg} t={t}"))
    for fam in ("L", "R"):
        failures = [{"sign": sign, **f} for sign in ("-", "+")
                    for f in vertex_ops.pair_commutation_check(gamma[fam, sign], deg, seed)[1]]
        checks.append(_check(f"same-sign commutation {fam}",
                             "commuting half vertex operators", failures))
    return checks


def _suite_gamma_eigen(seed, p):
    checks = []
    D, deg = p["D"], p["degree"]
    t = _small_t(seed, 0)
    basis = partition_basis(D)
    plus_L = vertex_ops.build_gamma("L", "+", basis, t)
    plus_R = vertex_ops.build_gamma("R", "+", basis, t)
    minus_L = vertex_ops.build_gamma("L", "-", basis, t)
    vacuum = {basis.index[()]: ONE}
    for nv in range(1, p["vars"] + 1):
        V = draw_params(seed + nv, f"distinct-{nv}")
        state_L = vertex_ops.build_eigenstate("L", V, basis, t)
        state_R = vertex_ops.build_eigenstate("R", V, basis, t)
        # the eigen relations are linear in the states: pin their scale, P_() = Q^omega_() = 1
        fails = [item for kind, state in (("L", state_L), ("R", state_R)) for item in
                 mismatch_items(vector_mismatches(state, vacuum, vacuum), basis, state=kind)]
        checks.append(_check(f"vacuum components, {nv} vars", "normalized eigenstates", fails))
        _, fails = vertex_ops.gamma_eigen_check(plus_L, "L", V, deg, state_L)
        checks.append(_check(f"annihilation on the Cauchy state, {nv} vars",
                             "eigenstate of the lowering transfer matrix", fails))
        _, fails = vertex_ops.gamma_eigen_check(plus_L, "R", V, deg, state_R)
        checks.append(_check(f"open Toda eigenvector, {nv} vars",
                             "open Toda chain eigenvectors", fails))
        _, fails = vertex_ops.gamma_eigen_check(plus_R, "L", V, deg, state_L)
        checks.append(_check(f"Hall-side annihilation, {nv} vars",
                             "Hall Pieri eigen relation", fails))
        _, fails = vertex_ops.covector_pieri_check(minus_L, V, deg)
        checks.append(_check(f"covector Pieri, {nv} vars",
                             "left eigencovector relation", fails))
        # finite-size form: the restriction to lam_1 <= nv (cap_basis, also
        # of weight cap D) of the Gammas and of state_R: a horizontal strip
        # below lam keeps lam_1 <= nv, and Gamma_{L,-} loses only rows
        cap_basis = partition_basis(D, max_part=nv)
        to_cap = {basis.index[lam]: k for k, lam in enumerate(cap_basis.states)}
        plus_cap, minus_cap = (
            vertex_ops.VertexOp("L", g.sign, cap_basis, t,
                                g.op.restrict(to_cap, len(cap_basis), D))
            for g in (plus_L, minus_L))
        state_cap = {k: state_R[j] for j, k in to_cap.items() if j in state_R}
        _, fails = vertex_ops.gamma_eigen_check(plus_cap, "R", V, deg, state_cap)
        checks.append(_check(f"finite-size open Toda eigenvector N={nv}",
                             "open Toda chain eigenvectors, finite size", fails))
        fails = [item for direction, gamma in (("right", minus_cap), ("left", plus_cap))
                 for item in graded_items(lattice.open_transfer(cap_basis, nv, t, direction),
                                          gamma.op, nv, range(len(cap_basis)), cap_basis,
                                          direction=direction)]
        checks.append(_check(f"finite-size consistency N={nv}",
                             "open-chain transfer vs vertex operator", fails))
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
        y_seed = seed + 31 * i + 6  # the left projection's draw, apart from x's
        failures = [{"N": N, "n": n, **f} for N in N_range for n in n_range
                    for f in baxter_q.tq_check(N, n, x, t, y_seed)[1]]
        checks.append(_check(f"TQ relation draw {i}", "Baxter TQ relation", failures,
                             detail=f"t={t} x={x}"))
    return checks


def _suite_lambda_q(seed, p):
    checks = []
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        x_seed = seed + 41 * i + 6  # also draws the commutators' projection vectors
        x = draw_params(x_seed, "generic", 1)[0]
        fails_lq, fails_qq, fails_tr = [], [], []
        for N, n in p["pairs"]:  # one Q-matrix per sector for the three checks
            # both commutators commute with the translation U when Lambda and
            # q do, so, U invertible, one column per orbit of U decides each
            basis = occupation_basis(N, n)
            perm, weights, reps = lattice.translation_orbits(basis, x)
            q = baxter_q.build_qmatrix(basis, x, t)
            lam = lattice.periodic_transfer(basis, x, t)
            fails_lq += commutator_items(lam, q, reps, basis, x_seed, N=N, n=n)
            fails_lq += covariance_items(lam, perm, weights, basis, N=N, n=n, operator="Lambda")
            fails_qq += commutator_items(q, q, reps, basis, x_seed, N=N, n=n)
            fails_tr += covariance_items(q, perm, weights, basis, N=N, n=n)
        checks.append(_check(f"transfer/Q commutation draw {i}",
                             "commuting transfer and Q matrices", fails_lq))
        checks.append(_check(f"Q self-commutation draw {i}",
                             "Q matrices commute at different arguments", fails_qq))
        checks.append(_check(f"Q translation covariance draw {i}",
                             "Q commutes with the one-step translation", fails_tr))
    # independent construction via the auxiliary-spin trace
    t = _small_t(seed, 99)
    x = draw_params(seed + 999, "generic", 1)[0]
    z = Fraction(3, 4)
    failures = []
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        q = baxter_q.build_qmatrix(basis, x, t)
        found = q.eval_at(z).mismatches(baxter_q.trace_qmatrix(N, n, z, x, t).block(0),
                                        range(q.dim))
        failures += mismatch_items(found, basis, N=N, n=n)
    checks.append(_check("trace construction agreement",
                         "auxiliary-spin trace vs closed form", failures))
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
                             "open-chain intertwining relation", failures,
                             detail=f"t={t} z={z} u={u}"))
    return checks


# (column mu, chain length N, alphabet draw offset k) of the staircase checks
_STAIRCASE_COLUMNS = [((2,), 5, 1), ((4, 1), 6, 2), ((3, 2), 6, 2),
                      ((5, 3, 1), 7, 3), ((4, 3, 1), 7, 3)]


def _suite_bethe(seed, p):
    checks = []
    t = _small_t(seed, 0)
    z = Fraction(3, 4)

    def on_locus(s):  # a (t, alphabets) draw on the ansatz locus at (z, s)
        return lambda t, alphabets: next(
            filter(None, (bethe.singular_point(us, z, s, t) for us in alphabets)), None)

    for s in (Fraction(0), Fraction(1, 6)):
        (ts, alphabets), redraw = _redraw_past(on_locus(s), lambda d: (
            _small_t(d, 0), [draw_params(d + 61 * k, f"distinct-{len(mu)}")
                             for mu, _, k in _STAIRCASE_COLUMNS]), seed)
        failures = [item for (mu, N, _), us in zip(_STAIRCASE_COLUMNS, alphabets)
                    for item in bethe.interior_staircase_check(mu, N, us, ts, s, z)[1]]
        checks.append(_check(f"interior staircase identity s={s}",
                             "coordinate Bethe ansatz, quantization-free", failures,
                             detail=_redrawn(redraw,
                                             "ansatz assumed beyond doubly-occupied targets")))
    us = draw_params(seed + 73, "distinct-2")
    _, fails = bethe.graded_pieri_on_integers_check((1, -1), us, t, 3)
    checks.append(_check("integer-window graded relation",
                         "infinite-chain eigen relation", fails))
    # periodic: solver + residual within float tolerances, the worst one reported
    X = Fraction(1)
    sysm1 = bethe.bethe_solve(3, 1, Fraction(1, 3), Fraction(0), Fraction(3, 5),
                              seeds=40, seed=seed + 1)
    off = max((abs(root[0] ** 3 - 0.6) for root in sysm1.roots), default=0.0)
    fails = [] if len(sysm1.roots) == 3 and off < 1e-12 else \
        mismatch_items([(f"{off:.3g}", "1e-12")], None, roots=len(sysm1.roots))
    checks.append(_check("closed-form roots M=1", "Bethe equations, one particle", fails,
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
    fails = [] if ok_res else mismatch_items([(f"{worst:.3g}", "1e-8")], None)
    checks.append(_check("periodic residuals N=3", "Bethe eigenvalue residual", fails,
                         deviation=worst,
                         detail="ansatz assumed beyond doubly-occupied targets"))
    s = Fraction(1, 6)
    (tp, [us]), redraw = _redraw_past(on_locus(s), lambda d: (
        _small_t(d, 0), [draw_params(d + 83, "distinct-2")]), seed)
    _, fails = bethe.pair_cancellation_check(*us, z, s, tp)
    checks.append(_check("two-body cancellation", "Bethe amplitude ratio", fails,
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
        failures = []
        worst = Fraction(0)
        for s in (Fraction(0), Fraction(1, 6)):
            val, tail = gaudin.gaudin_sum(n, U, V, t, s, truncation)
            if not abs(val - det) <= tail < Fraction(1, 10 ** 12):
                failures += mismatch_items([(val, det)], None, n=n, s=format_scalar(s),
                                           tail=format_scalar(tail))
            worst = max(worst, tail)
        checks.append(_check(f"sum vs determinant n={n}",
                             "Gaudin determinant scalar product", failures,
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
        _, fails = gaudin.lascoux_reduction_check(n, U, V, t)
        checks.append(_check(f"symmetrizer reduction n={n}",
                             "Hecke symmetrizer kernel reduction", fails,
                             detail=_redrawn(redraw)))
    return checks


def _suite_adjoint(seed, p):
    checks = []
    t = _small_t(seed, 0)
    x = draw_params(seed + 5, "generic", 1)[0]
    max_weight = p["max_weight"]
    norm = {lam: state_norm(lam, t) for lam in partition_basis(max_weight)}
    table = hl.PieriTable(t)
    failures = []
    for mu in norm:  # every horizontal strip lam/mu, mu/mu included
        room = max_weight - weight(mu)
        for (lam, phi), (_, psi) in zip(table.strips("phi", mu, room),
                                        table.strips("psi", mu, room)):
            lhs, rhs = phi * norm[mu], psi * norm[lam]
            if lhs != rhs:
                failures += mismatch_items([(lhs, rhs)], None, lam=lam, mu=mu)
    checks.append(_check("branching adjoint relation", "adjoint branching weights", failures))
    basis6 = partition_basis(6)
    failures = [item for family in ("L", "R")
                for item in vertex_ops.adjoint_pair_check(family, basis6, t)[1]]
    checks.append(_check("vertex operator adjoint pairs",
                         "norm-conjugated raising/lowering pair", failures))
    fails_lam, fails_q = [], []
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        basis = occupation_basis(N, n)
        norms = [state_norm(occupation_to_partition(m), t) for m in basis.states]
        fails_lam += lattice.hermitian_reflect_check(
            lambda xv: lattice.periodic_transfer(basis, xv, t), basis, norms, N, x,
            lambda xv: 1 / xv, N=N, n=n)[1]
        # (-1)^n: the reflected monomial z^{n/2} is really (-z)^{n/2} in q
        fails_q += lattice.hermitian_reflect_check(
            lambda xv: baxter_q.build_qmatrix(basis, xv, t), basis, norms, n, x,
            lambda xv: (-ONE) ** n, lattice.translation_op(basis, x), N=N, n=n)[1]
    checks.append(_check("transfer reflected conjugation",
                         "reciprocal-parameter conjugation of the transfer matrix", fails_lam))
    checks.append(_check("Q reflected conjugation",
                         "reciprocal-parameter conjugation of the Q matrix", fails_q))
    return checks


def _suite_gauge(seed, p):
    checks = []
    t = _small_t(seed, 0)
    x = draw_params(seed + 5, "generic", 1)[0]
    for N in (2, 3):
        _, fails = lattice.toda_gauge_check(N, t)
        checks.append(_check(f"gauge relations N={N}",
                             "q-boson/Toda gauge equivalence", fails))
    failures = []
    for (N, n) in [(2, 2), (3, 2), (3, 3)]:
        # the Toda side is summed as dicts, so it does not share the entry
        # accumulator that builds the q-boson side
        basis = occupation_basis(N, n)
        lam = lattice.periodic_transfer(basis, x, t)
        toda = lattice.folded_toda_columns(basis, x, t)
        for k in range(N + 1):  # column c of a block is its image of the basis vector c
            found = [(r, c, a, b) for c in range(lam.dim) for r, a, b in vector_mismatches(
                lam.block(k).apply({c: ONE}), toda.get(k, {}).get(c, {}))]
            failures += mismatch_items(found, basis, N=N, n=n, degree=k)
    checks.append(_check("periodic sector identification",
                         "Toda transfer equals the q-boson transfer", failures))
    return checks


def _suite_paper_matrices(seed, p):
    checks = []
    basis = occupation_basis(2, 2)
    for i in range(p["draws"]):
        t = _small_t(seed, i)
        z, x = draw_params(seed + 91 * i + 8, "distinct-2")
        lam = lattice.periodic_transfer(basis, x, t).eval_at(z)
        q = baxter_q.build_qmatrix(basis, x, t).eval_at(z)
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
        failures = [item for name, got, want in (("Lambda", lam_disp, lam_expect),
                                                 ("q", q_disp, q_expect))
                    for r in range(3) for c in range(3) if got[r][c] != want[r][c]
                    for item in mismatch_items([(got[r][c], want[r][c])], None,
                                               matrix=name, entry=(r, c))]
        checks.append(_check(f"printed 3x3 matrices draw {i}",
                             "printed transfer and Q matrices", failures,
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
