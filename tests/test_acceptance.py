"""Acceptance criteria, one test each, run at the stated parameters.

Every criterion prints a single PASS/FAIL line; exact checks allow zero
deviation, the numeric ones carry their stated tolerances (solver
residual 1e-10, eigen residual 1e-8, closed-form roots 1e-12, Gaudin
tail 1e-12 at truncation 60).
"""

import time
from fractions import Fraction as F

from integrable_lab.suites import SuiteSpec, run_suite
from integrable_lab import baxter_q, bethe, gaudin, lattice
from integrable_lab.graded import commutator_items
from integrable_lab.partitions import occupation_basis
from integrable_lab.suites import draw_params


def report(idx, name, ok, extra=""):
    line = f"ACCEPTANCE {idx:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_printed_matrices():
    rep = run_suite(SuiteSpec("paper-matrices", seed=2026, params={"draws": 5}))
    report(1, "printed-matrix reproduction", rep["status"] == "pass",
           f"{len(rep['checks'])} draws, zero deviation")


def test_criterion_02_tq_full_range():
    start = time.time()
    ok = True
    for i in range(3):
        t = draw_params(300 + i, "generic-t", 1)[0]
        x = draw_params(400 + i, "generic", 1)[0]
        for N in range(1, 5):
            for n in range(0, 5):
                good, _ = baxter_q.tq_check(N, n, x, t)
                ok = ok and good
    elapsed = time.time() - start
    report(2, "TQ relation (N,n) in 1..4 x 0..4", ok and elapsed < 60,
           f"3 draws, {elapsed:.1f}s")


def test_criterion_03_commutation():
    ok = True
    for i in range(3):
        t = draw_params(500 + i, "generic-t", 1)[0]
        x = draw_params(600 + i, "generic", 1)[0]
        for N in range(1, 4):
            for n in range(1, 4):
                basis = occupation_basis(N, n)
                q = baxter_q.build_qmatrix(N, n, x, t)
                ok = ok and not commutator_items(lattice.periodic_transfer(N, n, x, t), q, basis)
                ok = ok and not commutator_items(q, q, basis)
    report(3, "transfer/Q and Q/Q commutation", ok, "(N,n) <= (3,3), 3 draws")


def test_criterion_04_rll():
    ok = True
    for i in range(5):
        u, v = draw_params(700 + i, "distinct-2")
        t = draw_params(800 + i, "generic-t", 1)[0]
        good, _ = lattice.rll_check_qboson(u, v, t, cap=5)
        ok = ok and good
        z, uu = draw_params(900 + i, "distinct-2")
        LL, windows = baxter_q.build_LL(uu, t, 6, 6), baxter_q.spin_windows(6, t)
        good2, _ = baxter_q.ll_relations_check(LL, uu, t, windows)
        good3, _ = baxter_q.toda_intertwine_check(LL, z, uu, t, windows)
        ok = ok and good2 and good3
    report(4, "RLL and Toda intertwining", ok, "cap 5, 5 draws, four relations")


def test_criterion_05_pieri_suites():
    rep1 = run_suite(SuiteSpec("pieri", seed=2026,
                               params={"max_weight": 5, "max_r": 3, "vars": 3, "draws": 3}))
    rep2 = run_suite(SuiteSpec("hall-pieri", seed=2027,
                               params={"max_weight": 5, "max_r": 3, "vars": 3, "draws": 3}))
    report(5, "Pieri and Hall Pieri rules",
           rep1["status"] == "pass" and rep2["status"] == "pass",
           "|mu| <= 5, r <= 3, 3 vars, 3 draws")


def test_criterion_06_cauchy():
    rep1 = run_suite(SuiteSpec("cauchy", seed=2028,
                               params={"degree": 6, "vars": 3, "draws": 3}))
    rep2 = run_suite(SuiteSpec("dual-cauchy", seed=2029,
                               params={"degree": 6, "vars": 3, "draws": 3}))
    report(6, "Cauchy and dual Cauchy to degree 6",
           rep1["status"] == "pass" and rep2["status"] == "pass", "3+3 vars, 3 draws")


def test_criterion_07_vertex_commutations():
    rep = run_suite(SuiteSpec("gamma-commute", seed=2030,
                              params={"D": 10, "degree": 4}))
    report(7, "vertex operator exchange relations", rep["status"] == "pass",
           "all four cases, total degree 4, D = 10")


def test_criterion_08_open_toda_eigenvectors():
    rep = run_suite(SuiteSpec("gamma-eigen", seed=2031,
                              params={"D": 10, "degree": 4, "vars": 3}))
    report(8, "open Toda eigenvectors and finite-size consistency",
           rep["status"] == "pass", "degree 4, N <= 3 vars, D = 10")


def test_criterion_09_intertwining():
    ok = True
    for i in range(3):
        t = draw_params(1000 + i, "generic-t", 1)[0]
        z, u = draw_params(1100 + i, "distinct-2")
        for N in (1, 2, 3):
            good, _ = baxter_q.ar_project_check(N, z, u, t, max_weight=8,
                                                max_len=N + 3)
            ok = ok and good
    report(9, "projected open-chain intertwining", ok, "N <= 3, 3 draws")


def test_criterion_10_bethe():
    t = F(2, 7)
    s_draws = [F(0), F(1, 6)]
    z = F(3, 4)
    ok = True
    for s in s_draws:
        for (mu, N) in [((2,), 5), ((4, 1), 6), ((3, 2), 6), ((5, 3, 1), 7),
                        ((4, 3, 1), 7), ((2, 1, 0), 4)]:
            us = draw_params(1200 + len(mu), f"distinct-{len(mu)}")
            good, _ = bethe.interior_staircase_check(mu, N, us, t, s, z)
            ok = ok and good
    closed = bethe.bethe_solve(3, 1, F(1, 3), F(0), F(3, 5), seeds=40, seed=4)
    ok = ok and len(closed.roots) == 3
    ok = ok and all(abs(root[0] ** 3 - 0.6) < 1e-12 for root in closed.roots)
    worst = 0.0
    for M in (1, 2):
        system = bethe.bethe_solve(3, M, F(1, 3), F(0), F(1), seeds=40, seed=5)
        ok = ok and bool(system.roots) and all(r < 1e-10 for r in system.residuals)
        res = bethe.periodic_eigen_residual(system, complex(0.37))
        worst = max(worst, res)
        ok = ok and res < 1e-8
    report(10, "Bethe interior and periodic checks", ok,
           f"M <= 3 exact; worst periodic residual {worst:.2e}")


def test_criterion_11_gaudin_and_lascoux():
    t = F(2, 7)
    ok = True
    worst_tail = F(0)
    for n in (1, 2):
        U = draw_params(1300 + n, "gaudin", n)
        V = draw_params(1400 + n, "gaudin", n)
        det = gaudin.gaudin_det(n, U, V, t)
        for s in (F(0), F(1, 6)):
            val, tail = gaudin.gaudin_sum(n, U, V, t, s, truncation=60)
            gap = abs(val - det)
            ok = ok and gap <= tail and tail < F(1, 10 ** 12)
            worst_tail = max(worst_tail, tail)
    for n in (1, 2, 3):
        U = [u / 4 for u in draw_params(1500 + n, f"distinct-{n}")]
        V = [v / 4 for v in draw_params(1600 + n, f"distinct-{n}")]
        ok = ok and gaudin.lascoux_reduction_check(n, U, V, t)[0]
    report(11, "Gaudin sum vs determinant; symmetrizer reduction", ok,
           f"two spins, tail <= {float(worst_tail):.1e}; n <= 3 exact")


def test_criterion_12_adjoint_structure():
    rep = run_suite(SuiteSpec("adjoint", seed=2032, params={"max_weight": 8}))
    report(12, "adjoint and reflected conjugation structure",
           rep["status"] == "pass", "|lam| <= 8; transfer and Q at N <= 3")
