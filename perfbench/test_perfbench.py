"""Tests of the benchmark itself: tracer bookkeeping, hygiene and inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import gc
import json
import math
import sys
from fractions import Fraction

import pytest

import run
import workloads
from tracer import Tracer, _asserted_columns

LAB = workloads.load_lab()


def tiny_ops():
    """A cheap pass touching suites, sparse algebra, scalars and the CLI."""
    ops = [("suite", "lambda-q", {"pairs": [(2, 2)], "draws": 1}, 0),
           ("suite", "paper-matrices", {}, 1),
           ("suite", "lascoux", {}, 2)]
    return ops + workloads.make_pass(LAB, workloads.CLI_WORKLOAD, 3, 0)[:12]


def namespace_snapshot():
    """Every binding in the lab's modules and classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "integrable_lab" or name.startswith("integrable_lab."):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
    for cls in (LAB.graded.SparseMatrix, LAB.graded.GradedOperator):
        for key, value in vars(cls).items():
            snap[(cls.__name__, key)] = value
    return snap


def assert_same_bindings(before, after):
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed


def test_self_times_nonnegative_and_sum_to_root():
    ops = tiny_ops()
    result = workloads.PassResult()
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        outputs = workloads.call_pass(LAB, ops, result)
    workloads.check_pass(LAB, ops, outputs, result)
    assert result.failed == 0, result.problems

    times = tracer.self_times()
    root_self, root_total, root_count = times["pass"]
    assert root_count == 1
    assert all(self_s >= -1e-12 for self_s, _, _ in times.values())
    assert sum(self_s for self_s, _, _ in times.values()) == pytest.approx(root_total, rel=1e-9)
    # the tiny pass reaches several layers
    for name in ("graded.mul", "baxter_q.build_qmatrix", "scalars.tpoch", "cli.main",
                 "partitions.basis", "hall_littlewood.skew_P"):
        assert times[name][2] > 0, name
    assert tracer.counts["graded.add_to"] > 0
    assert tracer.counts["scalars.tbinom"] > 0


def test_wrappers_cover_every_binding_and_are_removed():
    before = namespace_snapshot()
    original = LAB.scalars.tbinom
    with Tracer().installed():
        # tbinom is bound in scalars, baxter_q, gaudin and the package
        wrapped = LAB.scalars.tbinom
        assert wrapped is not original and wrapped.__wrapped__ is original
        for mod in (LAB.baxter_q, LAB.gaudin, LAB):
            assert mod.tbinom is wrapped
        assert LAB.graded.SparseMatrix.__dict__["mul"].__wrapped__ is not None
    assert_same_bindings(before, namespace_snapshot())


def test_wrappers_removed_when_pass_raises():
    before = namespace_snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert_same_bindings(before, namespace_snapshot())


def test_untraced_run_installs_nothing(monkeypatch):
    before = namespace_snapshot()
    callbacks = list(gc.callbacks)
    seen = []
    real_run_pass = workloads.run_pass

    def checking_run_pass(lab, ops, calibration=None):
        assert_same_bindings(before, namespace_snapshot())
        assert gc.callbacks == callbacks
        seen.append(len(ops))
        return real_run_pass(lab, ops[:20], calibration)

    monkeypatch.setattr(workloads, "run_pass", checking_run_pass)
    results = run.run_untraced(LAB, workloads.CLI_WORKLOAD, seed=4, seconds=0)
    assert seen and results[0].failed == 0
    assert_same_bindings(before, namespace_snapshot())


def test_same_seed_same_inputs_and_digests():
    for workload in workloads.WORKLOADS:
        first = workloads.make_pass(LAB, workload, 7, 2)
        assert first == workloads.make_pass(LAB, workload, 7, 2)
        assert first != workloads.make_pass(LAB, workload, 8, 2)
    ops = [("suite", "paper-matrices", {}, 5), ("suite", "lascoux", {}, 5)]
    digests = [workloads.run_pass(LAB, ops).reports for _ in range(2)]
    assert digests[0] == digests[1]
    # the record covers what the run produces
    recorded = run.load_digests()
    key, seed, digest = digests[0][0]
    assert recorded[key][str(seed)] == digest
    result = workloads.run_pass(LAB, ops)
    assert run.count_changed([result], recorded) == 0
    result.reports[1] = result.reports[1][:2] + ("0" * 64,)
    assert run.count_changed([result], recorded) == 1


def test_cli_oracles_reject_a_wrong_answer():
    ops = [op for op in workloads.make_pass(LAB, workloads.CLI_WORKLOAD, 9, 0)
           if op[0] in ("eval-Q", "eval-skew", "matrix-q", "matrix-lambda")][:8]
    result = workloads.PassResult()
    outputs = workloads.call_pass(LAB, ops, result)
    workloads.check_pass(LAB, ops, outputs, result)
    assert result.failed == 0, result.problems
    tampered = []
    for op, (code, stdout, stderr) in zip(ops, outputs):
        if op[0].startswith("eval"):
            stdout = str(Fraction(stdout) + 1)
        else:
            dump = json.loads(stdout)
            dump["entries"][0]["value"] = "12345/7"
            stdout = json.dumps(dump)
        tampered.append((code, stdout, stderr))
    bad = workloads.PassResult()
    workloads.check_pass(LAB, ops, tampered, bad)
    assert bad.failed == len(ops)


def test_useful_ratio_columns():
    # N=3 at the suite defaults: 9 asserted columns of an 11^4 window
    assert _asserted_columns(3, 8, 6) == 9
    assert _asserted_columns(3, 8, 4) == 1
    assert _asserted_columns(3, 3, 6) == 0


def test_quantities_follow_the_calls_made():
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        ar = LAB.suites.run_suite(LAB.suites.SuiteSpec(
            "ar-project", 0, {"draws": 1, "N_max": 1, "max_len": 3}))
        gaudin = LAB.suites.run_suite(LAB.suites.SuiteSpec("gaudin", 0, {"truncation": 5}))
        # a monodromy outside ar_project_check is not counted as its window
        LAB.lattice.toda_monodromy("toda", LAB.lattice.free_window_basis(2, 0, 2), 2,
                                   Fraction(1, 3))
    # (truncation 5 is too short for the suite's tail bound, so gaudin
    # reports a failure; its sums are complete all the same)
    assert ar["status"] == "pass" and gaudin["checks"]
    # N=1, max_len=3: a free window of 2 coordinates in 0..5
    assert tracer.sums["baxter_q.ar_project.window_states"] == 6 ** 2
    assert tracer.sums["baxter_q.ar_project.asserted_columns"] == _asserted_columns(1, 8, 3)
    # two spins for n = 1, 2: one term per multiset with parts <= 5
    assert tracer.counts["gaudin.gaudin_sum.terms"] == 2 * (math.comb(6, 1) + math.comb(7, 2))
