"""Seed-0 suite reports are a regression oracle: their bytes must not change.

Each digest is the sha256 of the `verify NAME --json` output at seed 0
(`json.dumps(report, indent=2, sort_keys=True)` plus a newline), as listed
in CHANGES.md.  A change that alters a report on purpose updates its
digest here and says why.  `bethe` is pinned apart: its two float
verdicts tie their bytes to the platform's libm, so its digest is the
sha256 of its other checks (`json.dumps(checks, indent=2, sort_keys=True)`).

The benchmark's `sector-operators` suites run at larger ring sizes than
the seed-0 defaults ((N, n) up to (5, 6) in `tq`), and its
`window-identities` suites at their own sizes (`gamma-commute` at D = 8);
their reports at the first pool seeds are pinned against the benchmark's
own record, `perfbench/digests.json`, read with the params of
`perfbench/workloads.py`, neither file edited.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from integrable_lab.suites import SuiteSpec, run_suite

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEED0_DIGESTS = {
    "adjoint": "1128be2fb79897cb52e52fa7e08bf066c00036ec6c34678f923eca1765a865b0",
    "ar-project": "4c4686cf7833bdeebb2cdb778106dc3c517110469ebbe41e0e15696d6e62f995",
    "cauchy": "e66f20f081bfc53fad6bced244b5f865500fa8ba72bfa4a2afb0b0258dc3945b",
    "dual-cauchy": "bd1cb6aaca53a8480511e346d8d3db1f6ecd743a4a8f684629f347243e036dbe",
    "gamma-commute": "a40fdb8af56448b06dafe91ded130a03dabbd5456ab06b087695e34314a60e8d",
    "gamma-eigen": "0e9995443a32e8d0ad5bd31d930e01a6579e56b3e04aca79702314d626eb5eb3",
    "gaudin": "2af15a0bbfc390828393dd3449fc4e0742ebe5c56f778478fbc0748213c98d60",
    "gauge": "d7a67e0750a0918495d709dae5120ae158cb40ea82dc264bf24122a7a6bc8f58",
    "hall-pieri": "0ba1033b667271f8b3686f6198bd629dab410f6b704a37602f6bfd7ebbd19dcf",
    "lambda-q": "852b362efb4da799185cde4a8020081046bc38f28c2c8c53a044d865e1c1f79f",
    "lascoux": "c27080e13d70ac1e2d4027fdb610c3fb14d306a5ba696a1892e075b29a90e429",
    "paper-matrices": "c82c49382ad51143af7a6a98b0dff1cfe6f8548643c88d3a08b33f377cd31eb9",
    "pieri": "450905d8b2c1ee1aaf63d425435ddb42d5c94b0e54183f0cab094bbb2f785298",
    "rll": "1030f2ec3c035632eccf8e273df675531699effb06fec25251d55511bddd9a03",
    "tq": "d0ec5a56a5a65355df0d245088f4ca5c3c3b7eb16ebfe56b7ca1f601a67005c5",
}


@pytest.mark.parametrize("name", sorted(SEED0_DIGESTS))
def test_seed0_report_bytes_are_unchanged(name):
    text = json.dumps(run_suite(SuiteSpec(name, 0)), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SEED0_DIGESTS[name]


BETHE_FLOAT_VERDICTS = {"closed-form roots M=1", "periodic residuals N=3"}
BETHE_EXACT_DIGEST = "d677370dcc192b7e3599099bf5518f9e360c386dfb1425a30221c1a05fef1dfb"


def test_seed0_bethe_exact_check_bytes_are_unchanged():
    checks = [c for c in run_suite(SuiteSpec("bethe", 0))["checks"]
              if c["name"] not in BETHE_FLOAT_VERDICTS]
    assert len(checks) == 4
    text = json.dumps(checks, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BETHE_EXACT_DIGEST


def _bench_workloads():
    """`perfbench/workloads.py`, loaded under a private name."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_workloads()
# the suites of both workloads, each (suite, params) once: rll runs in both
RING_SUITES = [*WORKLOADS.SUITE_WORKLOADS["sector-operators"],
               *(call for call in WORKLOADS.SUITE_WORKLOADS["window-identities"]
                 if call not in WORKLOADS.SUITE_WORKLOADS["sector-operators"])]


@pytest.mark.parametrize("name, params", RING_SUITES, ids=[name for name, _ in RING_SUITES])
def test_benchmark_ring_reports_match_the_recorded_digests(name, params):
    recorded = json.loads((BENCH / "digests.json").read_text())
    for seed in range(4):
        report = run_suite(SuiteSpec(name, seed, params))
        assert WORKLOADS.report_digest(report) == \
            recorded[WORKLOADS.report_key(report)][str(seed)], (name, seed)
