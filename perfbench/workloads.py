"""Benchmark workloads: the public calls one pass makes, and their checks.

A workload is a list of passes.  Suite workloads call
``suites.run_suite`` once per suite; the ``cli-requests`` workload sends
small mixed requests through ``cli.main(argv)`` in process, one client
in a closed loop.  Inputs come from the run seed alone.  Outputs are
checked after each call returns, outside the timed region: a suite
check that is not ``pass``, a non-zero CLI exit or a CLI output that
disagrees with its oracle counts as a failed operation.

This module does not import integrable_lab; callers pass the loaded
package in, so that set-up time can be measured from a fresh import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Suite workloads: (suite, params) per pass.  The sizes keep one pass
# within a few seconds on a 2-core machine, so that a run holds several;
# an odd number of suites puts the median request inside one suite's
# samples rather than between two.
SUITE_WORKLOADS = {
    "window-identities": [
        ("ar-project", {"draws": 1, "N_max": 3, "max_len": 4}),
        ("gamma-commute", {"D": 8}),
        ("rll", {}),
    ],
    "sector-operators": [
        ("tq", {"N_range": range(1, 6), "n_range": range(0, 7), "draws": 1}),
        ("lambda-q", {"pairs": [(3, 3), (4, 3), (3, 4), (4, 4)], "draws": 2}),
        ("adjoint", {}),
        ("rll", {}),
        ("paper-matrices", {}),
    ],
    "symmetric-series": [
        ("pieri", {"vars": 5, "max_weight": 4, "draws": 1}),
        ("hall-pieri", {}),
        ("dual-cauchy", {"vars": 4, "degree": 8, "draws": 1}),
        ("gaudin", {"truncation": 60}),
        ("lascoux", {}),
        ("bethe", {}),
        ("gamma-eigen", {"D": 8}),
    ],
}
CLI_WORKLOAD = "cli-requests"
WORKLOADS = [*SUITE_WORKLOADS, CLI_WORKLOAD]

# Suite calls draw their suite seed from this pool, whose report digests
# are recorded in digests.json; the run seed picks the order, separately
# for each suite, so that one costly draw does not slow a whole pass.
SUITE_SEED_POOL = 16
# `verify` requests draw their suite seed from this pool.
CLI_SEED_POOL = 64
# Seeds at which the lascoux suite hits a singular draw and raises
# ZeroDivisionError (exit 2 through the CLI); a known defect recorded in
# NOTES.md, kept out of the request mix so that every request can succeed.
LASCOUX_SINGULAR_SEEDS = (19, 30, 40)

# Requests per cli pass, by kind.
CLI_MIX = {
    "eval-Q": 70,
    "eval-skew": 60,
    "matrix-q": 40,
    "matrix-lambda": 40,
    "verify-paper-matrices": 15,
    "verify-lascoux": 15,
}

_SMALL_PARTITIONS = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
                     (4,), (3, 1), (2, 2), (2, 1, 1)]


def load_lab():
    """Import integrable_lab from this checkout's src/, never an installed copy."""
    init = SRC / "integrable_lab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import integrable_lab
    import integrable_lab.cli  # noqa: F401  (not imported by the package itself)

    if Path(integrable_lab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported {integrable_lab.__file__}, expected {init}")
    return integrable_lab


def fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def report_key(report: dict) -> str:
    """Digest key of a suite report: its suite name and parameters."""
    return report["suite"] + json.dumps(report["params"], sort_keys=True,
                                        separators=(",", ":"))


def report_digest(report: dict) -> str:
    """sha256 of the report as canonical JSON."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# inputs

def suite_seed(workload: str, suite: str, seed: int, index: int) -> int:
    """Suite seed for pass `index`: the pool in an order fixed by the run seed."""
    order = list(range(SUITE_SEED_POOL))
    random.Random(f"{workload}/{suite}/{seed}").shuffle(order)
    return order[index % SUITE_SEED_POOL]


def make_pass(lab, workload: str, seed: int, index: int):
    """The operations of pass `index` of a run with seed `seed`."""
    if workload in SUITE_WORKLOADS:
        return [("suite", name, params, suite_seed(workload, name, seed, index))
                for name, params in SUITE_WORKLOADS[workload]]
    if workload == CLI_WORKLOAD:
        return make_cli_requests(lab, random.Random(f"{workload}/{seed}/{index}"))
    raise ValueError(f"unknown workload {workload!r}")


def make_cli_requests(lab, rng):
    """One pass of CLI requests: (kind, argv, oracle inputs), shuffled.

    Every rational comes from suites.draw_params, so no request sits on a
    singular point, and each is passed as --flag=value (a negative
    rational as its own token is rejected by argparse).
    """
    draw = lab.suites.draw_params

    def t_value():
        return draw(rng.randrange(10 ** 9), "generic-t")[0]

    def alphabet(k):
        return draw(rng.randrange(10 ** 9), f"distinct-{k}")

    kinds = [kind for kind, n in CLI_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    requests = []
    for kind in kinds:
        if kind == "eval-Q":
            lam = rng.choice(_SMALL_PARTITIONS)
            vals, t = alphabet(rng.randint(len(lam), 4)), t_value()
            argv = ["eval", "Q", "--lambda=[" + ",".join(map(str, lam)) + "]",
                    "--vars=" + ",".join(map(fmt, vals)), f"--t={fmt(t)}"]
            requests.append((kind, argv, (lam, vals, t)))
        elif kind == "eval-skew":
            lam = rng.choice([p for p in _SMALL_PARTITIONS if sum(p) >= 2])
            inner = [mu for mu in _SMALL_PARTITIONS
                     if sum(mu) < sum(lam) and len(mu) <= len(lam)
                     and all(m <= l for m, l in zip(mu, lam))]
            mu = rng.choice(inner)
            vals, t = alphabet(rng.randint(2, 3)), t_value()
            argv = ["eval", "skew", "--lambda=[" + ",".join(map(str, lam)) + "]",
                    "--mu=[" + ",".join(map(str, mu)) + "]",
                    "--vars=" + ",".join(map(fmt, vals)), f"--t={fmt(t)}"]
            requests.append((kind, argv, (lam, mu, vals, t)))
        elif kind in ("matrix-q", "matrix-lambda"):
            N, n = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
            x, z = alphabet(2)
            t = t_value()
            argv = ["matrix", kind.split("-")[1], f"--N={N}", f"--n={n}",
                    f"--t={fmt(t)}", f"--x={fmt(x)}"]
            requests.append((kind, argv, (N, n, x, t, z)))
        else:
            suite = kind.split("-", 1)[1]
            seeds = range(CLI_SEED_POOL)
            if suite == "lascoux":
                seeds = [s for s in seeds if s not in LASCOUX_SINGULAR_SEEDS]
            argv = ["verify", suite, f"--seed={rng.choice(seeds)}"]
            if suite == "paper-matrices":
                argv.append("--json")
            requests.append((kind, argv, None))
    return requests


# ---------------------------------------------------------------------------
# running and checking one pass

# CLI requests timed between two host-speed samples (about 0.1 s of work).
CLI_SEGMENT = 40


class PassResult:
    """Latencies, operation counts and report digests of one pass."""

    def __init__(self):
        self.latencies = []   # (label, seconds, host-speed scale) per public call
        self.attempted = 0
        self.failed = 0
        self.problems = []    # first few failure descriptions
        self.reports = []     # (key, suite seed, sha256)

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)


def call_pass(lab, ops, result: PassResult, calibration=None):
    """Make the public calls of one pass, timing each; return their outputs.

    Nothing is checked here, so that a caller can trace the calls and
    check the outputs with tracing removed (see check_pass).  With a
    calibrate.Calibration, each suite call and each chunk of CLI_SEGMENT
    requests is bracketed by host-speed samples that give its scale.
    """
    outputs = []
    clock = time.perf_counter
    segment = []

    def close_segment():
        scale = calibration.close_segment() if calibration is not None else 1.0
        for i in segment:
            label, dt, _ = result.latencies[i]
            result.latencies[i] = (label, dt, scale)
        segment.clear()

    if calibration is not None:
        calibration.start()
    for op in ops:
        if op[0] == "suite":
            _, name, params, suite_seed = op
            spec = lab.suites.SuiteSpec(name, seed=suite_seed, params=params)
            start = clock()
            try:
                out = lab.suites.run_suite(spec)
            except Exception as exc:  # a crashing suite is a failed operation
                out = exc
            result.latencies.append((name, clock() - start, 1.0))
        else:
            argv = op[1]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = clock()
                try:
                    code = lab.cli.main(argv)
                except Exception as exc:  # a crashing request is a failed operation
                    code = exc
                result.latencies.append((argv[0], clock() - start, 1.0))
            out = (code, stdout.getvalue(), stderr.getvalue())
        outputs.append(out)
        segment.append(len(result.latencies) - 1)
        if op[0] == "suite" or len(segment) >= CLI_SEGMENT:
            close_segment()
    if segment:
        close_segment()
    return outputs


def check_pass(lab, ops, outputs, result: PassResult):
    for op, out in zip(ops, outputs):
        if op[0] == "suite":
            check_suite(op, out, result)
        else:
            check_cli(lab, op, out, result)


def run_pass(lab, ops, calibration=None) -> PassResult:
    result = PassResult()
    check_pass(lab, ops, call_pass(lab, ops, result, calibration), result)
    return result


def check_suite(op, report, result: PassResult):
    _, name, _, suite_seed = op
    if isinstance(report, Exception):
        result.attempted += 1
        result.fail(f"{name} seed {suite_seed}: {report!r}")
        return
    for check in report["checks"]:
        result.attempted += 1
        if check["status"] != "pass":
            result.fail(f"{name} seed {suite_seed}: {check['name']}")
    result.reports.append((report_key(report), suite_seed, report_digest(report)))


def check_cli(lab, op, out, result: PassResult):
    kind, argv, oracle = op
    result.attempted += 1
    code, stdout, stderr = out
    if code != 0:
        result.fail(f"{' '.join(argv)}: exit {code!r} {stderr.strip()[:200]}")
        return
    try:
        ok = _cli_output_ok(lab, kind, argv, oracle, stdout, result)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        ok = False
        stdout = f"unreadable output ({exc!r})"
    if not ok:
        result.fail(f"{' '.join(argv)}: output disagrees with oracle: {stdout.strip()[:200]}")


def _cli_output_ok(lab, kind, argv, oracle, stdout, result) -> bool:
    hl, partitions = lab.hall_littlewood, lab.partitions
    if kind == "eval-Q":
        # independent tableau route: Q_lam = b_lam(t) P_lam, P_lam = P_{lam/0}
        lam, vals, t = oracle
        expect = hl.skew_P(lam, (), vals, t) * partitions.state_norm(lam, t)
        return Fraction(stdout.strip()) == expect
    if kind == "eval-skew":
        # vertex-operator route: Q_{lam/mu} = (b_lam / b_mu) P_{lam/mu}
        lam, mu, vals, t = oracle
        basis = partitions.partition_basis(sum(lam))
        q_skew = lab.vertex_ops.skew_Q_via_ops(lam, mu, vals, basis, t)
        norm = partitions.state_norm
        return Fraction(stdout.strip()) * norm(lam, t) / norm(mu, t) == q_skew
    if kind in ("matrix-q", "matrix-lambda"):
        N, n, x, t, z = oracle
        dump = json.loads(stdout)
        dim = len(dump["basis"])
        blocks = {}
        for e in dump["entries"]:
            blocks.setdefault(e["degree"], lab.graded.SparseMatrix(dim)).add_to(
                e["row"], e["col"], Fraction(e["value"]))
        got = lab.graded.GradedOperator(dim, blocks)
        if kind == "matrix-q":
            # auxiliary-spin trace construction, evaluated at z
            return got.eval_at(z) == lab.baxter_q.trace_qmatrix(N, n, z, x, t).block(0)
        # Toda monodromy route, folded to the occupation sector
        expect = lab.lattice.folded_toda_transfer(N, n, x, t)
        return all(got.block(k) == expect.block(k)
                   for k in set(got.blocks) | set(expect.blocks))
    # verify requests: the report status decides
    if argv[1] == "paper-matrices":
        report = json.loads(stdout)
        seed = int(argv[2].split("=", 1)[1])
        result.reports.append((report_key(report), seed, report_digest(report)))
        return report["status"] == "pass"
    return stdout.splitlines()[0].endswith(": PASS")
