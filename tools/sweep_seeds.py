"""Run named verify suites over a range of seeds and list every failure.

    python tools/sweep_seeds.py tq lambda-q gauge --seeds 0:200

Each (suite, seed) runs through `run_suite` at the suite's default
parameters.  Every report that fails, and every run that raises, is
printed as one line naming the suite, the seed and the failing checks,
each followed by its first failure item (where it failed and both
sides), or the exception; the last line gives the number of runs and
the wall time.  Exits 1 when any run failed or raised, 0 otherwise.  The package
is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from integrable_lab.suites import SUITE_NAMES, SuiteSpec, run_suite  # noqa: E402


def seed_range(text: str) -> range:
    """"a:b" is the seeds a..b-1; "a" is the one seed a."""
    lo, sep, hi = text.partition(":")
    return range(int(lo), int(hi)) if sep else range(int(lo), int(lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suites", nargs="+", choices=SUITE_NAMES, metavar="suite",
                        help=f"one or more of: {', '.join(SUITE_NAMES)}")
    parser.add_argument("--seeds", type=seed_range, default=range(0, 200),
                        help="a:b runs seeds a..b-1 (default 0:200)")
    args = parser.parse_args(argv)
    if not args.seeds:
        parser.error(f"--seeds names no seed: {args.seeds}")

    start = time.perf_counter()
    bad = runs = 0
    for name in args.suites:
        for seed in args.seeds:
            runs += 1
            try:
                report = run_suite(SuiteSpec(name, seed))
            except Exception as exc:  # a suite that raises is a failure to list
                bad += 1
                print(f"{name} seed {seed}: raised {type(exc).__name__}: {exc}")
                continue
            if report["status"] != "pass":
                bad += 1
                failed = [f"{c['name']} {json.dumps(c['failures'][0])}"
                          for c in report["checks"] if c["status"] != "pass"]
                print(f"{name} seed {seed}: failed {'; '.join(failed)}")
    wall = time.perf_counter() - start
    print(f"{runs} runs, {bad} failing, {wall:.1f} s wall")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
