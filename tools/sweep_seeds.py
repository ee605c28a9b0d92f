"""Run named verify suites over a range of seeds and list every failure.

    python tools/sweep_seeds.py tq lambda-q gauge --seeds 0:200
    python tools/sweep_seeds.py tq --config sector.cfg --seeds 0:200

Each (suite, seed) runs through `run_suite` at the suite's default
parameters, or at those of a `--config` file: the CLI's flat key=value
lines (read by its config loader), each key a param of every suite named
or one of its `verify` flags, each value an integer, "a:b" for
range(a, b), or a list or tuple literal, such as

    N_range=1:6
    n_range=0:7
    draws=1

A key or value that a suite does not read is rejected through
`suite_params` (exit 2) before any run.  Every report that fails, and every run that raises, is
printed as one line naming the suite, the seed and the failing checks,
each followed by its first failure item (where it failed and both
sides), or the exception; the last line gives the number of runs and
the wall time.  Exits 1 when any run failed or raised, 0 otherwise.  The package
is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from integrable_lab.cli import _load_config  # noqa: E402
from integrable_lab.suites import (  # noqa: E402
    SUITE_NAMES, SuiteSpec, run_suite, suite_flags, suite_params)


def seed_range(text: str) -> range:
    """"a:b" is the seeds a..b-1; "a" is the one seed a."""
    lo, sep, hi = text.partition(":")
    return range(int(lo), int(hi)) if sep else range(int(lo), int(lo) + 1)


def config_value(text: str):
    """"a:b" is range(a, b); anything else an int, list or tuple literal."""
    lo, sep, hi = text.partition(":")
    return range(int(lo), int(hi)) if sep else ast.literal_eval(text)


def config_params(name: str, config: dict) -> dict:
    """The params of suite `name` that the config lines {key: text} set: a
    key that is one of its `verify` flags names the param the flag sets.
    Raises KeyError or ValueError, through `suite_params`, for a key the
    suite does not read or a value it rejects."""
    flags = suite_flags(name)
    params = {flags.get(key, key): config_value(text) for key, text in config.items()}
    suite_params(SuiteSpec(name, 0, params))
    return params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suites", nargs="+", choices=SUITE_NAMES, metavar="suite",
                        help=f"one or more of: {', '.join(SUITE_NAMES)}")
    parser.add_argument("--seeds", type=seed_range, default=range(0, 200),
                        help="a:b runs seeds a..b-1 (default 0:200)")
    parser.add_argument("--config", help="a key=value file of suite params (see above)")
    args = parser.parse_args(argv)
    if not args.seeds:
        parser.error(f"--seeds names no seed: {args.seeds}")
    try:
        config = {} if args.config is None else _load_config(args.config)
        params = {name: config_params(name, config) for name in args.suites}
    except (OSError, SyntaxError, KeyError, ValueError) as exc:
        parser.error(f"--config {args.config}: {exc}")

    start = time.perf_counter()
    bad = runs = 0
    for name in args.suites:
        for seed in args.seeds:
            runs += 1
            try:
                report = run_suite(SuiteSpec(name, seed, params[name]))
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
