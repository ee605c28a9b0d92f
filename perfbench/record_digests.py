"""Record the sha256 of every suite report the benchmark can produce.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json: for each suite and parameter set used by a
workload, the digest of its canonical-JSON report at every seed of the
pool that workload draws from.  run.py reports how many reports of a run
differ from this record (reports_changed): same answers, less time.
Re-record only when a change is meant to alter report bytes.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import DIGESTS


def main():
    lab = workloads.load_lab()
    jobs = {}  # (suite, params) -> seeds; a suite may serve several workloads
    for suites in workloads.SUITE_WORKLOADS.values():
        for name, params in suites:
            jobs[name, repr(params)] = (name, params, range(workloads.SUITE_SEED_POOL))
    # `verify paper-matrices --json` requests of the cli workload
    jobs["paper-matrices", repr({})] = ("paper-matrices", {}, range(workloads.CLI_SEED_POOL))
    digests = {}
    for name, params, seeds in jobs.values():
        for seed in seeds:
            report = lab.suites.run_suite(lab.suites.SuiteSpec(name, seed=seed, params=params))
            if report["status"] != "pass":
                raise SystemExit(f"error: {name} seed {seed} does not pass")
            digests.setdefault(workloads.report_key(report), {})[str(seed)] = \
                workloads.report_digest(report)
        print(f"{name}: {len(seeds)} reports", file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
