#!/usr/bin/env python3
"""Regenerate ``reference.json``: every job of every workload, full size and
smoke size, run once at the reference seed.

    python3 bench/make_reference.py

Only regenerate after a change that is meant to alter the library's outputs,
and say which numbers moved and why.
"""

from __future__ import annotations

import sys
import tempfile

import checker
import run_bench

REFERENCE_SEED = 0


def main() -> int:
    run_bench.pin_blas()
    sys.path.insert(0, str(run_bench.SRC))
    import workloads

    jobs = {}
    run_bench.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_bench.OUT_DIR) as work_dir:
        for workload in run_bench.WORKLOADS:
            for smoke in (True, False):
                for job in workloads.build(workload, REFERENCE_SEED, smoke=smoke, out_dir=work_dir):
                    jobs[job.name] = checker.reference_entry(job.observe(job.run()))
                    print(f"{workload:<15} {job.name}", flush=True)
    checker.References(REFERENCE_SEED, jobs).dump(str(run_bench.REFERENCE))
    print(f"wrote {run_bench.REFERENCE} ({len(jobs)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
