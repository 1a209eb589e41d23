#!/usr/bin/env python3
"""Record the reference digest of every job a workload can draw.

    python3 benchmark/make_reference.py sweep-gl22 [complex-ext ...]

Runs each pool job and fixed job once, requires its independent checks to
pass, and merges the digests into ``benchmark/reference.json``.  Only rerun
this when the benchmark's job records change, never to absorb a changed
answer from the library.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, SRC, fresh_import
from workloads import WORKLOADS, digest


def main(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    sv = fresh_import()
    tables = {}
    status = 0
    for name in names:
        workload = WORKLOADS[name]
        workload.setup(sv)
        table = {}
        jobs = workload.pool() + workload.fixed_jobs()
        for k, job in enumerate(jobs, 1):
            start = time.perf_counter()
            problems, record = workload.run(sv, job)
            if problems:
                print(f"FAIL {job.key}: {problems}", file=sys.stderr)
                status = 1
                continue
            table[job.key] = digest(record)
            print(f"{name} {k}/{len(jobs)} {job.key} {time.perf_counter() - start:.2f}s",
                  flush=True)
        tables[name] = dict(sorted(table.items()))
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    reference.update(tables)
    with open(REFERENCE, "w") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(WORKLOADS)))
