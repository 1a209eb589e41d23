#!/usr/bin/env python3
"""Self-test of the benchmark: counts and digests repeat exactly.

    python3 benchmark/selftest.py

For each workload, a short list of cheap jobs runs in two child processes
under different PYTHONHASHSEED values, once untraced and once traced.  Every
check must pass, the traced digests must equal the untraced ones, the
tracer must put back every binding it replaced, and the layer counts and
digests of the two children must be identical.  Exits 0 on success.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import REFERENCE, SRC, Checker, fresh_import, run_pass
from tracer import LAYER_FUNCTIONS, Tracer
from workloads import WORKLOADS

HASH_SEEDS = ("0", "4242")


def bindings() -> dict:
    """Every supvar name bound to a layer function, with the object bound."""
    targets = {id(getattr(sys.modules[mod], attr)) for mod, attr, _ in LAYER_FUNCTIONS}
    return {(key, name): id(value)
            for key, mod in sys.modules.items() if key.split(".")[0] == "supvar"
            for name, value in vars(mod).items() if id(value) in targets}


def child(name: str) -> int:
    sys.path.insert(0, str(SRC))
    sv = fresh_import()
    workload = WORKLOADS[name]
    workload.setup(sv)
    with open(REFERENCE) as fh:
        checker = Checker(workload, json.load(fh)[name])
    jobs = workload.short_jobs()
    before = bindings()
    _, _, plain = run_pass(sv, checker, jobs)
    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced = run_pass(sv, checker, jobs)
    finally:
        tracer.remove()
    if traced != plain:
        checker.fail("traced digests differ from untraced digests")
    if bindings() != before:
        checker.fail("the tracer left a wrapped binding behind")
    print(json.dumps({"problems": checker.problems, "digests": plain, "counts": tracer.counts},
                     sort_keys=True))
    return 0


def main() -> int:
    status = 0
    for name in sorted(WORKLOADS):
        results = []
        for hash_seed in HASH_SEEDS:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, __file__, "--child", name], env=env,
                                  capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"FAIL {name}: child exited {proc.returncode}\n{proc.stderr}")
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        problems = [p for r in results for p in r["problems"]]
        if results[0] != results[1]:
            problems.append("counts or digests differ between PYTHONHASHSEED values")
        status |= bool(problems)
        verdict = "FAIL" if problems else "ok"
        print(f"{verdict} {name}: {len(results[0]['digests'])} jobs, counts {results[0]['counts']}")
        for p in problems:
            print(f"  {p}")
    return status


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        sys.exit(child(sys.argv[2]))
    sys.exit(main())
