"""Self-check of the benchmark; takes about 15 seconds.

    python3 perfbench/selfcheck.py

1. Every workload runs at the tiny size, untraced and traced, through
   run.py as the benchmark command runs it.  The last line must be the
   result object, the run correct, and its metrics exactly the ones
   BENCHMARK.json names, each with its unit.
2. A traced replay checked against counts corrupted by one must report
   failed operations, and against the true counts none.
3. In a copy that holds only BENCHMARK.json and perfbench/, the benchmark
   must exit non-zero without printing a result.

Prints one line per problem and exits 1 if there is any.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selfcheck")
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Tracer
from workloads import WORKLOADS, direct

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd, workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(errors):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            where = f"{name} --trace {trace}"
            proc = bench(ROOT, name, trace, "--size", "tiny")
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                errors.append(f"{where}: no result line; stderr: {proc.stderr[-500:]}")
                continue
            if set(res) != RESULT_KEYS:
                errors.append(f"{where}: result keys {sorted(res)}")
                continue
            if proc.returncode or not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append(f"{where}: exit {proc.returncode}, result {res}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{where}: metrics {got} != {want[trace]}")


def check_corrupted_replay(errors):
    for name, cls in WORKLOADS.items():
        wl = cls(7, "tiny", SCRATCH)
        wl.setup(direct)
        record = wl.run_batch(0).record
        corrupted = copy.deepcopy(record)
        corrupted["counts"][0][1][0] += 1
        clean_failed = wl.replay_batch(Tracer(), 0, record)
        corrupt_failed = wl.replay_batch(Tracer(), 0, corrupted)
        if clean_failed or not corrupt_failed:
            errors.append(f"{name}: replay failed {clean_failed} ops on true counts, "
                          f"{corrupt_failed} on counts corrupted by one")


def check_bare_directory(errors):
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in WORKLOADS:
        proc = bench(bare, name, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"{name}: without src/ it exited {proc.returncode} "
                          f"and printed {proc.stdout.strip()[-200:]!r}")


def main() -> int:
    errors = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        check_metrics(errors)
        check_corrupted_replay(errors)
        check_bare_directory(errors)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for err in errors:
        print(err)
    print("selfcheck:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
