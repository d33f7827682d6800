"""contactenv benchmark: three closed-loop Monte Carlo workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, untraced

One caller, no think time, one thread.  ``--trace 0`` is the untraced pass:
it calls the workload's public entry point in a closed loop, untimed for a
short warm-up and then for S seconds, and reports the end-to-end metrics.
``--trace 1`` is the traced pass: it runs the untraced pass in a child
process on a fixed number of batches
(about S/3 seconds of work at the baseline), replays the same replicas here
with a span around every call into contactenv, checks that the replay
reproduces the child's counts exactly, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
operation failed.  Results, the environment record and the spans go
to ``.perfbench/`` at the root of the checkout.  contactenv is imported from
``src/`` of the same checkout and nowhere else.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)

T0 = time.perf_counter()

import numpy as np

import contactenv

if not os.path.abspath(contactenv.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"contactenv was imported from {contactenv.__file__}, not from {SRC}")

from spans import Tracer
from workloads import WORKLOADS, Batch, direct

# numpy, contactenv and the benchmark's own modules; a per-layer metric only,
# because a fresh process's imports drift with the host's load by up to ~40%
IMPORT_S = time.perf_counter() - T0
SETUP_REPEATS = 15          # set-ups timed in the run's own process
WARMUP_S = 2.0              # batches run and checked, but not timed
# The host probe's median time in the runs that tuned it (see README): a batch
# whose probe reads this keeps the rate it was measured at.
PROBE_REF_S = 0.0185
END_TO_END_UNITS = {"replicas_per_s": "replicas/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def environment(seed: int) -> dict:
    # the ceiling keeps git from searching above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, env=env)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "contactenv": contactenv.__version__, "nproc": os.cpu_count(),
            "host": platform.node(), "commit": commit, "seed": seed}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024     # KiB on Linux


def timed_setups(wl) -> list:
    """Seconds per set-up of the workload, repeated in this process."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(direct)
        times.append(time.perf_counter() - t0)
    return times


class HostProbe:
    """Fixed pure-Python work, not contactenv's, timed after each batch to
    follow how fast this shared host serves memory-bound interpreted code.

    It sums a list of 300k floats in shuffled memory order, so that, like the
    engine's scans, every step chases a pointer into a working set larger than
    the core's own cache.  Before the timed pass, an untimed pass and a 64 MiB
    stream set the caches to the same state whatever the batch before it did,
    so a program that touches more or less memory does not move the probe.
    """

    def __init__(self):
        rng = random.Random(0)
        values = [rng.random() for _ in range(300_000)]
        rng.shuffle(values)
        self.values = values
        self.evict = np.ones(8 * 2**20)

    def _pass(self) -> float:
        total = 0.0
        for x in self.values:
            total += x
        return total

    def measure(self) -> float:
        self._pass()
        self.evict.sum()
        t0 = time.perf_counter()
        self._pass()
        return time.perf_counter() - t0


def closed_loop(wl, seconds: float, count: int | None = None, first: int = 0,
                probe: HostProbe | None = None) -> list:
    """Batches ``first``, ``first + 1``, ... back to back until ``seconds``
    have passed (at least one), or exactly ``count`` batches.  With a probe,
    it is measured after every batch, outside the batch's own time."""
    batches = []
    start = time.perf_counter()
    b = first
    while True:
        t0 = time.perf_counter()
        try:
            batch = wl.run_batch(b)
        except Exception:       # a failed batch is counted, and the loop goes on
            traceback.print_exc()
            batch = Batch(wl.ops_per_batch, 0, wl.ops_per_batch)
        batches.append({"b": b, "wall": time.perf_counter() - t0, "ops": batch.ops,
                        "replicas": batch.replicas, "failed": batch.failed,
                        "record": batch.record, "rss_mb": peak_rss_mb()})
        if probe is not None:
            batches[-1]["probe_s"] = probe.measure()
        b += 1
        if b - first == count or count is None and time.perf_counter() - start >= seconds:
            return batches


def untraced_pass(args, wl, workdir):
    setup = timed_setups(wl)
    # The traced pass replays a fixed number of batches, set by --seconds and
    # the workload's nominal batch time, so that its counts repeat exactly
    # from one commit to the next.
    if args.record:
        batches = closed_loop(wl, args.seconds, max(1, round(args.seconds / 3 / wl.p["batch_s"])))
        warm = []
    else:
        warm = closed_loop(wl, WARMUP_S)
        probe = HostProbe() if wl.host_corrected else None
        batches = warm + closed_loop(wl, args.seconds, first=len(warm), probe=probe)
    attempted = sum(x["ops"] for x in batches)
    failed = sum(x["failed"] for x in batches)
    failed += wl.finish([x["record"] for x in batches if x["record"]])
    failed = min(failed, attempted)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"batches": batches, "attempted": attempted, "failed": failed}, fh)
        return attempted, failed, {}, {}
    timed = batches[len(warm):]
    rates = [x["replicas"] / x["wall"] for x in timed]
    raw_rate = statistics.median(rates)
    if probe is None:
        rate = raw_rate
    else:
        # each batch's rate at the reference host speed, by its own probe
        rate = statistics.median(r * x["probe_s"] / PROBE_REF_S for r, x in zip(rates, timed))
    values = {
        "replicas_per_s": rate,
        "setup_s": statistics.median(setup),
        # After the first batch, not at the end: the peak then is set by the
        # workload's own data and repeats to <1% across seeds, while over a
        # whole run it creeps up with allocator history (8% across W1 seeds
        # with larger batches).
        "peak_rss_mb": batches[0]["rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    extra = {"failed_frac": failed / attempted,
             "raw_replicas_per_s": raw_rate, "host_corrected": wl.host_corrected,
             "samples": {"replicas_per_s": len(rates), "warmup_batches": len(warm),
                         "setup_s": len(setup),
                         "replicas": sum(x["replicas"] for x in batches)},
             "setup_samples_s": setup, "import_s": IMPORT_S,
             "batches": [{k: x[k] for k in ("b", "wall", "replicas", "rss_mb", "probe_s") if k in x}
                         for x in batches]}
    return attempted, failed, metrics, extra


def traced_pass(args, wl, workdir):
    record = os.path.join(workdir, "record.json")
    child = _child(args, "--seconds", str(args.seconds), "--trace", "0", "--record", record)
    if child.returncode not in (0, 1):
        raise SystemExit(f"untraced child pass exited with code {child.returncode}")
    with open(record, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    tracer = Tracer()
    wl.setup(tracer.call)
    failed = rec["failed"]
    traced_wall = 0.0
    for batch in rec["batches"]:
        t0 = time.perf_counter()
        try:
            failed += wl.replay_batch(tracer, batch["b"], batch["record"])
        except Exception:
            traceback.print_exc()
            failed += batch["ops"]
        traced_wall += time.perf_counter() - t0
    # the traced pass of W2 also reruns cli.run itself; that is not replay time
    replay_wall = traced_wall - sum(tracer.durations("cli.run"))
    untraced_wall = sum(x["wall"] for x in rec["batches"])
    metrics = tracer.layer_metrics(wl.replica_span, replay_wall / untraced_wall - 1.0, IMPORT_S)
    attempted = rec["attempted"]
    failed = min(failed, attempted)
    trace = {"environment": environment(args.seed), "workload": args.workload,
             "metrics": metrics, **tracer.to_json()}
    with open(os.path.join(OUT, f"trace-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    extra = {"failed_frac": failed / attempted, "self_s": trace["self_s"],
             "samples": {"batches": len(rec["batches"]),
                         "replicas": sum(x["replicas"] for x in rec["batches"])}}
    return attempted, failed, metrics, extra


def run_all(args) -> int:
    """Every workload, untraced, one after the other; prints one table."""
    ok = True
    rows = []
    for name in WORKLOADS:
        args.workload = name
        res = _last_json(_child(args, "--seconds", str(args.seconds), "--trace", "0").stdout)
        ok &= res["correct"]
        m = {k: v["value"] for k, v in res["metrics"].items()}
        rows.append(f"{name:24s} {m['replicas_per_s']:12.2f} replicas/s {m['setup_s']:8.3f} s "
                    f"{m['peak_rss_mb']:8.1f} MiB {res['failed'] / res['attempted']:8.4f} ratio")
    print(f"{'workload':24s} {'replicas_per_s':>23s} {'setup_s':>10s} {'peak_rss_mb':>12s} "
          f"{'failed_frac':>14s}")
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long settings for the self-check")
    ap.add_argument("--record", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
    os.makedirs(workdir, exist_ok=True)
    try:
        run = traced_pass if args.trace else untraced_pass
        attempted, failed, metrics, extra = run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        return 0 if failed == 0 else 1
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": environment(args.seed), "workload": args.workload,
                   "seconds": args.seconds, **result, **extra}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload}: replicas/s as measured {extra['raw_replicas_per_s']:.6g}"
              + (", reported at the reference host speed" if extra["host_corrected"] else ""))
    print(f"{args.workload}: failed_frac = {extra['failed_frac']:.6g} ratio "
          f"({failed} of {attempted} operations); samples {extra['samples']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
