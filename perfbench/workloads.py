"""The three benchmark workloads.

Each workload has a set-up step, an untraced batch that calls the public
entry point a user calls, and a traced replay of the same batch through the
modules' public functions.  A batch returns a record: its outcome counts as
``[n_ops, [ints...]]`` groups, in a JSON-able form, so that a replay in
another process can be compared with it exactly.  Every function the
benchmark calls in contactenv goes through ``call(fn, *args, **kw)``, which
is a plain call when untraced and a span when traced (see spans.py).
``batch_s`` in a size is a batch's nominal duration at the baseline; the
traced pass derives its fixed number of batches from it.  ``host_corrected``
says whether ``replicas_per_s`` is scaled by run.py's host probe: only in W3,
whose replica is all interpreted engine work and whose speed follows the
probe's from batch to batch (see the README).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

from contactenv import analysis, cli
from contactenv.analysis import wilson_bounds
from contactenv.background import evolve_background, make_spec
from contactenv.engine import (SUPPRESS_ARROWS, SUPPRESS_RECOVERIES_AND_BACKGROUND,
                               RunParams, background_path, coupled_bounds_cpdp,
                               delayed_variant, dual_evolve, evolve,
                               evolve_truncated, is_contained_pathwise, richardson,
                               union_matches_pathwise)
from contactenv.graphical import build_timeline, derive_seed, event_feed, thin_view
from contactenv.lattice import build_box

# z of the binomial consistency test against a reference band: at z = 4 a
# correct estimator fails it with probability below 1e-4 per check.
BAND_Z = 4.0


def direct(fn, *args, **kw):
    """The untraced ``call``: the public function itself, nothing around it."""
    return fn(*args, **kw)


@dataclass
class Batch:
    ops: int                  # operations attempted (replicas, or grid cells in W2)
    replicas: int             # replicas completed, the unit of replicas_per_s
    failed: int               # operations that raised or failed a check
    record: dict = field(default_factory=dict)


def compare_counts(expected, got) -> int:
    """Operations whose replayed counts differ from the recorded ones."""
    if len(expected) != len(got):
        return sum(n for n, _ in expected)
    return sum(n for (n, a), (_, b) in zip(expected, got) if a != b)


# ---------------------------------------------------------------------------
# W1: classical-limit survival probe, bound by timeline generation

class SurvivalClassical1d:
    """``analysis.estimate_survival`` once per lambda, on shared replica seeds.

    The criterion-7 bracket probes this statistic; each replica generates a
    full ``T = 100`` timeline and most of them die early, so generation and
    list conversion dominate and most generated events are never read.
    """

    name = "survival-classical-1d"
    host_corrected = False
    replica_span = "analysis.replica"
    SIZES = {
        # reference band: 2/2000 and 254/2000 alive at seed 987654321
        "full": dict(L=200, T=100.0, reps=2, batch_s=0.22,
                     band={1.25: (2, 2000), 1.5: (254, 2000)}),
        "tiny": dict(L=20, T=5.0, reps=2, batch_s=0.01, band=None),
    }
    LAMS = (1.25, 1.5)
    LAM_CEILING = 1.5
    R = 1.0

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.p = self.SIZES[size]
        self.ops_per_batch = 2 * self.p["reps"]

    def setup(self, call):
        self.g = call(build_box, 1, self.p["L"])
        self.c0 = (self.g.origin(),)

    def run_batch(self, b: int) -> Batch:
        root = derive_seed(self.seed, b)
        reps = self.p["reps"]
        counts = []
        for lam in self.LAMS:
            params = RunParams(self.g, lam, self.R, None, self.p["T"], root)
            est = analysis.estimate_survival(params, self.c0, reps=reps, seed=root,
                                             lam_ceiling=self.LAM_CEILING)
            counts.append([reps, [round(est.p_hat * reps), round(est.boundary_frac * reps)]])
        # thinning couples the two calls: realized estimates are monotone in lambda
        failed = 2 * reps if counts[0][1][0] > counts[1][1][0] else 0
        return Batch(2 * reps, 2 * reps, failed, {"counts": counts})

    def replay_batch(self, tr, b: int, record) -> int:
        """estimate_survival's replica loop, one call per layer."""
        call = tr.call
        root = derive_seed(self.seed, b)
        g, T = self.g, self.p["T"]
        alive = {}
        counts = []
        for lam in self.LAMS:
            n_alive = n_bdry = 0
            with tr.span("analysis.estimate_survival"):
                for i in range(self.p["reps"]):
                    with tr.span(self.replica_span, replica=f"{b}:{lam}:{i}"):
                        rep_seed = derive_seed(root, i)
                        tl = call(build_timeline, g, self.LAM_CEILING, self.R, 0.0, T, rep_seed)
                        view = call(thin_view, tl, lam, self.R)
                        call(event_feed, view)
                        traj = call(evolve, RunParams(g, lam, self.R, None, T, rep_seed),
                                    self.c0, range(g.n_edges), tl=view,
                                    stop_on_extinct=True, want_deltas=False)
                        alive[lam, i] = traj.tau_ex == math.inf
                        n_alive += alive[lam, i]
                        n_bdry += traj.boundary_touched
                        del tl, view        # so that the table is freed in a span
                        tr.flush_timeline()
            counts.append([self.p["reps"], [n_alive, n_bdry]])
        lo, hi = self.LAMS
        # exact thinning coupling: alive at the lower rate implies alive at the higher
        failed = sum(2 for i in range(self.p["reps"]) if alive[lo, i] and not alive[hi, i])
        return failed + compare_counts(record["counts"], counts)

    def finish(self, records) -> int:
        """Pooled p_hat per lambda against the committed reference band."""
        band = self.p["band"]
        if band is None:
            return 0
        failed = 0
        for j, lam in enumerate(self.LAMS):
            n = sum(r["counts"][j][0] for r in records)
            k = sum(r["counts"][j][1][0] for r in records)
            lo, hi = wilson_bounds(k, n, BAND_Z)
            ref_lo, ref_hi = wilson_bounds(*band[lam], BAND_Z)
            if hi < ref_lo or lo > ref_hi:
                failed += n
        return failed


# ---------------------------------------------------------------------------
# W2: the CLI phase scan of scripts/dp_phase_scan.py, cut down

class PhaseScanDp1d:
    """``cli.run`` on the phase-scan config: 8 lambda x 8 beta cells.

    Each seed's timeline is rebuilt once per beta column and thinned across
    the 8 lambda cells of that column; the CLI layer (per-column budget loop,
    CSV, manifest) is on the path.
    """

    name = "phase-scan-dp-1d"
    host_corrected = False
    replica_span = "analysis.replica"
    LAMBDAS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    BETAS = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]
    ALPHA = 1.0
    R = 1.0
    SIZES = {
        "full": dict(L=60, T=30.0, reps=1, batch_s=0.16),
        "tiny": dict(L=8, T=3.0, reps=1, batch_s=0.05),
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.p = self.SIZES[size]
        self.out_dir = os.path.join(workdir, "phase_scan")
        self.ops_per_batch = len(self.LAMBDAS) * len(self.BETAS)

    def setup(self, call):
        p = self.p
        g = call(build_box, 1, p["L"])
        # The CLI's max_events is a whole-scan budget in phase-scan: give it
        # exactly the events of all 8 columns so that none is cut off.
        q_ceil = self.ALPHA + max(self.BETAS)
        per_rep = (max(self.LAMBDAS) * 2 * g.n_edges + self.R * g.n_sites
                   + q_ceil * g.n_edges) * p["T"]
        config = {
            "subcommand": "phase-scan", "seed": 0, "d": 1, "L": p["L"],
            "axis1": ["lambda", self.LAMBDAS], "axis2": ["beta", self.BETAS],
            "fixed": {"alpha": self.ALPHA, "r": self.R}, "T": p["T"],
            "reps": p["reps"], "threads": 1,
            "max_events": math.ceil(per_rep * p["reps"] * len(self.BETAS)),
            "out_dir": self.out_dir,
        }
        self.cfg = call(cli.parse_config, json.dumps(config))

    def _run_cli(self, call, b: int):
        """One cli.run with the batch seed; returns (exit code, csv bytes, manifest)."""
        self.cfg.seed = derive_seed(self.seed, b)
        code = call(cli.run, self.cfg)
        label = self.cfg.label()
        csv_path = os.path.join(self.out_dir, f"{label}.csv")
        csv_bytes = b""
        if os.path.exists(csv_path):
            with open(csv_path, "rb") as fh:
                csv_bytes = fh.read()
            os.remove(csv_path)
        man_path = os.path.join(self.out_dir, f"{label}_manifest.json")
        with open(man_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        os.remove(man_path)
        return code, csv_bytes, manifest

    def _cells(self, csv_bytes):
        """(lambda, beta) -> (p_hat, n_reps, alive, boundary) from the CSV."""
        lines = csv_bytes.decode().splitlines()
        cells = {}
        for line in lines[1:]:
            lam, beta, p_hat, n, _, _, bfrac = line.split(",")[:7]
            n = int(n)
            cells[float(lam), float(beta)] = (float(p_hat), n, round(float(p_hat) * n),
                                              round(float(bfrac) * n))
        return cells

    def _keys(self):
        return [(lam, beta) for beta in self.BETAS for lam in self.LAMBDAS]

    def run_batch(self, b: int) -> Batch:
        n_cells = len(self._keys())
        code, csv_bytes, manifest = self._run_cli(direct, b)
        sha = hashlib.sha256(csv_bytes).hexdigest()
        outputs = manifest.get("outputs", {})
        if code != cli.EXIT_OK or outputs.get(f"{self.cfg.label()}.csv") != sha:
            return Batch(n_cells, 0, n_cells, {"sha": sha, "counts": []})
        cells = self._cells(csv_bytes)
        bad = {k for k in self._keys() if k not in cells or cells[k][1] != self.p["reps"]}
        # exact couplings on the shared timeline: p_hat rises with lambda
        # within a column and falls with beta within a row
        pairs = [((lo, beta), (hi, beta)) for beta in self.BETAS
                 for lo, hi in zip(self.LAMBDAS, self.LAMBDAS[1:])]
        pairs += [((lam, hi), (lam, lo)) for lam in self.LAMBDAS
                  for lo, hi in zip(self.BETAS, self.BETAS[1:])]
        for small, big in pairs:
            if small in cells and big in cells and cells[small][0] > cells[big][0]:
                bad |= {small, big}
        counts = [[1, list(cells[k][2:]) if k in cells else None] for k in self._keys()]
        done = sum(k in cells for k in self._keys())
        return Batch(n_cells, done * self.p["reps"], len(bad), {"sha": sha, "counts": counts})

    def replay_batch(self, tr, b: int, record) -> int:
        """cli.run once more (its CSV must match byte for byte), then
        analysis.phase_scan's loop as cli runs it, one column at a time."""
        call = tr.call
        n_cells = len(self._keys())
        code, csv_bytes, _ = self._run_cli(call, b)
        failed = 0
        if code != cli.EXIT_OK or hashlib.sha256(csv_bytes).hexdigest() != record["sha"]:
            failed = n_cells
        tr.counts["cli.columns_completed"] += len(self._cells(csv_bytes)) // len(self.LAMBDAS)
        p = self.p
        seed = self.cfg.seed
        cells = {}
        for beta in self.BETAS:
            with tr.span("analysis.phase_scan"):
                g = call(build_box, 1, p["L"])
                spec = call(make_spec, "dynamical-percolation", alpha=self.ALPHA, beta=beta, d=1)
                for lam in self.LAMBDAS:
                    cells[lam, beta] = [0, 0]
                for i in range(p["reps"]):
                    with tr.span(self.replica_span, replica=f"{b}:{beta}:{i}"):
                        rep_seed = derive_seed(seed, i)
                        tl = call(build_timeline, g, max(self.LAMBDAS), self.R,
                                  self.ALPHA + max(self.BETAS), p["T"], rep_seed)
                        for lam in self.LAMBDAS:
                            view = call(thin_view, tl, lam, self.R)
                            call(event_feed, view)
                            params = RunParams(g, lam, self.R, spec, p["T"], rep_seed)
                            traj = call(evolve, params, (g.origin(),), (), tl=view,
                                        stop_on_extinct=True, want_deltas=False)
                            cells[lam, beta][0] += traj.tau_ex == math.inf
                            cells[lam, beta][1] += traj.boundary_touched
                        del tl, view        # so that the table is freed in a span
                        tr.flush_timeline()
        counts = [[1, cells[k]] for k in self._keys()]
        return max(failed, compare_counts(record["counts"], counts))

    def finish(self, records) -> int:
        return 0


# ---------------------------------------------------------------------------
# W3: the criterion-1 coupling bundle in 2-d, bound by the engine

class CouplingIsing2d:
    """The pathwise coupling bundle of criterion 1, plus duality and the
    background-only sweep, on one shared timeline per replica.

    About 14 runs go to the horizon with deltas recorded, so generation is a
    small share; the engine, the flip rule and the comparison helpers do the
    work.
    """

    name = "coupling-ising-2d"
    host_corrected = True
    replica_span = "bench.bundle"
    SIZES = {
        "full": dict(L=12, T=10.0, bundles=1, batch_s=0.36),
        "tiny": dict(L=3, T=2.0, bundles=1, batch_s=0.01),
    }
    LAM = 0.7
    R = 1.0
    BETA_INV = 0.12

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.p = self.SIZES[size]
        self.ops_per_batch = self.p["bundles"]

    def setup(self, call):
        self.g = call(build_box, 2, self.p["L"])
        self.spec = call(make_spec, "ising", beta_inv=self.BETA_INV, d=2)

    def bundle(self, call, seed: int):
        """Outcome fingerprint and the number of failed relations for one replica."""
        g, spec, T, lam, r = self.g, self.spec, self.p["T"], self.LAM, self.R
        # initial sets at criterion 1's densities; duality target at criterion 2's
        rng = random.Random(seed)
        c_all = [s for s in range(g.n_sites) if rng.random() < 0.25] or [g.origin()]
        ca = [s for s in c_all if rng.random() < 0.5]
        in_ca = set(ca)
        cb = [s for s in c_all if s not in in_ca]
        b_all = [e for e in range(g.n_edges) if rng.random() < 0.5]
        b_sub = [e for e in b_all if rng.random() < 0.7]
        a_sites = [s for s in range(g.n_sites) if rng.random() < 0.2]

        tl = call(build_timeline, g, lam, r, spec.flip_rate, T, seed)
        call(event_feed, tl)
        P = RunParams(g, lam, r, spec, T)
        shared = call(background_path, spec, b_all, tl=tl)
        base = call(evolve, P, c_all, b_all, tl=tl, shared_bg=shared)

        def inside(small, big, **kw):
            return call(is_contained_pathwise, small, big, **kw)

        ok = []
        sub = call(evolve, P, ca, b_sub, tl=tl)
        ok.append(inside(sub, base, sites=True, edges=True))
        lam_v = call(evolve, RunParams(g, lam / 2, r, spec, T), c_all, b_all,
                     tl=call(thin_view, tl, lam / 2), shared_bg=shared)
        ok.append(inside(lam_v, base))
        r_v = call(evolve, RunParams(g, lam, r / 2, spec, T), c_all, b_all,
                   tl=call(thin_view, tl, lam, r / 2), shared_bg=shared)
        ok.append(inside(base, r_v))
        ea = call(evolve, P, ca, b_all, tl=tl, shared_bg=shared)
        eb = call(evolve, P, cb, b_all, tl=tl, shared_bg=shared)
        ok.append(call(union_matches_pathwise, ea, eb, base))
        rich = call(richardson, c_all, tl=tl, t_end=T)
        ok.append(inside(base, rich))
        trunc = call(evolve_truncated, g.half_width // 2, P, c_all, b_all, tl=tl,
                     shared_bg=shared)
        ok.append(inside(trunc, base))
        under, mid, over = call(coupled_bounds_cpdp, P, c_all, b_all, tl=tl)
        ok.append(inside(under, mid, sites=True, edges=True))
        ok.append(inside(mid, over, sites=True, edges=True))
        lo = call(delayed_variant, SUPPRESS_ARROWS, T / 4, P, c_all, b_all, tl=tl,
                  shared_bg=shared)
        hi = call(delayed_variant, SUPPRESS_RECOVERIES_AND_BACKGROUND, T / 4, P,
                  c_all, b_all, tl=tl, shared_bg=shared)
        ok.append(inside(lo, base))
        ok.append(inside(base, hi))
        # duality_indicators at t* = T, its two runs called one by one
        fwd = call(evolve, P, ca, b_all, tl=tl, want_deltas=False)
        dual = call(dual_evolve, a_sites, P, b_all, tl=tl, t_star=T, want_deltas=False)
        left = bool(fwd.c_final & frozenset(a_sites))
        right = bool(dual.c_final & frozenset(ca))
        ok.append(left == right)
        b_end = call(evolve_background, spec, b_all, tl=tl, t=T)
        ok.append(frozenset(int(e) for e in b_end) == shared.b_final)

        failed_relations = ok.count(False)
        fingerprint = [failed_relations, len(base.c_final), len(base.site_deltas),
                       len(shared.edge_deltas), len(rich.c_final), len(dual.site_deltas),
                       int(left), int(right)]
        return fingerprint, failed_relations

    def run_batch(self, b: int) -> Batch:
        counts = []
        failed = 0
        for i in range(self.p["bundles"]):
            fingerprint, bad = self.bundle(direct, derive_seed(self.seed, b * 1000 + i))
            counts.append([1, fingerprint])
            failed += bad > 0
        return Batch(len(counts), len(counts), failed, {"counts": counts})

    def replay_batch(self, tr, b: int, record) -> int:
        counts = []
        failed = 0
        for i in range(self.p["bundles"]):
            with tr.span(self.replica_span, replica=f"{b}:{i}"):
                fingerprint, bad = self.bundle(tr.call, derive_seed(self.seed, b * 1000 + i))
                tr.flush_timeline()
            counts.append([1, fingerprint])
            failed += bad > 0
        return max(failed, compare_counts(record["counts"], counts))

    def finish(self, records) -> int:
        return 0


WORKLOADS = {w.name: w for w in (SurvivalClassical1d, PhaseScanDp1d, CouplingIsing2d)}
