"""Spans and counts for the traced pass, kept in memory until the run ends.

A span is ``[name, start, end, parent, replica]`` with times in seconds from
the tracer's start.  ``Tracer.call`` wraps one call into contactenv: it names
the span after the function's module and name (``engine.evolve``) and, for
the functions in ``_HOOKS``, counts the work the call did from its arguments
and result.  Functions whose counts need the timeline are called with
``tl=`` as a keyword.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ENGINE_RUNS = ("engine.evolve", "engine.evolve_truncated", "engine.richardson",
               "engine.delayed_variant", "engine.coupled_bounds_cpdp")
CONTAINMENT = ("engine.is_contained_pathwise", "engine.union_matches_pathwise")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "contactenv.import_s": "s",
    "lattice.build_box_s": "s",
    "graphical.build_timeline_s": "s",
    "graphical.timelines_built": "count",
    "graphical.events_generated": "count",
    "graphical.ns_per_event_generated": "ns",
    "graphical.events_read_frac": "ratio",
    "graphical.event_feed_s": "s",
    "graphical.timeline_mb_max": "MiB",
    "graphical.timeline_free_s": "s",
    "background.make_spec_s": "s",
    "background.evolve_background_s": "s",
    "engine.background_path_s": "s",
    "engine.evolve_s": "s",
    "engine.runs": "count",
    "engine.events_scanned": "count",
    "engine.ns_per_event_scanned": "ns",
    "engine.dual_evolve_s": "s",
    "engine.containment_check_s": "s",
    "engine.deltas_recorded": "count",
    "analysis.self_s": "s",
    "analysis.replica_ms_p50": "ms",
    "analysis.replica_ms_p90": "ms",
    "analysis.replica_samples": "count",
    "cli.parse_config_s": "s",
    "cli.run_s": "s",
    "cli.columns_completed": "count",
    "trace.overhead_frac": "ratio",
}


def timeline_bytes(tl) -> int:
    """Computed, not measured: the event arrays plus, once the engine has
    converted them, the list views and the Python objects they hold."""
    n = tl.n_events
    size = tl.times.nbytes + tl.kinds.nbytes + tl.idx.nbytes + tl.marks.nbytes
    if "_lists" in vars(tl):
        size += sum(sys.getsizeof(lst) for lst in vars(tl)["_lists"])
        size += 2 * n * sys.getsizeof(0.5)       # float objects: times and marks
        # ints outside CPython's small-int cache; kinds 0..2 are cached
        size += int(np.count_nonzero(tl.idx > 256)) * sys.getsizeof(257)
    return size


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._names = {}
        self._tl = None           # the timeline runs currently read
        self._tl_reach = 0        # furthest event any run on it reached
        self.timeline_bytes_max = 0

    def _open(self, name, replica):
        parent = self._stack[-1] if self._stack else -1
        if replica is None and parent >= 0:
            replica = self.spans[parent][4]
        rec = [name, perf_counter() - self.origin, 0.0, parent, replica]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter() - self.origin
        self._stack.pop()

    @contextmanager
    def span(self, name, replica=None):
        rec = self._open(name, replica)
        try:
            yield
        finally:
            self._close(rec)

    def call(self, fn, *args, **kw):
        name = self._names.get(fn)
        if name is None:
            name = self._names[fn] = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        rec = self._open(name, None)
        try:
            out = fn(*args, **kw)
        finally:
            self._close(rec)
        hook = _HOOKS.get(name)
        if hook is not None:
            hook(self, kw, out)
        return out

    # -- counts --------------------------------------------------------------

    def _reach(self, tl, t) -> int:
        """Events of tl's table at or before t; tracks the furthest read."""
        base = getattr(tl, "base", tl)          # a view's underlying table
        n = int(np.searchsorted(base.times, t, side="right"))
        if base is self._tl and n > self._tl_reach:
            self._tl_reach = n
        return n

    def flush_timeline(self):
        """Count the current timeline's reads and size, then drop the
        tracer's reference to it in a span of its own: once the caller has
        dropped its references too, freeing the table and its list views
        (hundreds of thousands of objects in W1) is timed there."""
        if self._tl is None:
            return
        self.counts["graphical.events_read"] += self._tl_reach
        self.timeline_bytes_max = max(self.timeline_bytes_max, timeline_bytes(self._tl))
        self._tl_reach = 0
        with self.span("graphical.timeline_free"):
            self._tl = None

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: total self time, its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def durations(self, name) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def layer_metrics(self, replica_span: str, overhead_frac: float, import_s: float) -> dict:
        self.flush_timeline()
        own = self.self_times()
        c = self.counts

        def s(*names):
            return sum(own.get(n, 0.0) for n in names)

        replica_ms = sorted(1e3 * d for d in self.durations(replica_span))
        if len(replica_ms) >= 2:
            deciles = statistics.quantiles(replica_ms, n=10)
            p50, p90 = statistics.median(replica_ms), deciles[8]
        else:
            p50 = p90 = replica_ms[0] if replica_ms else 0.0
        generated = c["graphical.events_generated"]
        scanned = c["engine.events_scanned"]
        engine_s = s(*ENGINE_RUNS, "engine.background_path", "engine.dual_evolve")
        values = {
            "contactenv.import_s": import_s,
            "lattice.build_box_s": s("lattice.build_box"),
            "graphical.build_timeline_s": s("graphical.build_timeline"),
            "graphical.timelines_built": c["graphical.timelines_built"],
            "graphical.events_generated": generated,
            "graphical.ns_per_event_generated":
                1e9 * s("graphical.build_timeline") / generated if generated else 0.0,
            "graphical.events_read_frac":
                c["graphical.events_read"] / generated if generated else 0.0,
            "graphical.event_feed_s": s("graphical.event_feed"),
            "graphical.timeline_mb_max": self.timeline_bytes_max / 2 ** 20,
            "graphical.timeline_free_s": s("graphical.timeline_free"),
            "background.make_spec_s": s("background.make_spec"),
            "background.evolve_background_s": s("background.evolve_background"),
            "engine.background_path_s": s("engine.background_path"),
            "engine.evolve_s": s(*ENGINE_RUNS),
            "engine.runs": c["engine.runs"],
            "engine.events_scanned": scanned,
            "engine.ns_per_event_scanned": 1e9 * engine_s / scanned if scanned else 0.0,
            "engine.dual_evolve_s": s("engine.dual_evolve"),
            "engine.containment_check_s": s(*CONTAINMENT),
            "engine.deltas_recorded": c["engine.deltas_recorded"],
            "analysis.self_s": sum(v for k, v in own.items() if k.startswith("analysis.")),
            "analysis.replica_ms_p50": p50,
            "analysis.replica_ms_p90": p90,
            "analysis.replica_samples": len(replica_ms),
            "cli.parse_config_s": s("cli.parse_config"),
            "cli.run_s": s("cli.run"),
            "cli.columns_completed": c["cli.columns_completed"],
            "trace.overhead_frac": overhead_frac,
        }
        return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}

    def to_json(self) -> dict:
        return {"spans": [{"name": n, "start": a, "end": b, "parent": p, "replica": r}
                          for n, a, b, p, r in self.spans],
                "self_s": self.self_times(),
                "counts": dict(self.counts)}


# -- hooks: counts taken from a call's arguments and result --------------------

def _on_timeline(tr, kw, tl):
    tr.flush_timeline()
    tr._tl = tl
    tr.counts["graphical.timelines_built"] += 1
    tr.counts["graphical.events_generated"] += tl.n_events


def _on_runs(tr, kw, out):
    tl = kw["tl"]
    own_edges = kw.get("shared_bg") is None
    for traj in out if isinstance(out, tuple) else (out,):
        # with stop_on_extinct the loop ends at the extinction event
        t = min(traj.tau_ex, traj.t_end) if kw.get("stop_on_extinct") else traj.t_end
        tr.counts["engine.events_scanned"] += tr._reach(tl, t)
        tr.counts["engine.runs"] += 1
        tr.counts["engine.deltas_recorded"] += (
            len(traj.site_deltas) + (len(traj.edge_deltas) if own_edges else 0))


def _on_background_path(tr, kw, path):
    tr.counts["engine.events_scanned"] += tr._reach(kw["tl"], math.inf)
    tr.counts["engine.deltas_recorded"] += len(path.edge_deltas)


def _on_evolve_background(tr, kw, out):
    tr._reach(kw["tl"], kw["t"])


_HOOKS = {
    "graphical.build_timeline": _on_timeline,
    **{name: _on_runs for name in ENGINE_RUNS + ("engine.dual_evolve",)},
    "engine.background_path": _on_background_path,
    "background.evolve_background": _on_evolve_background,
}
