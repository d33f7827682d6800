"""Event-driven evolution of the infection/environment pair and its coupled variants.

Everything here is a pure function of (initial sets, timeline): the plain
run, the recovery-free upper bound, truncated runs, the delayed lower/upper
bounds, the two bounding runs with independent edge dynamics, and the
time-reversed run.  Because coupled variants consume the same event table,
their containment relations hold pathwise, event by event, and the
comparison helpers at the bottom of this module check exactly that.

_run is the one infection loop: every entry point, the dual included, is a
call to it with its own windows, emanation and entry limits and
environment.  evolve_scan runs the loop of evolve at many arrow rates in
each of up to 64 columns in one sweep over the same chunks (the kernel's
scan), with each column's independent-edge environment swept inline;
evolve_levels is a scan of one column whose arrows read a stored path,
so it runs in any environment.  The environment is autonomous, so its
path depends only on (feed, spec, initial edges).  BackgroundPath holds
it and applies the flip rule, sweeping on through each chunk of the feed
before a run reads the chunk; only the scan applies the rule too, inline,
to its columns' edge masks.  Paths on forward, un-anchored feeds are
stored on the base Timeline, so every run with that spec and those
initial edges reads and extends one: a run that dies early sweeps a
prefix, and the next reuses it.  A frozen environment (spec None) reads
no path.

The three loops, the run, the scan and the path's sweep, are the event
kernel's: _lib is the compiled kernel (_kernel.c, loaded by kernel.load()
when this module is imported), or, when no C compiler is found, the
plain-Python one (reference.py), which takes the same arguments and gives
bit-identical outputs.  Either reads the base Timeline's four buffers a
stretch at a time and keeps its state between calls in buffers owned
here: the infection bytearray, a scan's levels and edge masks, and a
path's edge states, open-neighbour counts and arrow flags (a bytearray by
feed offset).

The table is itself drawn and sorted on demand, slab by slab.  A run that
stops at extinction reads fixed-size chunks of _CHUNK events and never asks
for the table's length: it draws slabs as far as its chunks reach and none
past the one that holds its horizon, finds the horizon in the chunk that
holds it and stops when the infection dies.  So an early death draws and
sorts a small prefix of the table, which later runs share.  Every other
run draws through its horizon (Timeline.count_through) in one chunk;
background_path sweeps the whole feed.  A reversed feed is read in place,
walked from its anchor back; only its own environment path, if it has one,
is swept over the reversed feed.

Every entry point that takes RunParams runs at (params.lam, params.r): a
Timeline is thinned to them here, and a view must already be at them.

The kernel returns each stretch's deltas as arrays (times, indices, signs),
and they stay arrays: a Trajectory keeps the concatenated site deltas and,
for its edges, a slice of the arrays in which its BackgroundPath keeps its
flips.  Lists of (time, index, sign) tuples and the final edge set are built
only when read, and the comparison helpers read the arrays.
"""

from __future__ import annotations

import math
import weakref
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernel, reference
from .background import BackgroundSpec, coupled_region, make_spec, min_max_rates
from .graphical import Timeline, TimelineView, _unpack, feed_size, reverse_view, thin_view
from .lattice import GraphView

# the compiled kernel, or the plain-Python one when no C compiler is found
_lib = kernel.load() or reference

SUPPRESS_ARROWS = "suppress-arrows"
SUPPRESS_RECOVERIES_AND_BACKGROUND = "suppress-recoveries-and-background"


@dataclass(eq=False)
class RunParams:
    """Rates and horizon for one process family on one box."""

    graph: GraphView
    lam: float
    r: float
    spec: BackgroundSpec | None      # None: frozen environment, no flip dynamics
    horizon: float
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lam, self.r, self.horizon)):
            raise ValueError("rates and horizon must be finite")
        if self.lam < 0 or self.r < 0:
            raise ValueError("rates must be nonnegative")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


class Deltas(NamedTuple):
    """One family's state changes in time order, as arrays: times
    (float64), indices (int32) and signs (int8, +1 or -1)."""

    t: np.ndarray
    x: np.ndarray
    s: np.ndarray

    def as_list(self) -> list:
        """The deltas as a list of (time, index, sign)."""
        return list(zip(self.t.tolist(), self.x.tolist(), self.s.tolist()))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return Deltas(*arrays)


_NO_DELTAS = _read_only(np.empty(0), np.empty(0, np.int32), np.empty(0, np.int8))


def _replay(init, d: Deltas, k: int) -> frozenset:
    """The set init with the first k deltas of d applied: an index that
    they touch is in it iff its last sign among them is +1."""
    if k == 0:
        return frozenset(init)
    idx, last = np.unique(d.x[k - 1::-1], return_index=True)
    on = d.s[k - 1::-1][last] > 0
    state = set(init)
    state.difference_update(idx[~on].tolist())
    state.update(idx[on].tolist())
    return frozenset(state)


@dataclass(eq=False)
class Trajectory:
    """Piecewise-constant path recorded as per-family state deltas.

    site_arrays and edge_arrays hold the deltas at state-changing events as
    Deltas arrays, in time order; queries at arbitrary t replay the deltas
    up to and including t.  site_deltas and edge_deltas are the same
    deltas as lists of (time, index, +1|-1), built on first read.  The
    empty infection set is absorbing, so tau_ex is the first time the site
    set emptied (inf if it never did).  b_final, the edge set at the run's
    stop, is b0 with _flips (the environment's flips through the stop,
    recorded or not) replayed, on first read.
    """

    graph: GraphView
    t_end: float
    c0: frozenset
    b0: frozenset
    site_arrays: Deltas
    edge_arrays: Deltas
    c_final: frozenset
    tau_ex: float
    boundary_touched: bool
    _flips: Deltas = field(default=_NO_DELTAS, repr=False)

    @cached_property
    def site_deltas(self) -> list:
        return self.site_arrays.as_list()

    @cached_property
    def edge_deltas(self) -> list:
        return self.edge_arrays.as_list()

    @cached_property
    def b_final(self) -> frozenset:
        return _replay(self.b0, self._flips, len(self._flips.t))

    def sites_at(self, t: float) -> frozenset:
        self._check(t)
        d = self.site_arrays
        return _replay(self.c0, d, int(np.searchsorted(d.t, t, "right")))

    def edges_at(self, t: float) -> frozenset:
        self._check(t)
        d = self.edge_arrays
        return _replay(self.b0, d, int(np.searchsorted(d.t, t, "right")))

    def _check(self, t):
        if not 0 <= t <= self.t_end + 1e-9:
            raise ValueError(f"query time {t} outside [0, {self.t_end}]")

    def alive_at(self, t: float) -> bool:
        return self.tau_ex > t

    def _merged(self):
        """Times, families, indices and signs of both families' deltas as
        lists, in time order, sites before edges at equal times."""
        sd, ed = self.site_arrays, self.edge_arrays
        t = np.concatenate((sd.t, ed.t))
        order = np.argsort(t, kind="stable")
        return (t[order].tolist(), (order >= len(sd.t)).astype(np.int8).tolist(),
                np.concatenate((sd.x, ed.x))[order].tolist(),
                np.concatenate((sd.s, ed.s))[order].tolist())

    @property
    def deltas(self):
        """Merged (time, family, index, sign) stream; family 0 sites, 1 edges."""
        return list(zip(*self._merged()))

    def snapshots(self):
        """Yield (time, site set, edge set) after every state-changing event."""
        c = set(self.c0)
        b = set(self.b0)
        yield 0.0, frozenset(c), frozenset(b)
        times, fams, idx, signs = self._merged()
        i = 0
        n = len(times)
        while i < n:
            t = times[i]
            while i < n and times[i] == t:
                tgt = c if fams[i] == 0 else b
                if signs[i] > 0:
                    tgt.add(idx[i])
                else:
                    tgt.discard(idx[i])
                i += 1
            yield t, frozenset(c), frozenset(b)


@dataclass(eq=False, repr=False, slots=True)
class BackgroundPath:
    """Realized environment on one feed from one starting edge set, swept
    through its first n_events events, and the only code that applies the
    flip rule.  _open flags, by feed offset, each swept arrow whose edge is
    open just before it fires (arrow_open reads and sets it as a list).
    The flips are kept in arrays that grow with the sweep, _flip_arrays:
    times, edges, signs and feed offsets (a reversed feed's times can tie),
    of which the first _n_flips are filled; edge_deltas and _flip_at read
    them, and a run's edge deltas are a slice of them (until).  _grow() sweeps on
    from the state kept here: edge states, open line-graph neighbour counts
    and the flip rule (None: no flips).  feed records the event order the
    flags are indexed by: (weak reference to the base Timeline, reversal
    anchor, reversed); a run on another feed is rejected.
    """

    b0: frozenset
    feed: tuple
    _rule: tuple | None         # (up table, down table, candidate rate)
    _graph: GraphView
    _open: bytearray = field(default_factory=bytearray, init=False)
    _flip_arrays: tuple = field(init=False)
    _n_flips: int = field(default=0, init=False)
    _edges: bytearray = field(init=False)
    _open_nbrs: bytearray = field(init=False)
    _b_final: frozenset | None = field(init=False)
    _rule_arrays: tuple | None = field(default=None, init=False)    # the kernel's copy

    def __post_init__(self):
        self._flip_arrays = (np.empty(0), np.empty(0, np.int32), np.empty(0, np.int8),
                             np.empty(0, np.int32))
        n = self._graph.n_edges
        on = np.zeros(n, np.uint8)
        on[np.fromiter(self.b0, np.int64, len(self.b0))] = 1
        self._edges = bytearray(on)
        # each open edge counts once at each of its line-graph neighbours
        lines = kernel.graph_tables(self._graph).arrays
        rows = np.repeat(on.view(bool), np.diff(lines["lptr"]))
        self._open_nbrs = bytearray(
            np.bincount(lines["lnbr"][rows], minlength=n).astype(np.uint8))
        self._b_final = self.b0

    @property
    def n_events(self) -> int:
        return len(self._open)

    @property
    def arrow_open(self) -> list:
        """The arrow flags as a list of bools."""
        return list(map(bool, self._open))

    @arrow_open.setter
    def arrow_open(self, flags):
        self._open = bytearray(map(bool, flags))

    @property
    def edge_deltas(self) -> list:
        """The flips swept so far as a list of (time, edge, sign)."""
        return self._through(self._n_flips).as_list()

    @property
    def _flip_at(self) -> np.ndarray:
        """The flips' feed offsets (int32)."""
        return self._flip_arrays[3][:self._n_flips]

    @property
    def b_final(self) -> frozenset:
        """Edge set after the last event swept."""
        if self._b_final is None:
            self._b_final = frozenset(
                np.flatnonzero(np.frombuffer(bytes(self._edges), dtype=np.uint8)).tolist())
        return self._b_final

    def _through(self, k) -> Deltas:
        # the first k flips are never written again, so views of them stay valid
        return _read_only(*(a[:k] for a in self._flip_arrays[:3]))

    def _grow(self, hi):
        """Sweep on through feed offset hi - 1, reading the base table,
        drawn that far, in place."""
        lo = len(self._open)
        if hi <= lo:
            return
        self._open.extend(bytes(hi - lo))
        base, anchor, rev = self.feed[0](), self.feed[1], self.feed[2]
        # a reversed feed is the table's events through the anchor, newest first
        top = base.count_through(anchor) - 1 if rev else -1
        if self._rule is not None and self._rule_arrays is None:
            up, down, q = self._rule
            self._rule_arrays = (np.array(up, dtype=np.float64),
                                 np.array(down, dtype=np.float64), q)
        new = _lib.grow(base._buf, base.n_generated, lo, hi, top,
                        0.0 if anchor is None else anchor, self._graph,
                        self._rule_arrays, self._edges, self._open_nbrs, self._open)
        m = len(new[0])
        if not m:
            return
        n = self._n_flips
        if n + m > len(self._flip_arrays[0]):
            # a new, larger buffer; views of the old one keep it alive
            cap = max(n + m, 2 * n, 1024)
            grown = tuple(np.empty(cap, a.dtype) for a in self._flip_arrays)
            for old, g in zip(self._flip_arrays, grown):
                g[:n] = old[:n]
            self._flip_arrays = grown
        for arr, part in zip(self._flip_arrays, new):
            arr[n:n + m] = part
        self._n_flips = n + m
        self._b_final = None

    def until(self, t) -> Deltas:
        """The flips of the path through time t, which the sweep has reached."""
        times = self._flip_arrays[0][:self._n_flips]
        return self._through(int(np.searchsorted(times, t, "right")))

    def edges_at(self, t) -> frozenset:
        """The edge set at time t, which the sweep has reached."""
        d = self.until(t)
        return _replay(self.b0, d, len(d.t))


def _bg_tables(spec, tl):
    """spec's flip rule on tl's table, (up table, down table, candidate
    rate), or None for a frozen environment; rejects a table spec cannot
    run on."""
    base = _unpack(tl)[0]
    if base.flip_rate > 0 and spec is None:
        raise ValueError("timeline carries flip events but no background spec was given")
    if spec is None:
        return None
    if spec.dimension != base.graph.dimension:
        raise ValueError(f"background spec for d={spec.dimension} on a "
                         f"{base.graph.dimension}-dimensional box")
    if base.flip_rate + 1e-12 < spec.flip_rate:
        raise ValueError(
            f"timeline flip rate {base.flip_rate} below the spec's uniformization rate "
            f"{spec.flip_rate}; rebuild the timeline for this spec")
    return spec.up_table, spec.down_table, base.flip_rate


def _path(spec, b0: frozenset, tl) -> BackgroundPath:
    """The path of (spec, b0) on tl's feed as far as it is swept: on a
    forward, un-anchored feed the one stored on the base Timeline, made and
    stored on first use; on any other feed a new one."""
    base, _, _, anchor, rev = _unpack(tl)
    store = base.bg_paths if anchor is None else None
    path = store.get((spec, b0)) if store is not None else None
    if path is None:
        # a weak reference: the path is stored on the Timeline it refers to
        path = BackgroundPath(b0, (weakref.ref(base), anchor, rev), _bg_tables(spec, tl),
                              base.graph)
        if store is not None:
            store[(spec, b0)] = path
    return path


def background_path(spec, b0, tl) -> BackgroundPath:
    """The environment path of (spec, b0) on tl's feed, swept through the
    whole feed; exact for any infection run on it, as the environment never
    reads the infection.  On a Timeline, or a view of one without a reversal
    anchor, it is the path stored on the base Timeline under (spec,
    frozenset(b0)), which the runs of this module on that timeline with the
    same spec and initial edges read and extend, and which this call sweeps
    on to the end.  Reversed and anchored views get a new path on every call.
    Paths grow on demand; runs in a frozen environment (spec None) read none.
    """
    path = _path(spec, frozenset(map(int, b0)), tl)
    n = feed_size(tl)
    if path.n_events < n:
        path._grow(n)
    return path


_CHUNK = 4096     # events a run that stops at extinction reads at a time


def _check_box(g, base):
    if (base.graph.n_sites, base.graph.n_edges) != (g.n_sites, g.n_edges):
        raise ValueError("the timeline was drawn on a box of another size")


def _frac(rate, rate_max):
    """The mark below which an event generated at rate_max is kept at rate."""
    return rate / rate_max if rate < rate_max else 1.0


def _stretches(base, hi, t_last, path):
    """The (start, stop) table offsets a run reads, in order: 0..hi in one
    stretch, or, when hi is None, chunks of _CHUNK events through the last
    event at or before t_last, with slabs drawn as far as each chunk
    reaches.  path, if given, is swept through each stretch before it is
    yielded.  The caller reads base._buf after each yield, as _draw_slab
    replaces it when it grows."""
    start = 0
    while True:
        last = hi is not None
        if last:
            stop = hi
        else:
            base._fill(start + _CHUNK, t_last)
            stop = min(start + _CHUNK, base.n_generated)
            last = stop < start + _CHUNK
            times = base._buf[0]
            if stop > start and times[stop - 1] > t_last:
                stop = start + int(np.searchsorted(times[start:stop], t_last, "right"))
                last = True
        if path is not None:
            path._grow(stop)
        yield start, stop
        if last:
            return
        start = stop


def _run(g: GraphView, tl, c0, b0, *, t_end, eman_limit=math.inf, entry_limit=math.inf,
         env=None, no_arrows_until=-1.0, free_infection_until=-1.0,
         no_recoveries_until=-1.0, stop_on_extinct=False, want_deltas=True):
    """One infection run on tl's feed, in the kernel's stretches.  Arrows
    leave only sites of norm below eman_limit and enter only sites of norm
    below entry_limit.  Its environment env is a BackgroundPath on tl's
    feed, grown through each stretch before the stretch is read; or arrow
    flags by table offset, a bytearray or a list (the dual's forward
    environment); or, if None, the edge set b0 (a frozenset of ints)
    throughout.

    A reversed feed is read in place: the base table's events from the
    anchor back, at time anchor - times[i], each arrow crossed from its
    target to its source."""
    base, lam, r, anchor, rev = _unpack(tl)
    _check_box(g, base)
    horizon = tl.t_max
    if not t_end <= horizon + 1e-9:
        raise ValueError(f"t_end={t_end} beyond the feed horizon {horizon}")
    chunked = stop_on_extinct and not rev
    # a forward feed ends at its anchor; a chunked run finds the end in the chunk holding it
    t_last = t_end if anchor is None else min(t_end, anchor)
    hi = None
    if rev:
        hi = base.count_through(anchor)
    elif not chunked:   # read in one chunk
        hi = base.count_through(t_last)

    C = bytearray(g.n_sites)
    for s in c0:
        C[int(s)] = 1
    n_inf = C.count(1)
    btouch = any(g.norm_inf[int(s)] >= g.half_width for s in c0)

    path = env if isinstance(env, BackgroundPath) else None
    # weak references compare by their referents, so this matches the base by identity
    if path is not None and path.feed != (weakref.ref(base), anchor, rev):
        raise ValueError("background path was computed for a different feed")
    flags = B = None
    flag_top = -1
    if env is None:
        B = bytearray(g.n_edges)
        for e in b0:
            B[e] = 1
    elif path is None:
        flags = env if isinstance(env, bytearray) else bytearray(env)
    else:
        if rev:     # swept over the reversed feed, read from the anchor back
            path._grow(hi)
            flag_top = path.n_events - 1
        flags = path._open
    state = array("q", [n_inf, btouch, 0])      # infected count, boundary touched, extinct
    tau = array("d", [0.0 if n_inf == 0 else math.inf])
    fracs, limits = (_frac(lam, base.lam_max), _frac(r, base.r_max)), (eman_limit, entry_limit)
    windows = (no_arrows_until, free_infection_until, no_recoveries_until)
    # a reversed feed is cut at t_end inside the kernel
    anchor, t_cut = (anchor, t_end) if rev else (0.0, math.inf)
    parts = []
    t_stop = t_end
    for start, stop in _stretches(base, hi, t_last, None if rev else path):
        part = _lib.run(base._buf, base.n_generated, start, stop, rev, anchor, t_cut,
                        g, fracs, limits, windows, flags, flag_top, B, C, state, tau,
                        want_deltas)
        if len(part[0]):
            parts.append(part)
        if state[2]:
            if stop_on_extinct:
                t_stop = tau[0]
            break
    c_final = frozenset(np.flatnonzero(np.frombuffer(bytes(C), dtype=np.uint8)).tolist())
    if not parts:
        sites = _NO_DELTAS
    elif len(parts) == 1:
        sites = Deltas(*parts[0])
    else:
        sites = Deltas(*map(np.concatenate, zip(*parts)))
    flips = path.until(t_stop) if path is not None else _NO_DELTAS
    return sites, flips, c_final, tau[0], bool(state[1])


def _traj(g, t_end, c0, b0, out, want_deltas) -> Trajectory:
    """The Trajectory of _run's output out; its edge deltas are the
    environment's flips through the stop if want_deltas."""
    sites, flips, c_final, tau, btouch = out
    return Trajectory(graph=g, t_end=float(t_end), c0=frozenset(int(s) for s in c0),
                      b0=b0, site_arrays=sites,
                      edge_arrays=flips if want_deltas else _NO_DELTAS, c_final=c_final,
                      tau_ex=tau, boundary_touched=btouch, _flips=flips)


def _at_rates(params, tl):
    """tl as a run of params reads it: a Timeline thinned to (params.lam,
    params.r), which thin_view rejects above the generation rates, or a view
    that already runs at them."""
    if isinstance(tl, TimelineView):
        if abs(tl.lam - params.lam) > 1e-12 or abs(tl.r - params.r) > 1e-12:
            raise ValueError(f"view rates lam={tl.lam}, r={tl.r} differ from the run's "
                             f"lam={params.lam}, r={params.r}")
        return tl
    if params.lam == tl.lam_max and params.r == tl.r_max:
        return tl
    return thin_view(tl, params.lam, params.r)


def _evolve(params, c0, b0, tl, shared_bg, *, want_deltas, **kw) -> Trajectory:
    """A forward run of params on tl, at params' rates.  Its environment is
    shared_bg if given, else the path of (params.spec, b0) on tl's feed; a
    frozen environment reads none."""
    tl = _at_rates(params, tl)
    if shared_bg is not None:
        path, b0 = shared_bg, shared_bg.b0
    else:
        b0 = frozenset(map(int, b0))
        # _bg_tables rejects a table with flips under a frozen environment
        path = (_bg_tables(None, tl) if params.spec is None
                else _path(params.spec, b0, tl))
    out = _run(params.graph, tl, c0, b0, t_end=params.horizon, env=path,
               want_deltas=want_deltas, **kw)
    return _traj(params.graph, params.horizon, c0, b0, out, want_deltas)


def evolve(params: RunParams, c0, b0, tl, *, stop_on_extinct=False,
           want_deltas=True, shared_bg: BackgroundPath | None = None) -> Trajectory:
    """Run the pair process: arrows infect across open edges, recoveries heal,
    flip candidates drive the environment.  Arrows emanate from the open
    interior of the box only.  Pass shared_bg (from background_path) to reuse
    an already-computed environment for the same (timeline, spec, b0); the
    path stored on the timeline for them is read and extended without it.

    With stop_on_extinct the recording stops when the site set empties (the
    empty set is absorbing, so nothing about survival is lost); edge queries
    past that moment return the environment as of the stop."""
    return _evolve(params, c0, b0, tl, shared_bg, eman_limit=params.graph.half_width,
                   stop_on_extinct=stop_on_extinct, want_deltas=want_deltas)


def _check_sweep(name, columns, tl) -> list:
    """The flip rules (see _bg_tables) of columns [(cells, b0), ...] that
    one sweep of tl, a Timeline, runs: every cell shares graph and horizon,
    and a column's cells differ in lam only.  Rejects what evolve would not
    run: a box of another size, a horizon past tl's, a rate above tl's."""
    if not isinstance(tl, Timeline):
        raise TypeError(f"{name} runs on a Timeline, got {type(tl).__name__}")
    if not columns or not all(cells for cells, _ in columns):
        raise ValueError(f"{name} needs columns of one cell or more")
    p0 = columns[0][0][0]
    _check_box(p0.graph, tl)
    if not p0.horizon <= tl.t_max + 1e-9:
        raise ValueError(f"t_end={p0.horizon} beyond the feed horizon {tl.t_max}")
    rules = []
    for cells, _ in columns:
        c = cells[0]
        if any(p.graph is not p0.graph or p.horizon != p0.horizon
               or (p.r, p.spec) != (c.r, c.spec) for p in cells):
            raise ValueError("the cells of a sweep share graph and horizon, and those of "
                             "a column differ in lam only")
        for p in cells:
            _at_rates(p, tl)        # rejects a rate above the table's
        rules.append(_bg_tables(c.spec, tl))    # rejects a table this spec cannot run on
    return rules


def evolve_levels(cells, c0, b0, tl) -> list:
    """(tau_ex, boundary_touched) of evolve(p, c0, b0, tl,
    stop_on_extinct=True) for each RunParams p of cells, bit for bit, from
    one sweep of tl, a Timeline.  The cells differ in lam only: they share
    graph, r, spec and horizon.

    The sweep keeps a level per site: the least, over the infection paths
    into the site, of the largest arrow mark on the path.  A site is
    infected in the run at fraction f = lam / lam_max exactly when its level
    is below f.  It is a scan of one column (see evolve_scan) whose arrows
    read the path of (spec, b0) stored on tl, swept through each of _run's
    chunks as the scan reaches it; a frozen column (spec None) reads b0.
    The sweep stops when the run at the largest lam dies."""
    _check_sweep("evolve_levels", [(cells, b0)], tl)
    b0 = frozenset(map(int, b0))
    spec = cells[0].spec
    return _scan([(cells, b0)], c0, tl, None if spec is None else _path(spec, b0, tl))[0]


def evolve_scan(columns, c0, tl) -> list:
    """[evolve_levels(cells, c0, b0, tl) for (cells, b0) in columns], bit for
    bit, from one sweep of tl, a Timeline, per 64 columns.  Every cell of
    every column shares graph and horizon; a column's cells differ in lam
    only, and its environment is independent-edge (rates that do not read
    the open neighbours, as dynamical percolation's) or frozen (spec None).

    The kernel's scan keeps each edge's state in every column as one bit of
    a 64-bit mask, each site's level in every column, and each column's
    state of the levels sweep, so the environments are swept along with
    the levels and no path is stored.  The sweep reads the table in _run's
    chunks and stops when every column's run at its largest lam dies."""
    for rule in _check_sweep("evolve_scan", columns, tl):
        if rule is not None and (len(set(rule[0])) > 1 or len(set(rule[1])) > 1):
            raise ValueError("a scan's environments must have independent edges")
    out = []
    for at in range(0, len(columns), 64):
        out += _scan(columns[at:at + 64], c0, tl)
    return out


def _scan(columns, c0, tl, path=None):
    """The kernel's scan of up to 64 columns [(cells, b0), ...] on tl.  With
    path, the arrows read their edges from its flags, swept through each
    stretch before the scan reads it; without, each column's edges start
    from its b0 and flip by its spec's rates, or never (spec None)."""
    c0 = [int(s) for s in c0]
    if not c0:      # every run is extinct from time 0
        return [[(0.0, False)] * len(cells) for cells, _ in columns]
    g = columns[0][0][0].graph
    n_cols = len(columns)
    orders = [sorted(range(len(cells)), key=lambda k: cells[k].lam) for cells, _ in columns]
    col_ptr = array("q", [0])
    fracs = array("d")
    for (cells, _), order in zip(columns, orders):
        fracs.extend(_frac(cells[k].lam, tl.lam_max) for k in order)
        col_ptr.append(len(fracs))
    r_fracs = array("d", [_frac(cells[0].r, tl.r_max) for cells, _ in columns])
    # a frozen column neither opens nor closes an edge
    ups = array("d", [-math.inf]) * n_cols
    downs = array("d", [-math.inf]) * n_cols
    on = np.zeros(g.n_edges, np.uint64)
    for k, (cells, b0) in enumerate(columns):
        if cells[0].spec is not None:
            ups[k], downs[k] = cells[0].spec.up_table[0], cells[0].spec.down_table[0]
        on[np.fromiter(map(int, b0), np.int64)] |= np.uint64(1 << k)
    masks = array("Q", on.tobytes())
    flags = None if path is None else path._open
    level = array("d", [math.inf]) * (g.n_sites * n_cols)
    for s in c0:
        level[s * n_cols:(s + 1) * n_cols] = array("d", [-1.0]) * n_cols
    # runs extinct and sites below the lowest fraction, per column
    state = array("q", [0, len(set(c0))]) * n_cols
    touch = array("d", [math.inf]) * n_cols
    taus = array("d", [math.inf]) * len(fracs)
    rule = (ups, downs, tl.flip_rate)
    for start, stop in _stretches(tl, None, columns[0][0][0].horizon, path):
        if _lib.scan(tl._buf, tl.n_generated, start, stop, g, col_ptr, fracs, r_fracs, rule,
                     masks, flags, level, state, touch, taus) == n_cols:
            break
    c0_touch = any(g.norm_inf[s] >= g.half_width for s in c0)
    out = []
    for k, ((cells, _), order) in enumerate(zip(columns, orders)):
        col = [None] * len(cells)
        for i, c in enumerate(order, col_ptr[k]):
            col[c] = (taus[i], c0_touch or touch[k] < fracs[i])
        out.append(col)
    return out


def evolve_truncated(l_inner: int, params: RunParams, c0, b0, tl, *,
                     stop_on_extinct=False, want_deltas=True,
                     shared_bg: BackgroundPath | None = None) -> Trajectory:
    """Like evolve, but arrows emanate only from the open inner box
    (-l_inner, l_inner)^d.  Pathwise contained in the untruncated run."""
    if l_inner > params.graph.half_width:
        raise ValueError(f"inner scale {l_inner} exceeds the box half-width "
                         f"{params.graph.half_width}")
    return _evolve(params, c0, b0, tl, shared_bg, eman_limit=l_inner,
                   stop_on_extinct=stop_on_extinct, want_deltas=want_deltas)


def richardson(c0, tl, t_end: float, *, want_deltas=True) -> Trajectory:
    """Growth-only upper bound: every edge is open and no recovery acts through
    t_end, so the site set is nondecreasing and dominates every run on tl."""
    g = tl.graph
    out = _run(g, tl, c0, frozenset(), t_end=t_end, eman_limit=g.half_width,
               free_infection_until=t_end, no_recoveries_until=t_end,
               want_deltas=want_deltas)
    return _traj(g, t_end, c0, frozenset(), out, want_deltas)


def evolve_released(params: RunParams, c0, b0, tl, release: float, *,
                    stop_on_extinct=False, want_deltas=True) -> Trajectory:
    """Evolve with the infection frozen (no arrows, no recoveries) on
    [0, release] while the environment runs; full dynamics afterwards.
    This is the burn-in mechanism the estimators use for near-stationary
    starts of environments without a closed-form invariant law."""
    if not 0 <= release <= params.horizon:
        raise ValueError(f"release {release} outside [0, {params.horizon}]")
    return _evolve(params, c0, b0, tl, None, eman_limit=params.graph.half_width,
                   no_arrows_until=release, no_recoveries_until=release,
                   stop_on_extinct=stop_on_extinct, want_deltas=want_deltas)


def delayed_variant(mode: str, s: float, params: RunParams, c0, b0, tl, *,
                    stop_on_extinct=False, want_deltas=True,
                    shared_bg: BackgroundPath | None = None) -> Trajectory:
    """Bounding runs that distort the dynamics on [0, s] and are exact after.

    "suppress-arrows" drops every arrow on [0, s] (lower bound);
    "suppress-recoveries-and-background" drops recoveries and treats every
    edge as open on [0, s] (upper bound, agrees with richardson there).
    The environment itself evolves unmodified in both modes.
    """
    if not 0 <= s <= params.horizon:
        raise ValueError(f"delay {s} outside [0, {params.horizon}]")
    distort = {SUPPRESS_ARROWS: dict(no_arrows_until=s),
               SUPPRESS_RECOVERIES_AND_BACKGROUND: dict(no_recoveries_until=s,
                                                        free_infection_until=s)}.get(mode)
    if distort is None:
        raise ValueError(f"unknown delayed mode {mode!r}")
    return _evolve(params, c0, b0, tl, shared_bg, eman_limit=params.graph.half_width,
                   stop_on_extinct=stop_on_extinct, want_deltas=want_deltas, **distort)


def coupled_bounds_cpdp(params: RunParams, c0, b0, tl):
    """Three runs on shared randomness: the given spec in the middle, and two
    independent-edge environments built from its extreme rates below and
    above.  Site and edge sets are nested pathwise.  Each run reads the path
    stored for its spec and b0, and _bg_tables checks the timeline for each."""
    spec = params.spec
    if spec is None:
        raise ValueError("coupled bounds need a background spec")
    rb = min_max_rates(spec)
    under_spec = make_spec("dynamical-percolation", alpha=rb.alpha_min, beta=rb.beta_max,
                           d=spec.dimension)
    over_spec = make_spec("dynamical-percolation", alpha=rb.alpha_max, beta=rb.beta_min,
                          d=spec.dimension)
    mid = evolve(params, c0, b0, tl)
    under = evolve(replace(params, spec=under_spec), c0, b0, tl)
    over = evolve(replace(params, spec=over_spec), c0, b0, tl)
    return under, mid, over


def dual_evolve(a_sites, params: RunParams, b0, tl, t_star: float,
                *, want_deltas=True) -> Trajectory:
    """Time-reversed infection run against the frozen forward environment.

    The dual starts from A at reversed time 0 (= forward time t*) and is the
    run of _run on reverse_view(tl, t*): it crosses each arrow in the
    opposite direction at the reversed timestamp, and reads the arrow
    against the forward environment's state just before the arrow's
    original time, the flags of the path of (params.spec, b0) stored on the
    base timeline, which this run extends through t* if no run has yet; in a
    frozen environment (spec None) it reads b0 throughout and stores no
    path.  It may not enter a site that the forward arrow could not have
    left.
    On every realization the indicator identity

        1{forward sites at t* meet A}  ==  1{dual sites at t* meet C0}

    holds exactly; see duality_indicators.
    """
    g = params.graph
    if _unpack(tl)[4]:
        raise ValueError("pass the forward timeline; dual_evolve reverses internally")
    rv = reverse_view(_at_rates(params, tl), t_star)
    base = rv.base
    b0 = frozenset(map(int, b0))
    if params.spec is None:
        # b0 throughout; _bg_tables rejects a table with flips
        env = _bg_tables(None, base)
    else:
        path = _path(params.spec, b0, base)
        hi = base.count_through(rv.anchor)
        path._grow(hi)
        env = path._open
    out = _run(g, rv, a_sites, b0, t_end=rv.anchor, entry_limit=g.half_width,
               env=env, want_deltas=want_deltas)
    traj = _traj(g, rv.anchor, a_sites, b0, out, want_deltas)
    traj.b_final = frozenset()      # the dual records no environment of its own
    return traj


def duality_indicators(params: RunParams, c0, b0, a_sites, tl, t_star: float):
    """Both sides of the pathwise duality identity on one realization.  Both
    runs read the path stored for (params.spec, b0)."""
    fwd = evolve(replace(params, horizon=t_star), c0, b0, tl, want_deltas=False)
    left = bool(fwd.c_final & frozenset(int(s) for s in a_sites))
    dual = dual_evolve(a_sites, params, b0, tl, t_star, want_deltas=False)
    right = bool(dual.c_final & frozenset(int(s) for s in c0))
    return left, right


def phi_set(spec: BackgroundSpec, tl, t: float) -> np.ndarray:
    """Interior sites all of whose incident edges are permanently decided at t."""
    g = tl.graph
    region = coupled_region(spec, tl, t)
    in_region = bytearray(g.n_edges)
    for e in region.edges:
        in_region[int(e)] = 1
    out = []
    L = g.half_width
    for s in range(g.n_sites):
        if g.norm_inf[s] >= L:
            continue
        if all(in_region[e] for e in g.site_edges[s]):
            out.append(s)
    return np.array(out, dtype=np.int32)


def trajectory_to_ndjson(traj: Trajectory) -> str:
    """Debug dump: one snapshot per line at every state-changing event."""
    import json
    out = []
    for t, c, b in traj.snapshots():
        out.append(json.dumps({"t": t, "sites": sorted(c), "edges": sorted(b)},
                              sort_keys=True, separators=(",", ":")))
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# pathwise comparison helpers (used by the test suites)
#
# They read the runs' Deltas arrays only.  Timestamps originating from one
# timeline are bit-identical floats, so grouping by equality is exact.  The
# merged deltas of the runs compared are grouped by index with a stable sort,
# after a stable merge by time, so each index's rows are in time order and
# each run's rows keep their order.  A run's membership of an index after a
# row is its last sign so far in the index's group, or its initial membership
# before its first, which one forward maximum finds: the run's row i is coded
# 4i + 2 + (sign > 0), its initial membership m of the index 4i + m at the
# group's first row i, other rows -1, and the code's low bit is the
# membership.  A relation that breaks breaks at the last row of some (index,
# time) group, so the earliest such row at which it fails gives the earliest
# time at which it fails.

def _first_failure(runs, fails):
    """Earliest delta time after which fails(states) holds for some index,
    or None.  runs is a list of (initial set, Deltas); states is a list of
    boolean arrays, one per run, of the memberships after each (index,
    time) group.  The initial sets are assumed to satisfy the relation."""
    ts = np.concatenate([d.t for _, d in runs])
    n = len(ts)
    if not n:
        return None
    order = np.argsort(ts, kind="stable")
    x = np.concatenate([d.x for _, d in runs])[order]
    # a stable sort of 16-bit keys is a radix sort, of wider ones a merge sort
    by_x = np.argsort(x.astype(np.uint16) if x.max() < 1 << 16 else x, kind="stable")
    order, x = order[by_x], x[by_x]
    t = ts[order]
    run = np.repeat(np.arange(len(runs), dtype=np.int8), [len(d.t) for _, d in runs])[order]
    code = np.arange(2, 4 * n, 4, dtype=np.int64)
    code += np.concatenate([d.s for _, d in runs])[order] > 0
    new_x = np.empty(n, bool)
    new_x[0] = True
    np.not_equal(x[1:], x[:-1], out=new_x[1:])
    starts = np.flatnonzero(new_x)
    last = np.empty(n, bool)      # the last row of its (index, time) group
    last[-1] = True
    np.logical_or(new_x[1:], t[1:] != t[:-1], out=last[:-1])
    top = int(x[-1])
    states = []
    for k, (init, _) in enumerate(runs):
        ids = np.fromiter(init, np.int64, len(init))
        known = np.zeros(top + 1, np.int64)
        known[ids[ids <= top]] = 1
        coded = np.where(run == k, code, -1)
        coded[starts] = np.maximum(coded[starts], 4 * starts + known[x[starts]])
        states.append((np.maximum.accumulate(coded)[last] & 1).astype(bool))
    bad = fails(states)
    return float(t[last][bad].min()) if bad.any() else None


def _subset_violation(c0_small, small: Deltas, c0_big, big: Deltas):
    """Earliest delta time at which small stops being a subset of big, 0.0
    if the initial sets are not nested, else None."""
    if not frozenset(c0_small) <= frozenset(c0_big):
        return 0.0
    return _first_failure([(c0_small, small), (c0_big, big)],
                          lambda st: st[0] & ~st[1])


def first_containment_violation(small: Trajectory, big: Trajectory, *,
                                sites=True, edges=False):
    """Earliest event time at which small is not a subset of big, else None.

    Site and edge states change on disjoint delta streams, so the two
    families are checked independently.
    """
    worst = None
    if sites:
        worst = _subset_violation(small.c0, small.site_arrays, big.c0, big.site_arrays)
    if edges:
        v = _subset_violation(small.b0, small.edge_arrays, big.b0, big.edge_arrays)
        if v is not None and (worst is None or v < worst):
            worst = v
    return worst


def is_contained_pathwise(small: Trajectory, big: Trajectory, *,
                          sites=True, edges=False) -> bool:
    return first_containment_violation(small, big, sites=sites, edges=edges) is None


def _union_violation(a: Trajectory, b: Trajectory, u: Trajectory):
    """Earliest event time at which the site sets of a and b do not unite
    to u's, 0.0 if the initial sets do not, else None."""
    if a.c0 | b.c0 != u.c0:
        return 0.0
    return _first_failure([(a.c0, a.site_arrays), (b.c0, b.site_arrays),
                           (u.c0, u.site_arrays)],
                          lambda st: (st[0] | st[1]) != st[2])


def union_matches_pathwise(a: Trajectory, b: Trajectory, u: Trajectory) -> bool:
    """Exact site-set identity union(a, b) == u at every event time."""
    return _union_violation(a, b, u) is None
