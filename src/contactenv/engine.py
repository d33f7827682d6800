"""Event-driven evolution of the infection/environment pair and its coupled variants.

Everything here is a pure function of (initial sets, timeline): the plain
run, the recovery-free upper bound, truncated runs, the delayed lower/upper
bounds, the two bounding runs with independent edge dynamics, and the
time-reversed run.  Because coupled variants consume the same event table,
their containment relations hold pathwise, event by event, and the
comparison helpers at the bottom of this module check exactly that.

The environment is autonomous, so its path depends only on (timeline, spec,
initial edges).  background_path sweeps it once and stores it on the base
Timeline.  Every later run here with that spec and those initial edges on a
forward, un-anchored feed of the timeline (thinned or not), and dual_evolve,
reads the stored path and visits only arrows and recoveries; a run without
one applies the flip rule inline and stops at extinction.  The Trajectory
is the same either way.  The inner loop is flat: plain lists, bytearray
state, no attribute lookups.

A run reads its feed through the base Timeline's list views, which are
converted on demand from a table that is itself drawn and sorted on demand,
slab by slab.  A run that stops at extinction reads fixed-size chunks
(Timeline.chunk) and never asks for the table's length: it draws slabs as
far as its chunks reach and none past the one that holds its horizon,
finds the horizon in the chunk that holds it and stops when the infection
dies.  So an early death draws, sorts and converts a small prefix of the
table, which later runs share, and the lists a long run adds past
Timeline.chunk's kept prefix are dropped chunk by chunk, so its memory
does not grow with its length.  Every other run draws and converts
through its horizon (Timeline.count_through) in one chunk and keeps it in
the cached prefix (Timeline.lists); stored paths and dual_evolve read the
whole table, and reversed views the slabs through their anchor.

Every entry point that takes RunParams runs at (params.lam, params.r): a
Timeline is thinned to them here, and a view must already be at them.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .background import BackgroundSpec, coupled_region, make_spec, min_max_rates
from .graphical import Timeline, TimelineView, event_feed, feed_size, thin_view
from .lattice import GraphView

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


@dataclass(eq=False)
class Trajectory:
    """Piecewise-constant path recorded as per-family state deltas.

    site_deltas and edge_deltas are ordered lists of (time, index, +1|-1) at
    state-changing events; queries at arbitrary t replay deltas up to and
    including t.  The empty infection set is absorbing, so tau_ex is the
    first time the site set emptied (inf if it never did).
    """

    graph: GraphView
    t_end: float
    c0: frozenset
    b0: frozenset
    site_deltas: list
    edge_deltas: list
    c_final: frozenset
    b_final: frozenset
    tau_ex: float
    boundary_touched: bool

    @staticmethod
    def _apply(state, deltas, t):
        for tt, j, sign in deltas:
            if tt > t:
                break
            if sign > 0:
                state.add(j)
            else:
                state.discard(j)
        return state

    def sites_at(self, t: float) -> frozenset:
        self._check(t)
        return frozenset(self._apply(set(self.c0), self.site_deltas, t))

    def edges_at(self, t: float) -> frozenset:
        self._check(t)
        return frozenset(self._apply(set(self.b0), self.edge_deltas, t))

    def _check(self, t):
        if t < 0 or t > self.t_end + 1e-9:
            raise ValueError(f"query time {t} outside [0, {self.t_end}]")

    def alive_at(self, t: float) -> bool:
        return self.tau_ex > t

    @property
    def deltas(self):
        """Merged (time, family, index, sign) stream; family 0 sites, 1 edges."""
        out = [(t, 0, j, s) for t, j, s in self.site_deltas]
        out += [(t, 1, j, s) for t, j, s in self.edge_deltas]
        out.sort(key=lambda d: d[0])
        return out

    def snapshots(self):
        """Yield (time, site set, edge set) after every state-changing event."""
        c = set(self.c0)
        b = set(self.b0)
        yield 0.0, frozenset(c), frozenset(b)
        merged = self.deltas
        i = 0
        n = len(merged)
        while i < n:
            t = merged[i][0]
            while i < n and merged[i][0] == t:
                _, fam, j, sign = merged[i]
                tgt = c if fam == 0 else b
                if sign > 0:
                    tgt.add(j)
                else:
                    tgt.discard(j)
                i += 1
            yield t, frozenset(c), frozenset(b)


@dataclass(eq=False, repr=False, slots=True)
class BackgroundPath:
    """Realized environment on one timeline from one starting edge set.

    Carries the per-arrow-event edge-state flags the infection loop consults,
    the edge delta stream, and the final edge set; every coupled run that
    shares (timeline, spec, b0) can reuse one instance.  feed records the
    event order the flags are indexed by: (weak reference to the base
    Timeline, reversal anchor, reversed); a run on another feed is rejected.
    """

    arrow_open: list
    edge_deltas: list
    b_final: frozenset
    b0: frozenset
    n_events: int
    feed: tuple

    def until(self, t, want_deltas=True):
        """(edge deltas, edge set) of the path through time t."""
        deltas = self.edge_deltas
        if not deltas or deltas[-1][0] <= t:
            return (deltas if want_deltas else []), self.b_final
        k = bisect_right(deltas, t, key=lambda d: d[0])
        return (deltas[:k] if want_deltas else []), frozenset(
            Trajectory._apply(set(self.b0), deltas, t))


def _bg_tables(spec, tl):
    base = tl.base if isinstance(tl, TimelineView) else tl
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


def _feed_of(tl):
    """(base Timeline, reversal anchor or None, reversed): what the order of
    tl's feed depends on.  Thinning changes no event's position."""
    if isinstance(tl, TimelineView):
        return tl.base, tl.anchor, tl.is_reversed
    return tl, None, False


def _path_store(tl):
    """The base Timeline's stored paths if tl's feed is its forward,
    un-anchored event order, else None."""
    if isinstance(tl, TimelineView):
        return tl.base.bg_paths if tl.anchor is None else None
    return tl.bg_paths


def background_path(spec, b0, tl) -> BackgroundPath:
    """One forward sweep of the environment alone.

    Returns per-event open flags for every arrow (the state of the arrow's
    edge just before the arrow fires), the edge delta stream, and the final
    edge set.  The environment never reads the infection state, so the
    result is exact for any infection run on the same timeline.

    On a Timeline, or a view of one without a reversal anchor, the path is
    stored on the base Timeline under (spec, frozenset(b0)): a repeat call
    returns the stored object, and every run of this module on that timeline
    with the same spec and initial edges reads it instead of sweeping the
    environment again.  Reversed and anchored views are swept on every call.
    """
    store = _path_store(tl)
    key = (spec, frozenset(int(e) for e in b0))
    if store is not None and key in store:
        return store[key]
    base, anchor, rev = _feed_of(tl)
    n = feed_size(tl)
    times, kinds, idx, marks = event_feed(tl)[:4] if rev else base.lists(n)
    g = tl.graph
    tables = _bg_tables(spec, tl)
    B = bytearray(g.n_edges)
    for e in key[1]:
        B[e] = 1
    arrow_open = [False] * n
    edge_deltas = []
    app = edge_deltas.append
    dedge = g.dir_edge
    lnbrs = g.line_nbrs
    up_tab, down_tab, q_rate = tables or (None, None, 0.0)   # no tables: no flips
    for i in range(n):
        k = kinds[i]
        if k == 0:
            arrow_open[i] = B[dedge[idx[i]]] == 1
        elif k == 2:
            e = idx[i]
            u = marks[i]
            if B[e]:
                cnt = 0
                for a in lnbrs[e]:
                    cnt += B[a]
                if (1.0 - u) * q_rate <= down_tab[cnt]:
                    B[e] = 0
                    app((times[i], e, -1))
            else:
                cnt = 0
                for a in lnbrs[e]:
                    cnt += B[a]
                if u * q_rate < up_tab[cnt]:
                    B[e] = 1
                    app((times[i], e, 1))
    b_final = frozenset(np.flatnonzero(np.frombuffer(bytes(B), dtype=np.uint8)).tolist())
    # a weak reference: the path is stored on the Timeline it refers to
    path = BackgroundPath(arrow_open, edge_deltas, b_final, key[1], n,
                          (weakref.ref(base), anchor, rev))
    if store is not None:
        store[key] = path
    return path


def _arrows_and_recoveries(tl, start, stop):
    """Offsets from start of the events start..stop-1 of tl's feed, less the
    flip candidates when the feed runs in the base table's order and the
    table has any."""
    base = tl.base if isinstance(tl, TimelineView) else tl
    if base.flip_rate == 0 or getattr(tl, "is_reversed", False):
        return range(stop - start)
    order = base.non_flip
    if start == 0 and stop == base.n_generated:
        return order
    sel = order[bisect_left(order, start):bisect_left(order, stop)]
    return [i - start for i in sel] if start else sel


_CHUNK = 4096     # events a run that stops at extinction reads at a time


def _initial_sites(g, sites):
    """Site states, infected count and boundary flag of an initial site set."""
    C = bytearray(g.n_sites)
    for s in sites:
        C[int(s)] = 1
    return C, C.count(1), any(g.norm_inf[int(s)] >= g.half_width for s in sites)


def _run(g: GraphView, tl, c0, b0, *, t_end, eman_limit, bg_tables=None,
         bg_path: BackgroundPath | None = None,
         ignore_background=False, ignore_recoveries=False,
         no_arrows_until=-1.0, free_infection_until=-1.0, no_recoveries_until=-1.0,
         mask=None, stop_on_extinct=False, want_deltas=True):
    base, anchor, rev = _feed_of(tl)
    _, lam_frac, r_frac = _frac_of(tl)
    horizon = tl.t_max
    if t_end > horizon + 1e-9:
        raise ValueError(f"t_end={t_end} beyond the feed horizon {horizon}")
    chunked = stop_on_extinct and not rev
    # a forward feed ends at its anchor; a chunked run finds the end in the chunk holding it
    t_last = t_end if anchor is None else min(t_end, anchor)
    if rev:     # materialized whole: a reversal is built from its end
        feed = event_feed(tl)[:4]
        hi = bisect_right(feed[0], t_end)
    elif not chunked:   # pulled from the base table's list views in one chunk
        hi = base.count_through(t_last)

    dsrc = g.dir_src
    ddst = g.dir_dst
    dedge = g.dir_edge
    ninf = g.norm_inf
    lnbrs = g.line_nbrs
    bdry = g.half_width

    C, n_inf, btouch = _initial_sites(g, c0)

    use_path = bg_path is not None
    # weak references compare by their referents, so this matches the base by identity
    if use_path and bg_path.feed != (weakref.ref(base), anchor, rev):
        raise ValueError("background path was computed for a different feed")
    arrow_open = None
    B = bytearray(g.n_edges)
    for e in b0:
        B[int(e)] = 1
    up_tab, down_tab, q_rate = bg_tables or (None, None, 0.0)

    thin_arrows = lam_frac < 1.0
    thin_recs = r_frac < 1.0
    suppress_arrows = no_arrows_until > 0.0
    suppress_recs = no_recoveries_until > 0.0
    free_phase = free_infection_until > 0.0
    check_bg = not ignore_background

    site_deltas = []
    edge_deltas = []
    sapp = site_deltas.append
    eapp = edge_deltas.append
    tau = 0.0 if n_inf == 0 else math.inf
    t_stop = t_end

    # i below is an event's offset from the chunk's start
    start = 0
    while True:
        if rev:
            times, kinds, idx, marks = feed
            stop = hi
        elif chunked:
            # slabs are drawn as far as this chunk reaches, and none past t_last's;
            # the last chunk's lists go first, as they would add to the peak memory
            times = kinds = idx = marks = None
            times, kinds, idx, marks = base.chunk(start, start + _CHUNK, t_last)
            stop = min(start + _CHUNK, base.n_generated)
            hi = stop if stop < start + _CHUNK else math.inf
            if stop > start and times[stop - start - 1] > t_last:
                stop = hi = start + bisect_right(times, t_last, 0, stop - start)
        else:
            times, kinds, idx, marks = base.lists(hi)
            stop = hi
        if use_path:
            arrow_open = bg_path.arrow_open[start:stop] if start else bg_path.arrow_open
        # a loop that applies no flip rule visits only arrows and recoveries
        for i in (range(stop - start) if up_tab is not None
                  else _arrows_and_recoveries(tl, start, stop)):
            k = kinds[i]
            if k == 0:  # arrow
                j = idx[i]
                s = dsrc[j]
                if not C[s]:
                    continue
                if thin_arrows and marks[i] >= lam_frac:
                    continue
                if ninf[s] >= eman_limit:
                    continue
                d2 = ddst[j]
                if C[d2]:
                    continue
                t = times[i]
                if suppress_arrows and t <= no_arrows_until:
                    continue
                if check_bg:
                    if not (arrow_open[i] if use_path else B[dedge[j]]):
                        if not (free_phase and t <= free_infection_until):
                            continue
                if mask is not None and not (mask(s, t) and mask(d2, t)):
                    continue
                C[d2] = 1
                n_inf += 1
                if ninf[d2] >= bdry:
                    btouch = True
                if want_deltas:
                    sapp((t, d2, 1))
            elif k == 1:  # recovery
                if ignore_recoveries:
                    continue
                if thin_recs and marks[i] >= r_frac:
                    continue
                s = idx[i]
                if not C[s]:
                    continue
                t = times[i]
                if suppress_recs and t <= no_recoveries_until:
                    continue
                C[s] = 0
                n_inf -= 1
                if want_deltas:
                    sapp((t, s, -1))
                if not n_inf:
                    tau = t
                    if stop_on_extinct:
                        t_stop = t
                        break
            else:  # flip candidate
                if up_tab is None:
                    continue
                e = idx[i]
                u = marks[i]
                if B[e]:
                    cnt = 0
                    for a in lnbrs[e]:
                        cnt += B[a]
                    if (1.0 - u) * q_rate <= down_tab[cnt]:
                        B[e] = 0
                        if want_deltas:
                            eapp((times[i], e, -1))
                else:
                    cnt = 0
                    for a in lnbrs[e]:
                        cnt += B[a]
                    if u * q_rate < up_tab[cnt]:
                        B[e] = 1
                        if want_deltas:
                            eapp((times[i], e, 1))
        else:
            start = stop        # chunk read through: read the next one
            if stop < hi:
                continue
        break                   # stopped at extinction or the horizon: read no further

    c_final = frozenset(np.flatnonzero(np.frombuffer(bytes(C), dtype=np.uint8)).tolist())
    if use_path:
        edge_deltas, b_final = bg_path.until(t_stop, want_deltas)
    else:
        b_final = frozenset(np.flatnonzero(np.frombuffer(bytes(B), dtype=np.uint8)).tolist())
    return site_deltas, edge_deltas, c_final, b_final, tau, btouch


def _traj(g, t_end, c0, b0, out) -> Trajectory:
    site_deltas, edge_deltas, c_final, b_final, tau, btouch = out
    return Trajectory(graph=g, t_end=float(t_end), c0=frozenset(int(s) for s in c0),
                      b0=frozenset(int(e) for e in b0),
                      site_deltas=site_deltas, edge_deltas=edge_deltas,
                      c_final=c_final, b_final=b_final, tau_ex=tau,
                      boundary_touched=btouch)


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


def _evolve(params, c0, b0, tl, shared_bg, **kw) -> Trajectory:
    """A forward run of params on tl, at params' rates.  Its environment is
    shared_bg if given, else the path stored on tl for (params.spec, b0),
    else the inline flip rule; the three give the same Trajectory."""
    tl = _at_rates(params, tl)
    path, store = shared_bg, _path_store(tl)
    if path is None and store:
        path = store.get((params.spec, frozenset(int(e) for e in b0)))
    if path is not None:
        b0 = path.b0
    out = _run(params.graph, tl, c0, b0, t_end=params.horizon, bg_path=path,
               bg_tables=None if path is not None else _bg_tables(params.spec, tl), **kw)
    return _traj(params.graph, params.horizon, c0, b0, out)


def evolve(params: RunParams, c0, b0, tl, *, stop_on_extinct=False,
           want_deltas=True, mask=None, shared_bg: BackgroundPath | None = None) -> Trajectory:
    """Run the pair process: arrows infect across open edges, recoveries heal,
    flip candidates drive the environment.  Arrows emanate from the open
    interior of the box only.  Pass shared_bg (from background_path) to reuse
    an already-computed environment for the same (timeline, spec, b0); a path
    stored on the timeline for them is reused without it.

    With stop_on_extinct the recording stops when the site set empties (the
    empty set is absorbing, so nothing about survival is lost); edge queries
    past that moment return the environment as of the stop."""
    return _evolve(params, c0, b0, tl, shared_bg, eman_limit=params.graph.half_width,
                   stop_on_extinct=stop_on_extinct, want_deltas=want_deltas, mask=mask)


def evolve_truncated(l_inner: int, params: RunParams, c0, b0, tl, *,
                     stop_on_extinct=False, want_deltas=True, mask=None,
                     shared_bg: BackgroundPath | None = None) -> Trajectory:
    """Like evolve, but arrows emanate only from the open inner box
    (-l_inner, l_inner)^d.  Pathwise contained in the untruncated run."""
    if l_inner > params.graph.half_width:
        raise ValueError(f"inner scale {l_inner} exceeds the box half-width "
                         f"{params.graph.half_width}")
    return _evolve(params, c0, b0, tl, shared_bg, eman_limit=l_inner,
                   stop_on_extinct=stop_on_extinct, want_deltas=want_deltas, mask=mask)


def richardson(c0, tl, t_end: float, *, want_deltas=True) -> Trajectory:
    """Growth-only upper bound: recoveries and the environment are ignored, so
    the site set is nondecreasing and dominates every run on the same timeline."""
    g = tl.graph
    out = _run(g, tl, c0, (), t_end=t_end, eman_limit=g.half_width,
               ignore_background=True, ignore_recoveries=True,
               want_deltas=want_deltas)
    return _traj(g, t_end, c0, (), out)


def evolve_released(params: RunParams, c0, b0, tl, release: float, *,
                    stop_on_extinct=False, want_deltas=True) -> Trajectory:
    """Evolve with the infection frozen (no arrows, no recoveries) on
    [0, release] while the environment runs; full dynamics afterwards.
    This is the burn-in mechanism the estimators use for near-stationary
    starts of environments without a closed-form invariant law."""
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
    if s < 0 or s > params.horizon:
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
    above.  Site and edge sets are nested pathwise.  The middle run reads the
    path stored for (params.spec, b0) if background_path has built one."""
    spec = params.spec
    if spec is None:
        raise ValueError("coupled bounds need a background spec")
    rb = min_max_rates(spec)
    under_spec = make_spec("dynamical-percolation", alpha=rb.alpha_min, beta=rb.beta_max,
                           d=spec.dimension)
    over_spec = make_spec("dynamical-percolation", alpha=rb.alpha_max, beta=rb.beta_min,
                          d=spec.dimension)
    base = tl.base if isinstance(tl, TimelineView) else tl
    for s in (under_spec, spec, over_spec):
        if base.flip_rate + 1e-9 < s.flip_rate:
            raise ValueError("timeline flip rate too small for the bounding environments; "
                             "build it at the middle spec's uniformization rate or higher")
    mid = evolve(params, c0, b0, tl)
    under = evolve(replace(params, spec=under_spec), c0, b0, tl)
    over = evolve(replace(params, spec=over_spec), c0, b0, tl)
    return under, mid, over


def dual_evolve(a_sites, params: RunParams, b0, tl, t_star: float,
                *, want_deltas=True) -> Trajectory:
    """Time-reversed infection run against the frozen forward environment.

    The dual starts from A at reversed time 0 (= forward time t*), crosses
    each arrow in the opposite direction at the reversed timestamp, and uses
    the forward environment's state just before the arrow's original time,
    read from background_path(params.spec, b0) on the base timeline.
    On every realization the indicator identity

        1{forward sites at t* meet A}  ==  1{dual sites at t* meet C0}

    holds exactly; see duality_indicators.
    """
    g = params.graph
    if isinstance(tl, TimelineView) and tl.is_reversed:
        raise ValueError("pass the forward timeline; dual_evolve reverses internally")
    base, lam_frac, r_frac = _frac_of(_at_rates(params, tl))
    if t_star <= 0 or t_star > base.t_max + 1e-9:
        raise ValueError(f"t_star={t_star} outside (0, {base.t_max}]")

    arrow_open = background_path(params.spec, b0, base).arrow_open
    hi = base.count_through(t_star)
    times, kinds, idx, marks = base.lists(hi)

    dsrc = g.dir_src
    ddst = g.dir_dst
    ninf = g.norm_inf
    eman = g.half_width
    thin_arrows = lam_frac < 1.0
    thin_recs = r_frac < 1.0

    C, n_inf, btouch = _initial_sites(g, a_sites)
    site_deltas = []
    app = site_deltas.append
    tau = 0.0 if n_inf == 0 else math.inf

    for i in reversed(_arrows_and_recoveries(base, 0, hi)):
        k = kinds[i]
        if k == 0:
            j = idx[i]
            src = ddst[j]           # the dual crosses the arrow backwards
            if not C[src]:
                continue
            if thin_arrows and marks[i] >= lam_frac:
                continue
            orig_src = dsrc[j]
            if ninf[orig_src] >= eman:   # same emanation rule as forward
                continue
            if C[orig_src]:
                continue
            if not arrow_open[i]:
                continue
            C[orig_src] = 1
            n_inf += 1
            if ninf[orig_src] >= eman:
                btouch = True
            if want_deltas:
                app((t_star - times[i], orig_src, 1))
        elif k == 1:
            if thin_recs and marks[i] >= r_frac:
                continue
            s = idx[i]
            if C[s]:
                C[s] = 0
                n_inf -= 1
                if want_deltas:
                    app((t_star - times[i], s, -1))
                if not n_inf:
                    tau = t_star - times[i]

    c_final = frozenset(np.flatnonzero(np.frombuffer(bytes(C), dtype=np.uint8)).tolist())
    return Trajectory(graph=g, t_end=float(t_star), c0=frozenset(int(s) for s in a_sites),
                      b0=frozenset(int(e) for e in b0), site_deltas=site_deltas,
                      edge_deltas=[], c_final=c_final, b_final=frozenset(),
                      tau_ex=tau, boundary_touched=btouch)


def _frac_of(tl):
    if isinstance(tl, TimelineView):
        return tl.base, tl.lam_frac, tl.r_frac
    return tl, 1.0, 1.0


def duality_indicators(params: RunParams, c0, b0, a_sites, tl, t_star: float):
    """Both sides of the pathwise duality identity on one realization.  The
    environment path is built first, so both runs read the stored path."""
    background_path(params.spec, b0, _frac_of(tl)[0])
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

def _subset_violation(c0_small, deltas_small, c0_big, deltas_big):
    """Earliest delta time at which small stops being a subset of big.

    Timestamps originating from one timeline are bit-identical floats, so
    grouping by equality is exact.  Returns None if containment never breaks.
    """
    small = set(c0_small)
    big = set(c0_big)
    bad = sum(1 for x in small if x not in big)
    if bad:
        return 0.0
    i = j = 0
    ns = len(deltas_small)
    nb = len(deltas_big)
    while i < ns or j < nb:
        ts = deltas_small[i][0] if i < ns else math.inf
        tb = deltas_big[j][0] if j < nb else math.inf
        t = ts if ts <= tb else tb
        while i < ns and deltas_small[i][0] == t:
            _, x, sign = deltas_small[i]
            i += 1
            if sign > 0:
                if x not in small:
                    small.add(x)
                    if x not in big:
                        bad += 1
            else:
                if x in small:
                    small.discard(x)
                    if x not in big:
                        bad -= 1
        while j < nb and deltas_big[j][0] == t:
            _, x, sign = deltas_big[j]
            j += 1
            if sign > 0:
                if x not in big:
                    big.add(x)
                    if x in small:
                        bad -= 1
            else:
                if x in big:
                    big.discard(x)
                    if x in small:
                        bad += 1
        if bad:
            return t
    return None


def first_containment_violation(small: Trajectory, big: Trajectory, *,
                                sites=True, edges=False):
    """Earliest event time at which small is not a subset of big, else None.

    Site and edge states change on disjoint delta streams, so the two
    families are checked independently.
    """
    worst = None
    if sites:
        worst = _subset_violation(small.c0, small.site_deltas, big.c0, big.site_deltas)
    if edges:
        v = _subset_violation(small.b0, small.edge_deltas, big.b0, big.edge_deltas)
        if v is not None and (worst is None or v < worst):
            worst = v
    return worst


def is_contained_pathwise(small: Trajectory, big: Trajectory, *,
                          sites=True, edges=False) -> bool:
    return first_containment_violation(small, big, sites=sites, edges=edges) is None


def union_matches_pathwise(a: Trajectory, b: Trajectory, u: Trajectory) -> bool:
    """Exact site-set identity union(a, b) == u at every event time."""
    c_a = set(a.c0)
    c_b = set(b.c0)
    c_u = set(u.c0)
    if (c_a | c_b) != c_u:
        return False
    mismatch = 0
    streams = [(a.site_deltas, c_a), (b.site_deltas, c_b), (u.site_deltas, c_u)]
    pos = [0, 0, 0]
    sizes = [len(s[0]) for s in streams]

    def contribution(x):
        return ((x in c_a) or (x in c_b)) != (x in c_u)

    while any(p < n for p, n in zip(pos, sizes)):
        t = math.inf
        for k in range(3):
            if pos[k] < sizes[k]:
                tk = streams[k][0][pos[k]][0]
                if tk < t:
                    t = tk
        touched = set()
        for k in range(3):
            deltas, state = streams[k]
            while pos[k] < sizes[k] and deltas[pos[k]][0] == t:
                _, x, sign = deltas[pos[k]]
                pos[k] += 1
                if sign > 0:
                    state.add(x)
                else:
                    state.discard(x)
                touched.add(x)
        for x in touched:
            if contribution(x):
                return False
    return True
