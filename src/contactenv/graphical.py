"""Shared Poisson randomness for every process the package runs.

A Timeline materializes, for one lattice box and one seed, every elementary
event on a time window: infection arrows per directed neighbour pair,
recovery marks per site, and flip candidates per edge.  All coupled processes
(plain runs, thinned runs, truncated runs, bounding runs, the time-reversed
run) consume the same Timeline, which is what makes their pathwise
comparisons exact rather than distributional.

The draws are eager and deterministic: equal (seed, box, rates, horizon)
reproduce a bit-identical event table.  The time sort is lazy: the table is
sorted in time slabs of doubling size, each on its first read, so a replica
that dies early sorts a prefix of its table; the sorted table is the same
however far and in whatever order it is read.  The plain-list views the
event loops read are converted lazily too: as one cached prefix per table
that grows only as far as a run reads (Timeline.lists), and past the first
KEPT_PREFIX events also as chunks that are converted, read and dropped
(Timeline.chunk), so a replica that dies early converts a fraction of its
table and one that lives long holds a bounded part of it.  Every event
carries an independent uniform mark; marks drive thinning (a view at a
smaller rate keeps an event iff its mark falls below the rate ratio) and
the accept/reject step of the edge-flip dynamics.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import GraphView, SizingError

KIND_ARROW = 0
KIND_RECOVERY = 1
KIND_FLIP = 2

_KIND_NAMES = {KIND_ARROW: "arrow", KIND_RECOVERY: "recovery", KIND_FLIP: "flip"}

DEFAULT_EVENT_BUDGET = 20_000_000

# A timeline's first time slab is sized to hold about this many events;
# see Timeline.
SLAB_EVENTS = 4096

# Timeline.chunk grows the cached prefix through this many events and no
# further: most runs that stop at extinction die inside it, and a long one
# then holds one chunk of lists past it instead of the rest of the table.
KEPT_PREFIX = 8192

_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer; the package-wide integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def derive_seed(root: int, index: int) -> int:
    """Replica seed: root seed XOR replica index, hashed through mix64."""
    return mix64((root ^ index) & _M64)


def uniform_from(seed: int, *keys: int) -> float:
    """Deterministic uniform in [0,1) from a seed and integer keys."""
    x = mix64(seed & _M64)
    for k in keys:
        x = mix64(x ^ mix64(k & _M64))
    return (x >> 11) * (2.0 ** -53)


@dataclass(eq=False)
class Timeline:
    """One realized event table.  Treat the table as immutable after
    construction; bg_paths, non_flip and the list views are caches derived
    from it.

    The draws are kept per kind, unsorted, and sorted in time slabs on first
    read: slab 0 holds the events before t_max / 2^m, and slab k >= 1 those
    in [t_max * 2^(k-1-m), t_max * 2^(k-m)), the last slab running to the
    end, with m chosen so that slab 0 holds about SLAB_EVENTS events.  Every
    later slab spans as much time as all earlier ones together, so a read
    through event hi sorts about 2 hi events at most (and slab 0 at least),
    and scanning the draws for each slab's members costs O(n log n) over a
    whole table.  Equal times fall in one slab, so sorting each slab by time
    (by time, target and kind when it holds a tie) and nudging from the last
    time of the slab before gives the table's global order and nudge.
    Sorted slabs are written in place into the four whole arrays; once the
    last one is, the draws are released.

    times, kinds, idx and marks are those whole arrays, sorted on first
    access.  The plain-list views are converted on demand: lists(hi) extends
    one cached prefix (kept in the instance attribute _lists) through index
    hi and returns it, so indices into the prefix are always indices into
    the table; chunk() reads a slice, which past KEPT_PREFIX events it may
    convert without keeping it.
    """

    graph: GraphView
    t_max: float
    seed: int
    lam_max: float          # generation rate per directed pair
    r_max: float            # generation rate per site
    flip_rate: float        # candidate rate per edge
    # per kind, in kind order: (times, stream ids, marks) as drawn; None once sorted
    draws: list | None = field(repr=False)
    n_events: int = field(init=False)
    # environment paths by (spec, frozenset(b0)); see engine.background_path
    bg_paths: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = self.n_events = sum(len(block[0]) for block in self.draws)
        # float64 times, int8 kinds, int32 targets, float64 marks; written slab by slab
        self._sorted = (np.empty(n), np.empty(n, dtype=np.int8),
                        np.empty(n, dtype=np.int32), np.empty(n))
        self.n_sorted = 0       # events sorted so far
        self._slab = 0          # next slab to sort
        self._last = 0.0        # last sorted time: the next slab's nudge starts from it
        m = max((n // SLAB_EVENTS).bit_length() - 1, 0)
        self._edges = [self.t_max * 2.0 ** (k - m) for k in range(m)]
        if n == 0:
            self.draws = None

    def _sort_slabs(self, last: int):
        """Sort the slabs from the next one through slab last into place, as
        one group: its order and nudge are those of its slabs one by one."""
        first, edges = self._slab, self._edges
        lo = edges[first - 1] if first else None
        hi = edges[last] if last < len(edges) else None
        parts = []
        for kind, (times, ids, marks) in enumerate(self.draws):
            if lo is None:
                sel = slice(None) if hi is None else np.flatnonzero(times < hi)
            elif hi is None:
                sel = np.flatnonzero(times >= lo)
            else:
                sel = np.flatnonzero((times >= lo) & (times < hi))
            t = times[sel]
            parts.append((t, np.full(len(t), kind, dtype=np.int8), ids[sel], marks[sel]))
        times, kinds, ids, marks = (np.concatenate([p[j] for p in parts]) for j in range(4))

        a, b = self.n_sorted, self.n_sorted + len(times)
        out_t, out_k, out_i, out_m = (arr[a:b] for arr in self._sorted)
        order = np.argsort(times)
        np.take(times, order, out=out_t, mode="clip")
        tied = bool(np.any(out_t[1:] == out_t[:-1]))
        if tied:
            order = np.lexsort((kinds, ids, times))
            np.take(times, order, out=out_t, mode="clip")
        np.take(kinds, order, out=out_k, mode="clip")
        np.take(ids, order, out=out_i, mode="clip")
        np.take(marks, order, out=out_m, mode="clip")
        if b > a and (tied or out_t[0] <= self._last):
            prev = self._last
            for i in range(b - a):
                if out_t[i] <= prev:
                    out_t[i] = np.nextafter(prev, np.inf)
                prev = out_t[i]
        if b > a:
            self._last = out_t[-1]
        self.n_sorted, self._slab = b, last + 1
        if b == self.n_events:
            self.draws = self._edges = None

    def _sort_through(self, hi: int):
        """Sort slabs until the first hi events are in place: one at a time,
        or all that are left at once when hi is the end of the table."""
        while self.n_sorted < min(hi, self.n_events):
            self._sort_slabs(self._slab if hi < self.n_events else len(self._edges))
        return self._sorted

    def count_through(self, t: float) -> int:
        """Number of events at or before time t.  Only the slabs that can
        hold such events are sorted: every event of a later slab was drawn
        after t, and a nudge only moves a time up."""
        if self.draws is not None:
            last = bisect_right(self._edges, t)
            if last >= self._slab:
                self._sort_slabs(last)
        return int(np.searchsorted(self._sorted[0][:self.n_sorted], t, side="right"))

    @property
    def times(self) -> np.ndarray:
        """float64, strictly increasing."""
        return self._sort_through(self.n_events)[0]

    @property
    def kinds(self) -> np.ndarray:
        """int8: KIND_ARROW, KIND_RECOVERY or KIND_FLIP."""
        return self._sort_through(self.n_events)[1]

    @property
    def idx(self) -> np.ndarray:
        """int32: directed pair / site / edge."""
        return self._sort_through(self.n_events)[2]

    @property
    def marks(self) -> np.ndarray:
        """float64 in [0,1)."""
        return self._sort_through(self.n_events)[3]

    def lists(self, hi: int | None = None):
        """(times, kinds, idx, marks) as plain lists holding at least the
        events with index < hi (all of them by default).  The lists are the
        cached prefix, which may run past hi; it only ever grows."""
        n = self.n_events if hi is None else hi
        arrays = self._sort_through(n)
        cur = self.__dict__.get("_lists")
        if cur is None:
            cur = self._lists = tuple(a[:n].tolist() for a in arrays)
        elif len(cur[0]) < n:
            done = len(cur[0])
            for lst, a in zip(cur, arrays):
                lst.extend(a[done:n].tolist())
        return cur

    def chunk(self, start: int, stop: int):
        """(times, kinds, idx, marks) of the events start..stop-1 as plain
        lists indexed from start: item i holds event start + i (a list read
        from index 0 may run past stop).  They are read from the cached
        prefix, grown through stop if stop <= KEPT_PREFIX; a chunk past
        both is converted here and not kept."""
        cur = self.__dict__.get("_lists")
        if stop <= KEPT_PREFIX or cur is not None and len(cur[0]) >= stop:
            cur = self.lists(stop)
            return cur if start == 0 else tuple(lst[start:stop] for lst in cur)
        return tuple(a[start:stop].tolist() for a in self._sort_through(stop))

    @cached_property
    def non_flip(self):
        # indices of the arrows and recoveries, for loops that skip flip candidates
        return np.flatnonzero(self.kinds != KIND_FLIP).tolist()


@dataclass(frozen=True)
class TimelineView:
    """Read-only thinned and/or time-reversed view of a Timeline."""

    base: Timeline
    lam: float                  # active arrow rate, <= base.lam_max
    r: float                    # active recovery rate, <= base.r_max
    anchor: float | None = None     # reversal anchor t*, None if never reversed
    is_reversed: bool = False

    @property
    def graph(self) -> GraphView:
        return self.base.graph

    @property
    def t_max(self) -> float:
        if self.anchor is not None:
            return self.anchor
        return self.base.t_max

    @property
    def lam_frac(self) -> float:
        if self.base.lam_max <= 0.0:
            return 1.0
        return self.lam / self.base.lam_max

    @property
    def r_frac(self) -> float:
        if self.base.r_max <= 0.0:
            return 1.0
        return self.r / self.base.r_max


def build_timeline(g: GraphView, lam_max: float, r: float, flip_rate: float,
                   t_max: float, seed: int, *,
                   max_events: int = DEFAULT_EVENT_BUDGET) -> Timeline:
    """Generate the full event table for one window.

    Draw order is fixed (arrows, then recoveries, then flip candidates; for
    each kind: per-stream Poisson counts, then times, then marks), so equal
    inputs give bit-identical tables.  Events are globally sorted by time
    with ties broken by target index and then kind, and any residual ties are
    separated by one float ulp, so downstream code may assume strictly
    increasing timestamps.  Without an exact tie the time order alone is
    that order, so the three-key sort runs only on slabs with a tie.  The
    sort is deferred: the Timeline sorts its draws slab by slab as they are
    read.
    """
    if not all(math.isfinite(v) for v in (lam_max, r, flip_rate, t_max)):
        raise ValueError("rates and t_max must be finite")
    if lam_max < 0 or r < 0 or flip_rate < 0:
        raise ValueError("rates must be nonnegative")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    expected = (lam_max * 2 * g.n_edges + r * g.n_sites + flip_rate * g.n_edges) * t_max
    if expected > max_events:
        raise SizingError(
            f"expected event count (lam_max*2|E| + r*|V| + Q*|E|)*T = {expected:.3g} "
            f"exceeds the event budget {max_events}")

    rng = np.random.default_rng(seed & _M64)
    draws = []
    for n_streams, rate in ((2 * g.n_edges, lam_max), (g.n_sites, r), (g.n_edges, flip_rate)):
        counts = rng.poisson(rate * t_max, n_streams) if rate > 0 else np.zeros(n_streams, dtype=np.int64)
        total = int(counts.sum())
        times = rng.random(total) * t_max
        marks = rng.random(total)
        ids = np.repeat(np.arange(n_streams, dtype=np.int32), counts)
        draws.append((times, ids, marks))

    return Timeline(graph=g, t_max=float(t_max), seed=int(seed),
                    lam_max=float(lam_max), r_max=float(r), flip_rate=float(flip_rate),
                    draws=draws)


def thin_view(tl, lam_prime: float, r_prime: float | None = None) -> TimelineView:
    """View in which an arrow is active iff its mark < lam_prime/lam_max.

    Views at nested rates have nested active sets, which realizes the
    monotone couplings in the infection and recovery rates.  Up-thinning is
    rejected: the view rate may not exceed the generation rate.
    """
    base, lam_cap, r_cap, anchor, rev = _unpack(tl)
    if lam_prime < 0 or lam_prime > lam_cap + 1e-12:
        raise ValueError(f"cannot thin to lam={lam_prime}: generation rate is {lam_cap}")
    if r_prime is None:
        r_prime = r_cap
    if r_prime < 0 or r_prime > r_cap + 1e-12:
        raise ValueError(f"cannot thin to r={r_prime}: generation rate is {r_cap}")
    return TimelineView(base=base, lam=float(min(lam_prime, lam_cap)),
                        r=float(min(r_prime, r_cap)), anchor=anchor, is_reversed=rev)


def reverse_view(tl, t_star: float) -> TimelineView:
    """Time-reversed view at anchor t*: an event at u <= t* appears at t* - u
    with arrow directions flipped.  Reversing twice at the same anchor replays
    the original order on [0, t*]."""
    base, lam, r, anchor, rev = _unpack(tl)
    if t_star <= 0 or t_star > base.t_max + 1e-12:
        raise ValueError(f"reversal anchor {t_star} outside (0, {base.t_max}]")
    if anchor is not None and abs(anchor - t_star) > 1e-12:
        raise ValueError("re-reversal must use the same anchor")
    return TimelineView(base=base, lam=lam, r=r, anchor=float(t_star), is_reversed=not rev)


def _unpack(tl):
    if isinstance(tl, Timeline):
        return tl, tl.lam_max, tl.r_max, None, False
    if isinstance(tl, TimelineView):
        return tl.base, tl.lam, tl.r, tl.anchor, tl.is_reversed
    raise TypeError(f"expected Timeline or TimelineView, got {type(tl).__name__}")


def feed_size(tl) -> int:
    """Number of events in tl's feed: the whole table, or the events at or
    before the reversal anchor of an anchored view."""
    base, _, _, anchor, _ = _unpack(tl)
    if anchor is None:
        return base.n_events
    return base.count_through(anchor)


def event_feed(tl):
    """Normalize a Timeline or view into (times, kinds, idx, marks, lam_frac,
    r_frac, horizon) plain-list form, holding exactly the feed's events.

    Forward lists come from the base table's cached prefix (Timeline.lists),
    which this converts through the end of the feed; an anchored view gets a
    copy cut at its anchor, as the prefix may later grow past it.  For
    reversed views the arrays are materialized with times mapped to t* - u,
    order reversed, and arrow pair ids flipped to the opposite orientation;
    recovery and flip events keep their type and target.
    """
    base, lam, r, anchor, rev = _unpack(tl)
    lam_frac = 1.0 if base.lam_max <= 0 else lam / base.lam_max
    r_frac = 1.0 if base.r_max <= 0 else r / base.r_max
    hi = feed_size(tl)
    times_l, kinds_l, idx_l, marks_l = base.lists(hi)
    if not rev:
        if anchor is not None:
            times_l, kinds_l, idx_l, marks_l = (times_l[:hi], kinds_l[:hi],
                                                idx_l[:hi], marks_l[:hi])
        return times_l, kinds_l, idx_l, marks_l, lam_frac, r_frac, tl.t_max
    t_star = anchor
    rtimes, rkinds, ridx, rmarks = [], [], [], []
    for i in range(hi - 1, -1, -1):
        rtimes.append(t_star - times_l[i])
        k = kinds_l[i]
        rkinds.append(k)
        j = idx_l[i]
        ridx.append(j ^ 1 if k == KIND_ARROW else j)
        rmarks.append(marks_l[i])
    return rtimes, rkinds, ridx, rmarks, lam_frac, r_frac, t_star


def to_ndjson(tl: Timeline) -> str:
    """One event per line; byte-stable across platforms for a given seed."""
    g = tl.graph
    out = []
    for t, k, j, u in zip(tl.times.tolist(), tl.kinds.tolist(),
                          tl.idx.tolist(), tl.marks.tolist()):
        rec = {"t": t, "kind": _KIND_NAMES[k], "mark": u}
        if k == KIND_ARROW:
            rec["src"] = g.dir_src[j]
            rec["dst"] = g.dir_dst[j]
        elif k == KIND_RECOVERY:
            rec["site"] = j
        else:
            rec["edge"] = j
        out.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(out) + ("\n" if out else "")
