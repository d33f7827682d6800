"""Shared Poisson randomness for every process the package runs.

A Timeline holds, for one lattice box and one seed, every elementary event
on a time window: infection arrows per directed neighbour pair,
recovery marks per site, and flip candidates per edge.  All coupled processes
(plain runs, thinned runs, truncated runs, bounding runs, the time-reversed
run) consume the same Timeline, which is what makes their pathwise
comparisons exact rather than distributional.

Generation is lazy and deterministic: equal (seed, box, rates, horizon)
give a bit-identical event table, drawn in time slabs of doubling size,
each from its own generator on its first read, and sorted slab by slab, so
a replica that dies early draws and sorts a prefix of its table; the table
is the same however far and in whatever order it is read.  The event
kernel (engine._lib) reads the four buffers in place; event_feed converts
a feed to plain lists for callers that want them.  Every event carries an
independent uniform mark; marks drive thinning (a view at a smaller rate
keeps an event iff its mark falls below the rate ratio) and the
accept/reject step of the edge-flip dynamics.
"""

from __future__ import annotations

import json
import math
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

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer; the package-wide integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def derive_seed(root: int, index: int) -> int:
    """Replica seed: the hashed root seed XOR the replica index, hashed
    again through mix64.  Hashing the root first keeps the seed sets of
    nearby roots apart: root ^ index alone maps (r, i) and (r ^ 1, i ^ 1)
    to one seed."""
    return mix64((mix64(root & _M64) ^ index) & _M64)


def uniform_from(seed: int, *keys: int) -> float:
    """Deterministic uniform in [0,1) from a seed and integer keys."""
    x = mix64(seed & _M64)
    for k in keys:
        x = mix64(x ^ mix64(k & _M64))
    return (x >> 11) * (2.0 ** -53)


@dataclass(eq=False)
class Timeline:
    """One realized event table, generated lazily.  Treat the table as
    immutable; its slabs and bg_paths, the environment paths the engine
    grows as runs read the table, are caches.

    The window [0, t_max] is cut into time slabs before any draw, from the
    expected event count: slab 0 is [0, t_max / 2^m) and slab k >= 1 is
    [t_max * 2^(k-1-m), t_max * 2^(k-m)), the last one closed at t_max, with
    m chosen so that slab 0 holds about SLAB_EVENTS events.  Every later
    slab spans as much time as all earlier ones together, so reading
    through event hi generates about 2 hi events at most (and slab 0 at
    least).  Slab k is drawn on first need from its own generator,
    default_rng([seed mod 2^32, seed div 2^32 mod 2^32, k]): Poisson counts
    per stream at rate * width, for each kind in kind order, then a uniform
    time in the slab for every event.  The slab is sorted on its own by time
    (by time, target and kind when it holds an exact tie), given a mark for
    every event in that order, nudged by one ulp from the last time of the
    slab before, so times strictly increase across slab edges, and appended
    to the generated prefix.  Poisson processes on disjoint windows superpose
    to Poisson processes on the whole window, so the table has the law of
    one drawn at once, and it is the same bit for bit however far and in
    whatever order it is read.

    n_generated counts the events generated so far.  n_events, times,
    kinds, idx and marks are the whole table: reading them generates every
    slab left.  count_through(t) generates only the slabs that can hold
    events at or before t.
    """

    graph: GraphView
    t_max: float
    seed: int
    lam_max: float          # generation rate per directed pair
    r_max: float            # generation rate per site
    flip_rate: float        # candidate rate per edge
    # environment paths by (spec, frozenset(b0)), swept as far as runs have
    # read; see engine.BackgroundPath
    bg_paths: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        g = self.graph
        # (stream count, rate per stream) of each kind, in kind order
        self._streams = ((2 * g.n_edges, self.lam_max), (g.n_sites, self.r_max),
                         (g.n_edges, self.flip_rate))
        expected = self.t_max * sum(n * rate for n, rate in self._streams)
        m = max(int(expected // SLAB_EVENTS).bit_length() - 1, 0)
        self._edges = [self.t_max * 2.0 ** (k - m) for k in range(m)]   # slab k + 1 starts at _edges[k]
        # float64 times, int8 kinds, int32 targets, float64 marks, written slab by
        # slab; np.empty touches only the pages written, and 8 sigma above the
        # expected count is short with probability below 1e-15 (then it grows)
        cap = int(expected + 8 * math.sqrt(expected)) + 16
        self._buf = (np.empty(cap), np.empty(cap, dtype=np.int8),
                     np.empty(cap, dtype=np.int32), np.empty(cap))
        self.n_generated = 0
        self._slab = 0          # next slab to draw
        self._last = 0.0        # last time generated: the next slab's nudge starts from it

    def _draw_slab(self):
        """Draw, sort and nudge the next slab and append it to the buffers."""
        k, edges = self._slab, self._edges
        lo = edges[k - 1] if k else 0.0
        width = (edges[k] if k < len(edges) else self.t_max) - lo
        self._slab = k + 1
        live = [(kind, n, rate) for kind, (n, rate) in enumerate(self._streams) if rate > 0]
        # fixed-width words: default_rng([s, k]) for s < 2^32 would be
        # default_rng(s + (k << 32)), slab 0 of another seed
        rng = np.random.default_rng([self.seed & _M32, self.seed >> 32 & _M32, k])
        counts = [rng.poisson(rate * width, n) for _, n, rate in live]
        totals = [int(c.sum()) for c in counts]
        n = sum(totals)
        times = rng.random(n)
        times *= width
        times += lo
        kinds = np.repeat(np.array([kind for kind, _, _ in live], dtype=np.int8), totals)
        ids = np.concatenate([np.repeat(np.arange(m, dtype=np.int32), c)
                              for (_, m, _), c in zip(live, counts)] or [np.empty(0, np.int32)])

        a = self.n_generated
        b = a + n
        if b > len(self._buf[0]):
            grown = tuple(np.empty(max(b, 2 * len(arr)), arr.dtype) for arr in self._buf)
            for old, arr in zip(self._buf, grown):
                arr[:a] = old[:a]
            self._buf = grown
        out_t, out_k, out_i, out_m = (arr[a:b] for arr in self._buf)
        # np.take with out= and mode="clip" writes in place; the default mode buffers
        order = np.argsort(times)
        np.take(times, order, out=out_t, mode="clip")
        tied = bool(np.any(out_t[1:] == out_t[:-1]))
        if tied:
            order = np.lexsort((kinds, ids, times))
            np.take(times, order, out=out_t, mode="clip")
        np.take(kinds, order, out=out_k, mode="clip")
        np.take(ids, order, out=out_i, mode="clip")
        # the temporaries go before the marks are drawn: they set the peak memory
        del times, kinds, ids, order
        out_m[:] = rng.random(n)        # marks in time order
        if b > a and (tied or out_t[0] <= self._last):
            prev = self._last
            for i in range(b - a):
                if out_t[i] <= prev:
                    out_t[i] = np.nextafter(prev, np.inf)
                prev = out_t[i]
        if b > a:
            self._last = out_t[-1]
        self.n_generated = b

    def _fill(self, hi, t=math.inf):
        """Draw slabs until the first hi events are generated, every slab is,
        or the next slab starts after time t; return the buffers."""
        edges = self._edges
        while self.n_generated < hi and self._slab <= len(edges) and \
                (self._slab == 0 or edges[self._slab - 1] <= t):
            self._draw_slab()
        return self._buf

    @cached_property
    def _whole(self):
        """The whole table's four arrays; draws every slab left."""
        self._fill(math.inf)
        return tuple(arr[:self.n_generated] for arr in self._buf)

    @property
    def n_events(self) -> int:
        """Number of events in the whole table."""
        return len(self._whole[0])

    def count_through(self, t: float) -> int:
        """Number of events at or before time t.  Only the slabs that can
        hold such events are drawn: every event of a later slab lies after
        t, as a nudge only moves a time up."""
        self._fill(math.inf, t)
        return int(np.searchsorted(self._buf[0][:self.n_generated], t, side="right"))

    @property
    def times(self) -> np.ndarray:
        """float64, strictly increasing."""
        return self._whole[0]

    @property
    def kinds(self) -> np.ndarray:
        """int8: KIND_ARROW, KIND_RECOVERY or KIND_FLIP."""
        return self._whole[1]

    @property
    def idx(self) -> np.ndarray:
        """int32: directed pair / site / edge."""
        return self._whole[2]

    @property
    def marks(self) -> np.ndarray:
        """float64 in [0,1)."""
        return self._whole[3]


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
    """The event table for one window, drawn lazily slab by slab.

    The table is a Timeline: nothing is drawn here, and each time slab is
    drawn from its own generator on first read (see Timeline for the slabs
    and their draw order), so equal inputs give bit-identical tables.
    Events are sorted by time, with ties broken by target index and then
    kind, and any residual ties are separated by one float ulp, so
    downstream code may assume strictly increasing timestamps.  Without an
    exact tie the time order alone is that order, so the three-key sort
    runs only on slabs with a tie.
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
    return Timeline(graph=g, t_max=float(t_max), seed=int(seed),
                    lam_max=float(lam_max), r_max=float(r), flip_rate=float(flip_rate))


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
    if not 0 < t_star <= base.t_max + 1e-12:
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
    r_frac, horizon) plain-list form, holding exactly the feed's events,
    converted from the base table's arrays.  For reversed views, times are
    mapped to t* - u, order reversed, and arrow pair ids flipped to the
    opposite orientation; recovery and flip events keep their type and
    target.
    """
    base, lam, r, anchor, rev = _unpack(tl)
    lam_frac = 1.0 if base.lam_max <= 0 else lam / base.lam_max
    r_frac = 1.0 if base.r_max <= 0 else r / base.r_max
    hi = feed_size(tl)
    times, kinds, idx, marks = (a[:hi][::-1] if rev else a[:hi] for a in base._buf)
    if rev:     # newest first, at t* - u, each arrow's pair id flipped to the other orientation
        times, idx = anchor - times, idx ^ (kinds == KIND_ARROW)
    return (times.tolist(), kinds.tolist(), idx.tolist(), marks.tolist(), lam_frac, r_frac,
            tl.t_max)


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
