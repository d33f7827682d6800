import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from contactenv import SizingError, build_box, build_timeline, reverse_view, thin_view, to_ndjson
from contactenv import graphical
from contactenv.graphical import (KIND_ARROW, KIND_FLIP, KIND_RECOVERY, SLAB_EVENTS,
                                  derive_seed, event_feed)


def test_empty_timeline():
    g = build_box(1, 1)
    tl = build_timeline(g, 0.0, 0.0, 0.0, 5.0, seed=1)
    assert tl.n_events == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["lam_max", "r", "flip_rate", "t_max"])
def test_non_finite_inputs_rejected(field, bad):
    args = dict(lam_max=1.0, r=1.0, flip_rate=1.0, t_max=2.0)
    args[field] = bad
    with pytest.raises(ValueError, match="finite"):
        build_timeline(build_box(1, 3), seed=0, **args)


def test_determinism_bit_identical():
    g = build_box(1, 1)
    a = build_timeline(g, 1.0, 1.0, 2.0, 10.0, seed=99)
    b = build_timeline(g, 1.0, 1.0, 2.0, 10.0, seed=99)
    for arr in ("times", "kinds", "idx", "marks"):
        assert np.array_equal(getattr(a, arr), getattr(b, arr))
    c = build_timeline(g, 1.0, 1.0, 2.0, 10.0, seed=100)
    assert not np.array_equal(a.times, c.times)


def test_times_strictly_increase_and_positive():
    g = build_box(2, 3)
    tl = build_timeline(g, 2.0, 1.0, 1.0, 20.0, seed=5)
    assert tl.times[0] > 0
    assert np.all(np.diff(tl.times) > 0)


def test_event_budget():
    g = build_box(1, 100)
    with pytest.raises(SizingError, match="event budget"):
        build_timeline(g, 10.0, 1.0, 1.0, 1000.0, seed=0, max_events=1000)


def test_recovery_counts_poissonian():
    g = build_box(1, 50)  # 101 sites
    tl = build_timeline(g, 2.0, 1.0, 0.0, 100.0, seed=7)
    rec = tl.idx[tl.kinds == KIND_RECOVERY]
    per_site = np.bincount(rec, minlength=g.n_sites)
    assert abs(per_site.mean() - 100.0) < 3 * math.sqrt(100.0)


def test_interarrival_ks_against_exponential():
    # given its n events on [0, T], a stream's interior spacing g has the law
    # T * Beta(1, n), so 1 - (1 - g / T)^n is uniform: KS on the values pooled
    # over the streams of a kind, >= 1e4 of them.  Each kind's total count is
    # Poisson(streams * rate * T), which checks the rate.
    g = build_box(1, 60)
    T = 120.0
    tl = build_timeline(g, 1.0, 1.5, 2.0, T, seed=2024)
    for kind, n_streams, rate in ((KIND_RECOVERY, g.n_sites, 1.5),
                                  (KIND_FLIP, g.n_edges, 2.0)):
        sel = tl.kinds == kind
        times = tl.times[sel]
        ids = tl.idx[sel]
        u = []
        for s in range(n_streams):
            ts = times[ids == s]
            u.extend((-np.expm1(len(ts) * np.log1p(-np.diff(ts) / T))).tolist())
        assert len(u) >= 10_000
        stat = scipy.stats.kstest(u, "uniform")
        assert stat.pvalue > 0.01, (kind, stat)
        count = scipy.stats.poisson(n_streams * rate * T)
        p = 2 * min(count.cdf(len(times)), count.sf(len(times) - 1))
        assert p > 0.01, (kind, len(times), p)


def test_thinning_all_or_nothing():
    g = build_box(1, 2)
    tl = build_timeline(g, 2.0, 1.0, 0.0, 10.0, seed=3)
    full = thin_view(tl, 2.0)
    none = thin_view(tl, 0.0)
    assert full.lam_frac == 1.0
    assert none.lam_frac == 0.0
    with pytest.raises(ValueError, match="cannot thin"):
        thin_view(tl, 3.0)


def test_thinning_fraction_and_nesting():
    g = build_box(1, 40)
    tl = build_timeline(g, 2.0, 0.0, 0.0, 60.0, seed=11)
    arrows = tl.kinds == KIND_ARROW
    marks = tl.marks[arrows]
    n = len(marks)
    half = np.count_nonzero(marks < 0.5)
    assert abs(half / n - 0.5) < 3 * math.sqrt(0.25 / n)
    lo = set(np.flatnonzero(marks < 0.25).tolist())
    hi = set(np.flatnonzero(marks < 0.75).tolist())
    assert lo <= hi


@given(st.integers(0, 2 ** 32))
@settings(max_examples=20, deadline=None)
def test_thinning_nesting_via_feed(seed):
    g = build_box(1, 3)
    tl = build_timeline(g, 2.0, 1.0, 0.0, 5.0, seed=seed)
    def active(lam):
        t, k, i, m, frac, _, _ = event_feed(thin_view(tl, lam))
        return {j for j in range(len(t)) if k[j] == KIND_ARROW and m[j] < frac}
    assert active(0.5) <= active(1.0) <= active(2.0)


def test_reverse_empty():
    g = build_box(1, 1)
    tl = build_timeline(g, 0.0, 0.0, 0.0, 4.0, seed=1)
    rv = reverse_view(tl, 2.0)
    feed = event_feed(rv)
    assert feed[0] == []


def test_reverse_single_arrow_rule():
    # an arrow x->y at time u appears as y->x at t*-u
    g = build_box(1, 2)
    tl = build_timeline(g, 0.4, 0.0, 0.0, 3.0, seed=14)
    arrows = np.flatnonzero(tl.kinds == KIND_ARROW)
    assert len(arrows) > 0
    i = int(arrows[0])
    t_u, pair = tl.times[i], int(tl.idx[i])
    rv = reverse_view(tl, 3.0)
    times, kinds, idx, marks, _, _, _ = event_feed(rv)
    j = times.index(pytest.approx(3.0 - t_u))
    assert kinds[j] == KIND_ARROW
    assert idx[j] == pair ^ 1
    src, dst = g.dir_src[pair], g.dir_dst[pair]
    assert (g.dir_src[pair ^ 1], g.dir_dst[pair ^ 1]) == (dst, src)


def test_reverse_involution():
    g = build_box(1, 3)
    tl = build_timeline(g, 1.0, 1.0, 1.0, 6.0, seed=77)
    t_star = 5.0
    fwd = event_feed(tl)
    hi = sum(1 for t in fwd[0] if t <= t_star)
    twice = event_feed(reverse_view(reverse_view(tl, t_star), t_star))
    assert twice[0] == fwd[0][:hi]
    assert twice[2] == fwd[2][:hi]
    with pytest.raises(ValueError):
        reverse_view(tl, 7.0)


def test_derive_seed_distinct():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_ndjson_round_trip_stable():
    g = build_box(1, 2)
    tl = build_timeline(g, 1.0, 1.0, 1.0, 3.0, seed=8)
    dump1 = to_ndjson(tl)
    dump2 = to_ndjson(build_timeline(g, 1.0, 1.0, 1.0, 3.0, seed=8))
    assert dump1 == dump2
    lines = dump1.strip().split("\n")
    assert len(lines) == tl.n_events
    rec = json.loads(lines[0])
    assert {"t", "kind", "mark"} <= set(rec)


# ---------------------------------------------------------------------------
# the slabs, their draws and their sort against a three-key lexsort reference

def _slab_edges(g, lam_max, r, flip_rate, t_max):
    """[lo, hi) of each time slab, from the expected event count: slab 0
    holds about SLAB_EVENTS events, and slab k >= 1 spans as much time as
    slabs 0..k-1 together."""
    expected = (lam_max * 2 * g.n_edges + r * g.n_sites + flip_rate * g.n_edges) * t_max
    m = max(int(expected // graphical.SLAB_EVENTS).bit_length() - 1, 0)
    cuts = [0.0] + [t_max * 2.0 ** (k - m) for k in range(m)] + [t_max]
    return list(zip(cuts[:-1], cuts[1:]))


def _lexsort_table(g, lam_max, r, flip_rate, t_max, seed):
    """Reference build: each slab drawn from its own generator (Poisson
    counts per stream at rate * width for each kind, then a uniform time in
    the slab for every event), sorted by (time, index, kind) with np.lexsort,
    then given a mark for every event in that order; the slabs concatenated
    and ties separated by one ulp.  Returns the four arrays and the number
    of exact time ties before the separation."""
    slabs = []
    for k, (lo, hi) in enumerate(_slab_edges(g, lam_max, r, flip_rate, t_max)):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, seed >> 32 & 0xFFFFFFFF, k])
        kinds, ids = [], []
        for kind, n_streams, rate in ((KIND_ARROW, 2 * g.n_edges, lam_max),
                                      (KIND_RECOVERY, g.n_sites, r),
                                      (KIND_FLIP, g.n_edges, flip_rate)):
            if rate > 0:
                counts = rng.poisson(rate * (hi - lo), n_streams)
                kinds += [kind] * int(counts.sum())
                ids += [s for s in range(n_streams) for _ in range(counts[s])]
        times = lo + rng.random(len(ids)) * (hi - lo)
        kinds, ids = np.array(kinds, dtype=np.int8), np.array(ids, dtype=np.int32)
        order = np.lexsort((kinds, ids, times))
        slabs.append((times[order], kinds[order], ids[order], rng.random(len(ids))))
    times, kinds, ids, marks = (np.concatenate([s[i] for s in slabs]) for i in range(4))
    ties = int(np.count_nonzero(np.diff(times) == 0.0))
    prev = 0.0
    for i in range(len(times)):
        if times[i] <= prev:
            times[i] = np.nextafter(prev, np.inf)
        prev = times[i]
    return (times, kinds, ids, marks), ties


_SORT_CASES = [(1, 12, 2.0, 1.0, 0.0, 8.0), (1, 12, 2.0, 1.0, 2.0, 8.0),
               (2, 4, 1.5, 1.0, 0.0, 5.0), (2, 4, 1.5, 1.0, 2.0, 5.0)]


def _arrays(tl):
    return tl.times, tl.kinds, tl.idx, tl.marks


@pytest.mark.parametrize("d,L,lam,r,q,T", _SORT_CASES)
def test_sort_matches_lexsort_reference(d, L, lam, r, q, T):
    g = build_box(d, L)
    for i in range(5):
        seed = derive_seed(31, i)
        tl = build_timeline(g, lam, r, q, T, seed)
        ref, _ = _lexsort_table(g, lam, r, q, T, seed)
        for got, want in zip(_arrays(tl), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class _RoundedRng:
    """A default_rng whose uniforms are rounded to 2 decimals: most event
    times then tie with another."""

    def __init__(self, seed, _make=np.random.default_rng):
        self._rng = _make(seed)

    def poisson(self, lam, size):
        return self._rng.poisson(lam, size)

    def random(self, size):
        return np.round(self._rng.random(size), 2)


@pytest.mark.parametrize("d,L,lam,r,q,T", _SORT_CASES)
def test_tied_times_fall_back_to_the_three_key_order(monkeypatch, d, L, lam, r, q, T):
    monkeypatch.setattr(np.random, "default_rng", _RoundedRng)
    g = build_box(d, L)
    for seed in range(3):
        tl = build_timeline(g, lam, r, q, T, seed)
        ref, ties = _lexsort_table(g, lam, r, q, T, seed)
        assert ties > 0
        for got, want in zip(_arrays(tl), ref):
            assert np.array_equal(got, want)
        assert tl.times[0] > 0 and np.all(np.diff(tl.times) > 0)


def test_anchored_feed_is_exact_and_not_the_cache():
    g = build_box(1, 4)
    tl = build_timeline(g, 1.0, 1.0, 1.0, 6.0, seed=9)
    anchored = reverse_view(reverse_view(tl, 3.0), 3.0)
    hi = int(np.count_nonzero(tl.times <= 3.0))
    feed = event_feed(anchored)
    assert len(feed[0]) == hi
    event_feed(tl)      # reading the whole feed leaves the anchored feed as it was
    assert feed[0] == tl.times[:hi].tolist()
    assert feed[3] == tl.marks[:hi].tolist()


# ---------------------------------------------------------------------------
# the slabs, each drawn and sorted on its first read

def _read(tl, order):
    """The four arrays, after reading tl's events first in the given order."""
    if order == "prefix":           # short reads first, then on through the window
        tl.count_through(0.0)
        tl.count_through(tl.t_max / 5)
        for k in range(1, 9):
            tl.count_through(tl.t_max * k / 8)
    elif order == "late-chunk":     # one read late in the window
        tl.count_through(tl.t_max * 0.99)
    return _arrays(tl)              # "full": the arrays are the first read


@pytest.mark.parametrize("order", ["prefix", "full", "late-chunk"])
@pytest.mark.parametrize("d,L,lam,r,q,T", [(1, 400, 2.0, 1.0, 1.0, 30.0),
                                           (2, 10, 1.5, 1.0, 2.0, 12.0)])
def test_slabs_read_in_any_order_match_the_reference(order, d, L, lam, r, q, T):
    g = build_box(d, L)
    for i in range(3):
        seed = derive_seed(41, i)
        tl = build_timeline(g, lam, r, q, T, seed)
        assert tl.n_generated == 0
        ref, _ = _lexsort_table(g, lam, r, q, T, seed)
        assert len(ref[0]) > 4 * SLAB_EVENTS
        for got, want in zip(_read(tl, order), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class _EdgeTiedRng:
    """A default_rng that moves one uniform in seven to just below 1 and
    one in seven onto 0: with t_max = 1 both sides of a slab edge at 1/2
    then hold long runs of tied times."""

    def __init__(self, seed, _make=np.random.default_rng):
        self._rng = _make(seed)

    def poisson(self, lam, size):
        return self._rng.poisson(lam, size)

    def random(self, size):
        u = self._rng.random(size)
        u[::7] = np.nextafter(1.0, 0.0)
        u[3::7] = 0.0
        return u


def test_the_nudge_carries_across_a_slab_edge(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _EdgeTiedRng)
    g = build_box(1, 200)
    for seed in range(3):
        tl = build_timeline(g, 10.0, 1.0, 0.0, 1.0, seed)
        tl.count_through(0.0)
        first = tl.n_generated
        # 2 to 4 SLAB_EVENTS events: two slabs, split at t_max / 2
        assert 2 * SLAB_EVENTS <= tl.n_events < 4 * SLAB_EVENTS
        assert 0 < first < tl.n_events
        ref, ties = _lexsort_table(g, 10.0, 1.0, 0.0, 1.0, seed)
        assert ties > 0
        for got, want in zip(_arrays(tl), ref):
            assert np.array_equal(got, want)
        # the ties just below 1/2 were nudged onto and past it, so the
        # second slab's ties at 1/2 start above the first slab's last time
        assert tl.times[first - 1] > 0.5
        assert np.count_nonzero(tl.times[first:] <= tl.times[first - 1] + 1e-12) > 100
        assert np.all(np.diff(tl.times) > 0)


def test_whole_reads_draw_every_slab():
    g = build_box(1, 100)
    n = build_timeline(g, 2.0, 1.0, 1.0, 30.0, seed=3).n_events
    reads = {"arrays": lambda tl: tl.times,
             "length": lambda tl: tl.n_events,
             "feed": event_feed,
             "counts": lambda tl: [tl.count_through(tl.t_max * k / 8) for k in range(1, 9)],
             "count": lambda tl: tl.count_through(tl.t_max)}
    for name, read in reads.items():
        tl = build_timeline(g, 2.0, 1.0, 1.0, 30.0, seed=3)
        tl.count_through(0.0)
        assert 0 < tl.n_generated < n, name
        read(tl)
        assert tl.n_generated == n, name
    assert build_timeline(g, 0.0, 0.0, 0.0, 1.0, seed=3).n_events == 0


def test_count_through_sorts_only_the_slabs_it_needs():
    g = build_box(1, 200)
    tl = build_timeline(g, 2.0, 1.0, 0.0, 40.0, seed=5)
    ref = build_timeline(g, 2.0, 1.0, 0.0, 40.0, seed=5).times
    edges = [hi for _, hi in _slab_edges(g, 2.0, 1.0, 0.0, 40.0)]
    for t in (0.5, 3.0, 3.0, 11.0, 40.0):
        assert tl.count_through(t) == int(np.count_nonzero(ref <= t))
        # the slabs through the one that holds t, and no further
        hi = next(e for e in edges if e > t) if t < 40.0 else math.inf
        assert tl.n_generated == int(np.count_nonzero(ref < hi)), t


def test_derive_seed_keeps_nearby_roots_apart():
    # root ^ index alone gave roots 70_001 and 70_002 the same 500 seeds
    a = {derive_seed(70_001, i) for i in range(500)}
    b = {derive_seed(70_002, i) for i in range(500)}
    assert len(a) == len(b) == 500 and not a & b


def test_slab_generators_do_not_alias():
    # default_rng([s, k]) is default_rng(s + (k << 32)) for s < 2^32: slab 1
    # of seed 3 would replay slab 0 of seed 3 + 2^32, marks and all
    g = build_box(1, 10)
    a = build_timeline(g, 2.0, 1.0, 1.0, 400.0, seed=3)
    b = build_timeline(g, 2.0, 1.0, 1.0, 400.0, seed=3 + (1 << 32))
    assert len(np.intersect1d(a.marks, b.marks)) == 0


class _FatRng:
    """A default_rng that draws three times the Poisson counts."""

    def __init__(self, seed, _make=np.random.default_rng):
        self._rng = _make(seed)

    def poisson(self, lam, size):
        return 3 * self._rng.poisson(lam, size)

    def random(self, size):
        return self._rng.random(size)


def test_more_events_than_expected_grow_the_table(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _FatRng)
    g = build_box(1, 30)
    tl = build_timeline(g, 2.0, 1.0, 1.0, 200.0, seed=8)
    ref, _ = _lexsort_table(g, 2.0, 1.0, 1.0, 200.0, 8)
    tl.count_through(0.0)
    for got, want in zip(_arrays(tl), ref):
        assert np.array_equal(got, want)
    assert event_feed(tl)[0] == ref[0].tolist()


def test_slab_edges_keep_the_poisson_law(monkeypatch):
    # many small slabs: per-stream counts in windows straddling each edge
    # are Poisson(rate * width), times are uniform in those windows, counts
    # in adjacent slabs are uncorrelated, and times increase across edges
    monkeypatch.setattr(graphical, "SLAB_EVENTS", 16)
    g = build_box(1, 20)
    rates = {KIND_ARROW: (2 * g.n_edges, 1.0), KIND_RECOVERY: (g.n_sites, 0.5),
             KIND_FLIP: (g.n_edges, 0.7)}
    T, n_tables = 10.0, 300
    slabs = _slab_edges(g, 1.0, 0.5, 0.7, T)
    assert len(slabs) >= 6
    edges = [hi for _, hi in slabs[:-1]]
    # per edge: window [e - e/4, e + e/4), inside both slabs next to the edge
    win_counts = {k: np.zeros((len(edges), n_tables, n)) for k, (n, _) in rates.items()}
    win_pos = [[] for _ in edges]
    slab_counts = {k: np.zeros((len(slabs), n_tables, n)) for k, (n, _) in rates.items()}
    for s in range(n_tables):
        tl = build_timeline(g, 1.0, 0.5, 0.7, T, derive_seed(51, s))
        t, kinds, idx = tl.times, tl.kinds, tl.idx
        assert t[0] > 0 and np.all(np.diff(t) > 0)
        for kind, (n, _) in rates.items():
            sel = kinds == kind
            tk, ik = t[sel], idx[sel]
            for j, e in enumerate(edges):
                inside = (tk >= e - e / 4) & (tk < e + e / 4)
                win_counts[kind][j, s] = np.bincount(ik[inside], minlength=n)
            for j, (lo, hi) in enumerate(slabs):
                inside = (tk >= lo) & (tk < hi)
                slab_counts[kind][j, s] = np.bincount(ik[inside], minlength=n)
        for j, e in enumerate(edges):
            inside = (t >= e - e / 4) & (t < e + e / 4)
            win_pos[j].extend(((t[inside] - (e - e / 4)) / (e / 2)).tolist())
    for kind, (n, rate) in rates.items():
        for j, e in enumerate(edges):
            c = win_counts[kind][j].ravel()
            mu = rate * e / 2
            z_mean = (c.sum() - mu * c.size) / math.sqrt(mu * c.size)
            # Poisson dispersion: sum (c - mu)^2 / mu is about chi^2 on c.size
            z_disp = (((c - mu) ** 2).sum() / mu - c.size) / math.sqrt(2 * c.size * (1 + 1 / (2 * mu)))
            assert abs(z_mean) <= 4 and abs(z_disp) <= 4, (kind, e, z_mean, z_disp)
        for j in range(len(slabs) - 1):
            a, b = slab_counts[kind][j].ravel(), slab_counts[kind][j + 1].ravel()
            r = np.corrcoef(a, b)[0, 1]
            assert abs(r) * math.sqrt(a.size) <= 4, (kind, j, r)
    for j, pos in enumerate(win_pos):
        assert scipy.stats.kstest(pos, "uniform").pvalue > 1e-4, edges[j]
