import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from contactenv import SizingError, build_box, build_timeline, reverse_view, thin_view, to_ndjson
from contactenv.graphical import KIND_ARROW, KIND_FLIP, KIND_RECOVERY, derive_seed, event_feed


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
    # pooled within-stream gaps, >= 1e4 events per stream kind
    g = build_box(1, 60)
    tl = build_timeline(g, 1.0, 1.5, 2.0, 120.0, seed=2024)
    for kind, n_streams, rate in ((KIND_RECOVERY, g.n_sites, 1.5),
                                  (KIND_FLIP, g.n_edges, 2.0)):
        sel = tl.kinds == kind
        times = tl.times[sel]
        ids = tl.idx[sel]
        gaps = []
        for s in range(n_streams):
            ts = times[ids == s]
            gaps.extend(np.diff(ts).tolist())
        assert len(gaps) >= 10_000
        stat = scipy.stats.kstest(gaps, "expon", args=(0, 1.0 / rate))
        assert stat.pvalue > 0.01, (kind, stat)


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
