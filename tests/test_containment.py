"""The pathwise comparison helpers against the merges they replaced.

engine._subset_violation and engine._union_violation read the runs' delta
arrays with two stable sorts and a forward maximum.  The two functions
below are the merges the engine ran before: they walk the (time, index,
sign) lists of the runs one time group at a time, in Python.  They are kept
here as they were, except that the union merge returns the time of its
first mismatch (0.0 for the initial sets, None for none) where it returned
False, so that times, not only verdicts, are compared.

The pairs are those of criterion 1 on small tables (the runs' initial
configurations nested, thinned, swapped, not nested at time 0, recorded
without deltas), duals on reversed feeds, on tables whose times tie when
the draw is rounded, and arbitrary delta streams with many ties.
"""

import math
import random
from contextlib import nullcontext
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import contactenv as ce
from contactenv import engine
from contactenv.engine import Deltas, RunParams, background_path, dual_evolve, evolve
from contactenv.lattice import build_box

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the merges the engine ran before

def reference_subset_violation(c0_small, deltas_small, c0_big, deltas_big):
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


def reference_union_violation(c0_a, deltas_a, c0_b, deltas_b, c0_u, deltas_u):
    """Earliest event time at which union(a, b) != u, else None."""
    c_a = set(c0_a)
    c_b = set(c0_b)
    c_u = set(c0_u)
    if (c_a | c_b) != c_u:
        return 0.0
    streams = [(deltas_a, c_a), (deltas_b, c_b), (deltas_u, c_u)]
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
                return t
    return None


# ---------------------------------------------------------------------------
# agreement

def _same_subset(small, big):
    """Both families of one pair of runs; returns the site verdict."""
    got = engine._subset_violation(small.c0, small.site_arrays, big.c0, big.site_arrays)
    want = reference_subset_violation(small.c0, small.site_deltas, big.c0, big.site_deltas)
    assert got == want
    got_e = engine._subset_violation(small.b0, small.edge_arrays, big.b0, big.edge_arrays)
    assert got_e == reference_subset_violation(small.b0, small.edge_deltas, big.b0,
                                               big.edge_deltas)
    return got


def _same_union(a, b, u):
    got = engine._union_violation(a, b, u)
    assert got == reference_union_violation(a.c0, a.site_deltas, b.c0, b.site_deltas,
                                            u.c0, u.site_deltas)
    assert ce.union_matches_pathwise(a, b, u) == (got is None)
    return got


class _RoundedRng:
    """A default_rng whose uniforms are rounded down to 2 decimals, so that
    most event times tie with another."""

    def __init__(self, seed, _make=np.random.default_rng):
        self._rng = _make(seed)

    def poisson(self, lam, size):
        return self._rng.poisson(lam, size)

    def random(self, size):
        return np.floor(self._rng.random(size) * 100) / 100


@st.composite
def bundles(draw):
    d = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(1, 8 if d == 1 else 3))
    kind = draw(st.sampled_from(["frozen", "dp", "ising"]))
    spec = (None if kind == "frozen" else
            ce.make_spec("dynamical-percolation", alpha=1.0, beta=0.7, d=d) if kind == "dp"
            else ce.make_spec("ising", beta_inv=0.3 if d == 1 else 0.12, d=d))
    lam = draw(st.sampled_from([0.7, 1.6, 3.0]))
    T = draw(st.sampled_from([2.0, 6.0]))
    return (build_box(d, L), spec, lam, T, draw(st.integers(0, 2 ** 40)),
            draw(st.booleans()), random.Random(draw(st.integers(0, 2 ** 40))))


@SETTINGS
@given(bundles())
def test_the_checkers_agree_with_the_merges_on_coupled_runs(bundle):
    g, spec, lam, T, seed, ties, rng = bundle
    with mock.patch.object(np.random, "default_rng", _RoundedRng) if ties else nullcontext():
        tl = ce.build_timeline(g, lam, 1.0, 0.0 if spec is None else spec.flip_rate, T, seed)
        tl.n_events     # the whole table is drawn here, under the patch
    c_all = [s for s in range(g.n_sites) if rng.random() < 0.4] or [g.origin()]
    ca = [s for s in c_all if rng.random() < 0.5]
    cb = [s for s in c_all if s not in set(ca)]
    b_all = [e for e in range(g.n_edges) if rng.random() < 0.5]
    b_sub = [e for e in b_all if rng.random() < 0.7]
    P = RunParams(g, lam, 1.0, spec, T)
    shared = background_path(spec, b_all, tl)
    base = evolve(P, c_all, b_all, tl, shared_bg=shared)
    sub = evolve(P, ca, b_sub, tl)
    lam_v = evolve(RunParams(g, lam / 2, 1.0, spec, T), c_all, b_all,
                   ce.thin_view(tl, lam / 2), shared_bg=shared)
    r_v = evolve(RunParams(g, lam, 0.5, spec, T), c_all, b_all, ce.thin_view(tl, lam, 0.5),
                 shared_bg=shared)
    ea = evolve(P, ca, b_all, tl, shared_bg=shared)
    eb = evolve(P, cb, b_all, tl, shared_bg=shared)
    # the coupled pairs hold; swapped, they may break
    for small, big in [(sub, base), (lam_v, base), (base, r_v), (ea, base)]:
        assert _same_subset(small, big) is None
        _same_subset(big, small)
    # not nested at time 0
    extra = [s for s in range(g.n_sites) if s not in set(c_all)][:1]
    if extra:
        assert _same_subset(evolve(P, c_all + extra, b_all, tl), base) == 0.0
    # no deltas recorded, and no sites to record deltas of
    quiet = evolve(P, c_all, b_all, tl, want_deltas=False)
    assert len(quiet.site_arrays.t) == len(quiet.edge_arrays.t) == 0
    _same_subset(quiet, base)
    _same_subset(base, quiet)
    empty = evolve(P, (), b_all, tl)
    assert _same_subset(empty, base) is None
    _same_subset(base, empty)
    _same_subset(empty, quiet)
    # additivity holds; with the roles turned it may not
    assert _same_union(ea, eb, base) is None
    _same_union(ea, base, eb)
    _same_union(sub, eb, base)
    # duals on the reversed feed: monotone and additive in the target set
    t_star = T * 0.8
    duals = [dual_evolve(a, P, b_all, tl, t_star) for a in (ca, cb, c_all)]
    assert _same_subset(duals[0], duals[2]) is None
    _same_subset(duals[2], duals[0])
    _same_subset(duals[0], duals[1])
    assert _same_union(duals[0], duals[1], duals[2]) is None
    _same_union(duals[0], duals[2], duals[1])


def _stream(events):
    """Deltas of (time, index, sign) events, sorted by time, stably."""
    events = sorted(events, key=lambda e: e[0])
    return Deltas(np.array([e[0] for e in events], dtype=np.float64),
                  np.array([e[1] for e in events], dtype=np.int32),
                  np.array([e[2] for e in events], dtype=np.int8))


_events = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                             st.integers(0, 5), st.sampled_from([1, -1])), max_size=25)
_sets = st.frozensets(st.integers(0, 7), max_size=8)


@SETTINGS
@given(_sets, _events, _sets, _events, _sets, _events)
def test_the_checkers_agree_with_the_merges_on_any_streams(c0a, a, c0b, b, c0u, u):
    # redundant deltas (+1 to a member), many ties, indices past every
    # delta's, and initial sets that do or do not nest
    da, db, du = _stream(a), _stream(b), _stream(u)
    la, lb, lu = (d.as_list() for d in (da, db, du))
    for small, big in [(c0a, c0b), (c0a, c0a | c0b), (frozenset(), c0b)]:
        assert engine._subset_violation(small, da, big, db) == \
            reference_subset_violation(small, la, big, lb)
    trajs = [engine.Trajectory(None, 3.0, c0, frozenset(), d, engine._NO_DELTAS, c0,
                               math.inf, False) for c0, d in ((c0a, da), (c0b, db), (c0u, du))]
    assert engine._union_violation(*trajs) == \
        reference_union_violation(c0a, la, c0b, lb, c0u, lu)
    union = engine.Trajectory(None, 3.0, c0a | c0b, frozenset(), du, engine._NO_DELTAS,
                              c0a, math.inf, False)
    assert engine._union_violation(trajs[0], trajs[1], union) == \
        reference_union_violation(c0a, la, c0b, lb, c0a | c0b, lu)


# ---------------------------------------------------------------------------
# the fast path

def test_the_checkers_build_no_tuple_lists(monkeypatch):
    # the checkers read the kernel's arrays; a list of tuples would be built
    # only for a caller that reads site_deltas or edge_deltas
    made = []

    def spy(*args, **kw):
        made.append(traj(*args, **kw))
        return made[-1]

    traj = engine._traj
    monkeypatch.setattr(engine, "_traj", spy)
    g = build_box(2, 4)
    spec = ce.make_spec("ising", beta_inv=0.12, d=2)
    rng = random.Random(7)
    tl = ce.build_timeline(g, 0.7, 1.0, spec.flip_rate, 4.0, 11)
    c_all = [s for s in range(g.n_sites) if rng.random() < 0.25]
    ca, cb = c_all[::2], c_all[1::2]
    b_all = [e for e in range(g.n_edges) if rng.random() < 0.5]
    P = RunParams(g, 0.7, 1.0, spec, 4.0)
    shared = background_path(spec, b_all, tl)
    base = evolve(P, c_all, b_all, tl, shared_bg=shared)
    sub = evolve(P, ca, b_all[::2], tl)
    assert ce.is_contained_pathwise(sub, base, sites=True, edges=True)
    assert ce.is_contained_pathwise(base, ce.richardson(c_all, tl, 4.0))
    under, mid, over = ce.coupled_bounds_cpdp(P, c_all, b_all, tl)
    assert ce.is_contained_pathwise(under, mid, sites=True, edges=True)
    assert ce.is_contained_pathwise(mid, over, sites=True, edges=True)
    ea = evolve(P, ca, b_all, tl, shared_bg=shared)
    eb = evolve(P, cb, b_all, tl, shared_bg=shared)
    assert ce.union_matches_pathwise(ea, eb, base)
    assert len(made) == 8 and len(base.site_arrays.t) and len(sub.edge_arrays.t)
    for x in made:
        assert "site_deltas" not in vars(x) and "edge_deltas" not in vars(x)
