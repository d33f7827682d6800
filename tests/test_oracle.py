"""Differential tests of every engine entry point against the plain-Python
event kernel, run once over a whole table.

Each reference below is a thin driver: it sweeps contactenv.reference.grow
over the whole feed of a fully sorted twin of the table (same seed, built
fresh), then runs contactenv.reference.run over it in one stretch, with
no chunks, stored paths or early stops.  The scan, which runs many arrow
rates in each of many environments at once, is checked against
reference.run at each cell of each column, and its edge masks against
reference.grow per column; the levels sweep, a scan of one column whose
arrows read a stored path, against reference.run at each rate.  The
engine reads a table whose slabs and stored paths are filled in whatever
order the drawn calls leave them, in chunks, so the comparison checks
everything the engine adds around the kernel, and that the order of reads
changes nothing.  The decided region is checked against two copies of the
environment stepped through the feed with reference.flip.

Every case runs under the compiled kernel, when it is loaded, and under
the Python kernel, selected by patching engine._lib: on a host with a
compiler this also checks the one against the other.

Small tables would hold one slab and one chunk, so each case also draws the
slab and chunk sizes (graphical.SLAB_EVENTS, engine._CHUNK) from values
small enough to put many boundaries in the table, and whether the table's
uniforms are rounded so that its times tie.  See McKeeman, "Differential
testing for software", Digital Tech. J. 10 (1998); Claessen & Hughes,
QuickCheck, ICFP 2000.
"""

import math
import weakref
from array import array
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from contactenv import analysis, engine, graphical, reference
from contactenv.analysis import _estimate, phase_scan
from contactenv.background import decided_times, make_spec
from contactenv.engine import (SUPPRESS_ARROWS, SUPPRESS_RECOVERIES_AND_BACKGROUND,
                               RunParams, background_path, delayed_variant,
                               dual_evolve, evolve, evolve_levels, evolve_released,
                               evolve_scan, evolve_truncated, richardson)
from contactenv.graphical import (KIND_ARROW, KIND_FLIP, KIND_RECOVERY, build_timeline,
                                  derive_seed, reverse_view, thin_view)
from contactenv.lattice import build_box

# the compiled kernel (when it loaded) and the Python one
KERNELS = [engine._lib, reference] if engine._lib is not reference else [reference]

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the reference

def _feed(tl, anchor, reverse):
    """The events of [0, anchor] (all of them without an anchor), reversed
    at the anchor if reverse."""
    events = list(zip(tl.times.tolist(), tl.kinds.tolist(), tl.idx.tolist(),
                      tl.marks.tolist()))
    if anchor is not None:
        events = [ev for ev in events if ev[0] <= anchor]
        if reverse:
            events = [(anchor - t, k, j ^ 1 if k == KIND_ARROW else j, u)
                      for t, k, j, u in reversed(events)]
    return events


def _table(tl):
    return tl.times, tl.kinds, tl.idx, tl.marks


def _rule(spec, tl):
    return (spec.up_table, spec.down_table, tl.flip_rate)


def _environment(tl, b0, spec, hi, rev_top, anchor):
    """(edge states from b0, arrow flags, flips) of spec's environment
    swept over feed offsets 0..hi-1: no flags and no flips when spec is
    None."""
    g = tl.graph
    edges = bytearray(g.n_edges)
    for e in b0:
        edges[e] = 1
    if spec is None:
        return edges, None, []
    open_nbrs = bytearray(sum(edges[a] for a in g.line_nbrs[e]) for e in range(g.n_edges))
    flags = bytearray(hi)
    t, e, sign, _ = reference.grow(_table(tl), tl.n_events, 0, hi, rev_top, anchor, g,
                                   _rule(spec, tl), bytearray(edges), open_nbrs, flags)
    return edges, flags, list(zip(t.tolist(), e.tolist(), sign.tolist()))


def _infection(tl, c0, hi, rev, anchor, t_end, fracs, limits, windows, flags, flag_top,
               edges, want_deltas):
    """(site deltas, final sites, tau, boundary touched, extinct) of one
    reference.run over table indices 0..hi-1."""
    g = tl.graph
    infected = bytearray(g.n_sites)
    for s in c0:
        infected[s] = 1
    state = array("q", [infected.count(1), any(g.norm_inf[s] >= g.half_width for s in c0), 0])
    tau = array("d", [math.inf if c0 else 0.0])
    t, x, sign = reference.run(_table(tl), tl.n_events, 0, hi, rev, anchor, t_end, g, fracs,
                               limits, windows, flags, flag_top, edges, infected, state, tau,
                               want_deltas)
    sd = list(zip(t.tolist(), x.tolist(), sign.tolist()))
    c = frozenset(s for s in range(g.n_sites) if infected[s])
    return sd, c, tau[0], bool(state[1]), bool(state[2])


def reference_run(tl, c0, b0, spec, t_end, *, lam_frac=1.0, r_frac=1.0, eman=None,
                  anchor=None, reverse=False, env=True, recoveries=True,
                  no_arrows_until=-1.0, free_until=-1.0, no_rec_until=-1.0,
                  stop_on_extinct=False, want_deltas=True):
    """Trajectory fields of one run on the feed of [0, anchor] (the whole
    table without an anchor), reversed at the anchor if reverse.  Without
    env every edge is open throughout; without recoveries none is kept."""
    g = tl.graph
    hi = tl.n_events if anchor is None else tl.count_through(anchor)
    at = 0.0 if anchor is None else anchor
    if env:
        edges, flags, flips = _environment(tl, b0, spec, hi, hi - 1 if reverse else -1, at)
    else:
        edges, flags, flips = bytearray(b"\x01" * g.n_edges), None, []
    sd, c, tau, touched, extinct = _infection(
        tl, c0, hi, reverse, at, t_end, (lam_frac, r_frac if recoveries else 0.0),
        (g.half_width if eman is None else eman, math.inf),
        (no_arrows_until, free_until, no_rec_until), flags,
        hi - 1 if reverse and flags is not None else -1, edges, want_deltas)
    t_stop = tau if stop_on_extinct and extinct else t_end
    ed = [d for d in flips if d[0] <= t_stop]
    b = set(b0)
    for _, e, sign in ed:
        (b.add if sign > 0 else b.discard)(e)
    if not want_deltas:
        ed = []
    return (t_end, frozenset(c0), frozenset(b0), sd, ed, c, frozenset(b), tau, touched)


def reference_dual(tl, a_sites, b0, spec, t_star, lam_frac, r_frac, want_deltas=True):
    """Trajectory fields of dual_evolve: the arrows of [0, t*] crossed
    backwards against the forward environment from b0, swept over the
    whole table."""
    g = tl.graph
    edges, flags, _ = _environment(tl, b0, spec, tl.n_events, -1, 0.0)
    sd, c, tau, touched, _ = _infection(
        tl, a_sites, tl.count_through(t_star), True, t_star, t_star, (lam_frac, r_frac),
        (math.inf, g.half_width), (-1.0, -1.0, -1.0), flags, -1, edges, want_deltas)
    return (t_star, frozenset(a_sites), frozenset(b0), sd, [], c, frozenset(), tau, touched)


def reference_decided(tl, spec, anchor=None, reverse=False):
    """decided_times from the definition: two copies of the environment,
    from no open edge and from all, and per edge the time from which they
    have agreed, reset whenever they disagree."""
    g = tl.graph
    lo, hi = bytearray(g.n_edges), bytearray(b"\x01" * g.n_edges)
    couple = [math.inf] * g.n_edges
    for t, k, j, u in _feed(tl, anchor, reverse):
        if k != KIND_FLIP or spec is None:
            continue
        reference.flip(g, lo, _rule(spec, tl), j, u)
        reference.flip(g, hi, _rule(spec, tl), j, u)
        if lo[j] != hi[j]:
            couple[j] = math.inf
        elif couple[j] == math.inf:
            couple[j] = t
    return couple, tl.t_max if anchor is None else anchor


def _fields(x):
    return (x.t_end, x.c0, x.b0, x.site_deltas, x.edge_deltas, x.c_final, x.b_final,
            x.tau_ex, x.boundary_touched)


# ---------------------------------------------------------------------------
# cases

def _spec(kind, d):
    if kind == "dp":
        return make_spec("dynamical-percolation", alpha=1.0, beta=0.7, d=d)
    if kind == "voter":
        return make_spec("noisy-voter", alpha=0.8, beta=0.6, d=1)
    if kind == "ising":
        return make_spec("ising", beta_inv=0.3 if d == 1 else 0.12, d=d)
    return None


@st.composite
def tables(draw):
    d = draw(st.sampled_from([1, 2]))
    L = draw(st.integers(1, 6 if d == 1 else 3))
    kind = draw(st.sampled_from(["frozen", "dp", "ising"] + (["voter"] if d == 1 else [])))
    spec = _spec(kind, d)
    lam_max = draw(st.sampled_from([0.5, 1.5, 3.0]))
    r_max = draw(st.sampled_from([0.6, 1.0]))
    q = 0.0 if spec is None else spec.flip_rate * draw(st.sampled_from([1.0, 1.5]))
    T = draw(st.sampled_from([2.0, 6.0, 15.0]))
    seed = draw(st.integers(0, 2 ** 40))
    sizes = dict(slab=draw(st.sampled_from([1, 4, 32, 4096])),
                 chunk=draw(st.sampled_from([3, 16, 4096])),
                 ties=draw(st.booleans()))
    g = build_box(d, L)
    return g, spec, (lam_max, r_max, q, T, seed), sizes


class _RoundedRng:
    """A default_rng whose uniforms are rounded down to 2 decimals, so they
    stay below 1, and one in seven then moved to just below 1/2: most event
    times tie with another, and the nudge that separates the ties below
    t_max / 2, which is a slab edge when the table has two slabs or more,
    carries them past it."""

    def __init__(self, seed, _make=np.random.default_rng):
        self._rng = _make(seed)

    def poisson(self, lam, size):
        return self._rng.poisson(lam, size)

    def random(self, size):
        u = np.floor(self._rng.random(size) * 100) / 100
        u[::7] = np.nextafter(0.5, 0.0)
        return u


def _sizes(stack, sizes):
    stack.enter_context(mock.patch.object(graphical, "SLAB_EVENTS", sizes["slab"]))
    stack.enter_context(mock.patch.object(engine, "_CHUNK", sizes["chunk"]))
    if sizes["ties"]:
        stack.enter_context(mock.patch.object(np.random, "default_rng", _RoundedRng))


def _edge_sets(g):
    return st.sets(st.integers(0, g.n_edges - 1), max_size=g.n_edges)


def _sets(draw, g, b0=None):
    sites = st.sets(st.integers(0, g.n_sites - 1), max_size=g.n_sites)
    c0 = draw(sites)
    b0 = draw(_edge_sets(g)) if b0 is None else b0
    return c0, b0, draw(sites)


# each call: (engine call on the table, reference call on the sorted twin)
@st.composite
def calls(draw, g, spec, gen, b0=None):
    lam_max, r_max, q, T, seed = gen
    c0, b0, a_sites = _sets(draw, g, b0)
    lam = draw(st.sampled_from([lam_max, lam_max / 3]))
    r = draw(st.sampled_from([r_max, r_max / 2]))
    t_end = draw(st.sampled_from([T, T * 0.6]))
    t_star = draw(st.sampled_from([T, T * 0.7]))
    stop = draw(st.booleans())
    want = draw(st.booleans())
    as_view = draw(st.booleans())
    P = RunParams(g, lam, r, spec, t_end)
    fr = dict(lam_frac=lam / lam_max, r_frac=r / r_max)
    which = draw(st.sampled_from(["evolve", "stored", "truncated", "released", "delay-lo",
                                  "delay-hi", "richardson", "reversed", "anchored",
                                  "dual"]))
    # these entry points are also drawn on a reversed or re-reversed view,
    # which the engine reads in place from the anchor back
    turn = None
    if which in ("truncated", "released", "delay-lo", "delay-hi", "richardson"):
        turn = draw(st.sampled_from([None, "reversed", "anchored"]))
    turned = {}
    if turn is not None:
        t_end = t_star * (0.6 if t_end < T else 1.0)
        P = replace(P, horizon=t_end)
        turned = dict(anchor=t_star, reverse=turn == "reversed")

    def thin_and_turn(tl):
        v = thin_view(tl, lam, r)
        if turn is not None:
            v = reverse_view(v, t_star)
        return reverse_view(v, t_star) if turn == "anchored" else v

    def feed(tl):
        return thin_and_turn(tl) if turn is not None or as_view else tl

    if which == "evolve":
        return which, (lambda tl: evolve(P, c0, b0, feed(tl), stop_on_extinct=stop,
                                         want_deltas=want),
                       lambda tw: reference_run(tw, c0, b0, spec, t_end, stop_on_extinct=stop,
                                                want_deltas=want, **fr))
    if which == "stored":
        return which, (lambda tl: evolve(P, c0, b0, feed(tl), stop_on_extinct=stop,
                                         want_deltas=want,
                                         shared_bg=background_path(spec, b0, tl)),
                       lambda tw: reference_run(tw, c0, b0, spec, t_end, stop_on_extinct=stop,
                                                want_deltas=want, **fr))
    if which == "truncated":
        inner = draw(st.integers(0, g.half_width))
        return which, (lambda tl: evolve_truncated(inner, P, c0, b0, feed(tl),
                                                   stop_on_extinct=stop, want_deltas=want),
                       lambda tw: reference_run(tw, c0, b0, spec, t_end, eman=inner,
                                                stop_on_extinct=stop, want_deltas=want,
                                                **turned, **fr))
    if which == "released":
        rel = draw(st.sampled_from([0.0, T / 4]))
        return which, (lambda tl: evolve_released(P, c0, b0, feed(tl), rel,
                                                  stop_on_extinct=stop, want_deltas=want),
                       lambda tw: reference_run(tw, c0, b0, spec, t_end, no_arrows_until=rel,
                                                no_rec_until=rel, stop_on_extinct=stop,
                                                want_deltas=want, **turned, **fr))
    if which in ("delay-lo", "delay-hi"):
        s = draw(st.sampled_from([0.0, t_end / 3]))
        mode = SUPPRESS_ARROWS if which == "delay-lo" else SUPPRESS_RECOVERIES_AND_BACKGROUND
        distort = (dict(no_arrows_until=s) if which == "delay-lo"
                   else dict(no_rec_until=s, free_until=s))
        return which, (lambda tl: delayed_variant(mode, s, P, c0, b0, feed(tl),
                                                  stop_on_extinct=stop, want_deltas=want),
                       lambda tw: reference_run(tw, c0, b0, spec, t_end, stop_on_extinct=stop,
                                                want_deltas=want, **distort, **turned, **fr))
    if which == "richardson":
        return which, (lambda tl: richardson(c0, thin_and_turn(tl), t_end, want_deltas=want),
                       lambda tw: reference_run(tw, c0, (), spec, t_end, env=False,
                                                recoveries=False, want_deltas=want, **turned,
                                                **fr))
    if which in ("reversed", "anchored"):
        rev = which == "reversed"
        h = t_star * (0.6 if t_end < T else 1.0)

        def view(tl):
            v = reverse_view(thin_view(tl, lam, r), t_star)
            return v if rev else reverse_view(v, t_star)

        return which, (lambda tl: evolve(replace(P, horizon=h), c0, b0, view(tl),
                                         stop_on_extinct=stop, want_deltas=want),
                       lambda tw: reference_run(tw, c0, b0, spec, h, anchor=t_star, reverse=rev,
                                                stop_on_extinct=stop, want_deltas=want, **fr))
    return which, (lambda tl: dual_evolve(a_sites, P, b0, feed(tl), t_star,
                                          want_deltas=want),
                   lambda tw: reference_dual(tw, a_sites, b0, spec, t_star, want_deltas=want,
                                             **fr))


@st.composite
def cases(draw):
    # in half the cases every call shares one b0, so the calls read one
    # stored path, which a call that stops at extinction may leave partly
    # grown for the next to extend
    g, spec, gen, sizes = draw(tables())
    b0 = draw(_edge_sets(g)) if draw(st.booleans()) else None
    runs = draw(st.lists(calls(g, spec, gen, b0), min_size=1, max_size=3))
    return g, gen, sizes, runs


@SETTINGS
@given(cases())
def test_entry_points_match_the_reference(case):
    g, (lam_max, r_max, q, T, seed), sizes, runs = case
    for lib in KERNELS:
        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(engine, "_lib", lib))
            _sizes(stack, sizes)
            tl = build_timeline(g, lam_max, r_max, q, T, seed)
            twin = build_timeline(g, lam_max, r_max, q, T, seed)
            twin.times      # sorted whole, before any read
            for which, (run, ref) in runs:
                assert _fields(run(tl)) == ref(twin), (which, lib)


# ---------------------------------------------------------------------------
# reads that cross slab and chunk boundaries at the real sizes

@SETTINGS
@given(seed=st.integers(0, 2 ** 40), lam=st.sampled_from([1.4, 1.7, 2.2]),
       horizon=st.sampled_from([40.0, 23.0]), second=st.sampled_from(["full", "dual", "short"]))
def test_long_runs_across_slabs_match_the_reference(seed, lam, horizon, second):
    # a 1-d table of about 33k events: eight default-sized slabs and chunks;
    # a run that stops at extinction reads part of it, then a second run
    # reads on from there
    g = build_box(1, 100)
    spec = make_spec("dynamical-percolation", alpha=1.0, beta=0.5)
    T = 40.0
    twin = build_timeline(g, 2.2, 1.0, spec.flip_rate, T, seed)
    twin.times
    fr = dict(lam_frac=lam / 2.2)
    P = RunParams(g, lam, 1.0, spec, horizon)
    c0, b0 = (g.origin(),), range(0, g.n_edges, 3)
    first = reference_run(twin, c0, b0, spec, horizon, stop_on_extinct=True, **fr)
    if second == "full":
        want = reference_run(twin, c0, b0, spec, horizon)
    elif second == "dual":
        want = reference_dual(twin, (g.origin() + 1,), b0, spec, horizon, **fr, r_frac=1.0)
    else:
        want = reference_run(twin, c0, b0, spec, horizon / 8, **fr)
    for lib in KERNELS:
        with mock.patch.object(engine, "_lib", lib):
            tl = build_timeline(g, 2.2, 1.0, spec.flip_rate, T, seed)
            got = evolve(P, c0, b0, tl, stop_on_extinct=True)
            assert _fields(got) == first
            assert tl.n_generated < twin.n_events or got.tau_ex > T / 4
            if second == "full":
                got = evolve(replace(P, lam=2.2), c0, b0, tl)
            elif second == "dual":
                got = dual_evolve((g.origin() + 1,), P, b0, tl, horizon)
            else:
                got = evolve(replace(P, horizon=horizon / 8), c0, b0, thin_view(tl, lam))
            assert _fields(got) == want, lib


# ---------------------------------------------------------------------------
# the decided region: a merge of the two extreme stored paths

@SETTINGS
@given(table=tables(), view=st.sampled_from(["forward", "thinned", "reversed"]),
       grown=st.booleans(), t_star=st.sampled_from([1.0, 0.7]))
def test_decided_times_match_the_reference(table, view, grown, t_star):
    g, spec, (lam_max, r_max, q, T, seed), sizes = table
    for lib in KERNELS:
        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(engine, "_lib", lib))
            _sizes(stack, sizes)
            tl = build_timeline(g, lam_max, r_max, q, T, seed)
            twin = build_timeline(g, lam_max, r_max, q, T, seed)
            twin.times
            if grown:       # the path from no open edge, swept partway by a run
                evolve(RunParams(g, lam_max, r_max, spec, T), (g.origin(),), (), tl,
                       stop_on_extinct=True)
            if view == "forward":
                got = decided_times(spec, tl)
            elif view == "thinned":
                got = decided_times(spec, thin_view(tl, lam_max / 3, r_max / 2))
            else:
                got = decided_times(spec, reverse_view(tl, T * t_star))
            anchor = T * t_star if view == "reversed" else None
            assert got == reference_decided(twin, spec, anchor, view == "reversed"), lib


# ---------------------------------------------------------------------------
# levels: the runs at many arrow rates in one sweep, a scan of one column

def runs_at(g, table, n, c0, fracs, r_frac, flags, edges):
    """(tau_ex, boundary touched) of one reference.run over table indices
    0..n-1 at each arrow fraction of fracs, arrows emanating below
    g.half_width and reading flags, or edges when flags is None."""
    out = []
    for f in fracs:
        infected = bytearray(g.n_sites)
        for s in c0:
            infected[s] = 1
        state = array("q", [infected.count(1), any(g.norm_inf[s] >= g.half_width for s in c0),
                            0])
        tau = array("d", [math.inf if c0 else 0.0])
        reference.run(table, n, 0, n, False, 0.0, math.inf, g, (f, r_frac),
                      (g.half_width, math.inf), (-1.0, -1.0, -1.0), flags, -1, edges, infected,
                      state, tau, False)
        out.append((tau[0], bool(state[1])))
    return out


def scan_one_column(lib, g, table, n, cuts, c0, fracs, r_frac, flags, edges):
    """(tau_ex, boundary touched) at each of fracs (nondecreasing) from lib's
    scan of one column over table indices cuts[0]..cuts[-1], called once per
    stretch between cuts; its arrows read flags or, when flags is None, the
    frozen edges.  c0 is nonempty."""
    masks = array("Q", list(edges))
    level = array("d", [math.inf]) * g.n_sites
    for s in c0:
        level[s] = -1.0
    state, touch = array("q", [0, len(c0)]), array("d", [math.inf])
    taus = array("d", [math.inf]) * len(fracs)
    frozen = (array("d", [-math.inf]), array("d", [-math.inf]), 1.0)
    for lo, hi in zip(cuts, cuts[1:]):
        lib.scan(table, n, lo, hi, g, array("q", [0, len(fracs)]), array("d", fracs),
                 array("d", [r_frac]), frozen, masks, flags, level, state, touch, taus)
    at_edge = any(g.norm_inf[s] >= g.half_width for s in c0)
    return [(tau, at_edge or touch[0] < f) for tau, f in zip(taus, fracs)]


@st.composite
def level_cases(draw):
    # unsorted and repeated rates, 0 and lam_max among them; c0 may be
    # empty or hold boundary sites
    g, spec, gen, sizes = draw(tables())
    lam_max, r_max, _, T, _ = gen
    lams = draw(st.lists(st.sampled_from([0.0, lam_max / 3, lam_max / 2, lam_max]),
                         min_size=1, max_size=5))
    r = draw(st.sampled_from([r_max, r_max / 2]))
    t_end = draw(st.sampled_from([T, T * 0.6]))
    c0, b0, _ = _sets(draw, g)
    return g, spec, gen, sizes, lams, r, t_end, c0, b0


@SETTINGS
@given(level_cases())
def test_levels_match_the_reference_run_at_each_rate(case):
    g, spec, (lam_max, r_max, q, T, seed), sizes, lams, r, t_end, c0, b0 = case
    cells = [RunParams(g, lam, r, spec, t_end) for lam in lams]
    with ExitStack() as stack:
        _sizes(stack, sizes)
        twin = build_timeline(g, lam_max, r_max, q, T, seed)
        hi = twin.count_through(t_end)
        edges, flags, _ = _environment(twin, b0, spec, hi, -1, 0.0)
        want = [_infection(twin, c0, hi, False, 0.0, t_end, (lam / lam_max, r / r_max),
                           (g.half_width, math.inf), (-1.0, -1.0, -1.0), flags, -1, edges,
                           False)[2:4] for lam in lams]
        if c0:      # the Python scan over the whole table, in one stretch
            order = sorted(range(len(lams)), key=lams.__getitem__)
            assert scan_one_column(reference, g, _table(twin), twin.n_events, (0, hi), c0,
                                   [lams[k] / lam_max for k in order], r / r_max, flags,
                                   edges) == [want[k] for k in order]
        for lib in KERNELS:
            with mock.patch.object(engine, "_lib", lib):
                tl = build_timeline(g, lam_max, r_max, q, T, seed)
                assert evolve_levels(cells, c0, b0, tl) == want, lib


@st.composite
def tied_tables(draw):
    # hand-made tables whose marks often equal a rate exactly, read in two
    # stretches; every edge is open or closed throughout
    g = build_box(1, draw(st.integers(1, 4)))
    n = draw(st.integers(0, 60))
    kinds = draw(st.lists(st.sampled_from([KIND_ARROW, KIND_RECOVERY]), min_size=n, max_size=n))
    idx = [draw(st.integers(0, (2 * g.n_edges if k == KIND_ARROW else g.n_sites) - 1))
           for k in kinds]
    marks = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), min_size=n, max_size=n))
    table = (np.arange(1.0, n + 1), np.array(kinds, np.int8), np.array(idx, np.int32),
             np.array(marks))
    fracs = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1,
                                 max_size=4)))
    edges = bytearray(draw(st.lists(st.integers(0, 1), min_size=g.n_edges,
                                    max_size=g.n_edges)))
    c0 = draw(st.sets(st.integers(0, g.n_sites - 1), min_size=1))
    return g, table, fracs, draw(st.sampled_from([0.5, 1.0])), edges, c0, draw(st.integers(0, n))


@SETTINGS
@given(tied_tables())
def test_levels_at_rates_equal_to_marks_match_the_reference_run(case):
    g, table, fracs, r_frac, edges, c0, cut = case
    n = len(table[0])
    want = runs_at(g, table, n, c0, fracs, r_frac, None, edges)
    for lib in KERNELS:
        assert scan_one_column(lib, g, table, n, (0, cut, n), c0, fracs, r_frac, None,
                               edges) == want, lib


def per_cell_phase_scan(axis1, axis2, fixed, T, reps, seed):
    """phase_scan's estimates made one evolve per cell and replica, on the
    replica's table drawn at the ceilings: from no open edge under
    dynamical percolation, and from every edge open, frozen, when neither
    alpha nor beta is set."""
    (name1, vals1), (name2, vals2) = axis1, axis2
    g = build_box(fixed["d"], fixed["L"])

    def setting(name, v1, v2):
        return v1 if name == name1 else v2 if name == name2 else fixed.get(name)

    def values(name):
        return vals1 if name == name1 else vals2 if name == name2 else (fixed.get(name),)

    specs = {(a, b): make_spec("dynamical-percolation", alpha=a, beta=b, d=fixed["d"])
             for a in values("alpha") for b in values("beta")
             if a is not None and b is not None}
    q = max((spec.flip_rate for spec in specs.values()), default=0.0)
    estimates = {}
    for v2 in vals2:
        counts = {v1: [0, 0] for v1 in vals1}
        for i in range(reps):
            rep_seed = derive_seed(seed, i)
            tl = build_timeline(g, max(values("lambda")), max(values("r")), q, T, rep_seed)
            for v1 in vals1:
                spec = specs.get((setting("alpha", v1, v2), setting("beta", v1, v2)))
                P = RunParams(g, setting("lambda", v1, v2), setting("r", v1, v2), spec, T)
                b0 = () if spec is not None else range(g.n_edges)
                traj = evolve(P, (g.origin(),), b0, tl, stop_on_extinct=True,
                              want_deltas=False)
                counts[v1][0] += traj.tau_ex == math.inf
                counts[v1][1] += traj.boundary_touched
        for v1, (alive, touched) in counts.items():
            estimates[(v1, v2)] = _estimate(alive, reps, seed, boundary=touched)
    return estimates


@pytest.mark.parametrize("lib", KERNELS, ids=[("c", "python")[lib is reference] for lib in KERNELS])
@pytest.mark.parametrize("axis1,axis2,fixed", [
    (("lambda", [0.5, 4.0, 1.5, 0.0]), ("beta", [0.25, 3.0]), {"alpha": 1.0, "r": 1.0}),
    (("beta", [0.25, 1.0, 3.0]), ("lambda", [2.5, 1.0]), {"alpha": 1.0, "r": 1.0}),
    (("r", [1.0, 0.5, 2.0]), ("lambda", [1.5, 3.0]), {"alpha": 1.0, "beta": 1.0}),
], ids=["lambda-beta", "beta-lambda", "r-lambda"])
def test_phase_scan_matches_its_per_cell_runs(lib, axis1, axis2, fixed, monkeypatch):
    monkeypatch.setattr(engine, "_lib", lib)
    fixed = {"d": 1, "L": 12, **fixed}
    got = phase_scan(axis1, axis2, fixed, T=6.0, reps=25, seed=8).estimates
    assert got == per_cell_phase_scan(axis1, axis2, fixed, 6.0, 25, 8)


SCAN = dict(axis1=("lambda", [0.5, 4.0, 1.5]), axis2=("beta", [0.25, 1.0, 3.0]),
            fixed={"d": 1, "L": 12, "alpha": 1.0, "r": 1.0}, T=6.0, reps=5, seed=8)


def _drawn_tables(monkeypatch):
    """The tables phase_scan draws, in draw order."""
    tables = []

    def draw(*args, **kw):
        tables.append(build_timeline(*args, **kw))
        return tables[-1]

    monkeypatch.setattr(analysis, "build_timeline", draw)
    return tables


@pytest.mark.parametrize("reps", [1, 2, 5])
def test_a_phase_scan_draws_each_table_once_and_keeps_none(reps, monkeypatch):
    # whatever the table sizes, a scan draws each replica's table once, in
    # replica order, sweeps every column of it at once and drops it: no
    # environment path is stored and no table outlives the scan
    scan = dict(SCAN, reps=reps)
    drawn, paths = [], []

    def draw(*args, **kw):
        tl = build_timeline(*args, **kw)
        drawn.append((tl.seed, weakref.ref(tl)))
        return tl

    def sweep(columns, c0, tl):
        out = evolve_scan(columns, c0, tl)
        paths.append(len(tl.bg_paths))
        return out

    monkeypatch.setattr(analysis, "build_timeline", draw)
    monkeypatch.setattr(analysis, "evolve_scan", sweep)
    got = phase_scan(**scan).estimates
    assert [seed for seed, _ in drawn] == [derive_seed(scan["seed"], i) for i in range(reps)]
    assert paths == [0] * reps
    assert all(ref() is None for _, ref in drawn)
    assert got == per_cell_phase_scan(**scan)


def test_a_phase_scan_stopped_by_proceed_holds_the_columns_that_ran(monkeypatch):
    scan = dict(SCAN, axis2=("beta", [0.25, 1.0, 3.0, 0.5]))
    asked = []

    def proceed(column_events):
        asked.append(column_events)
        return len(asked) <= 2

    tables = _drawn_tables(monkeypatch)
    got = phase_scan(**scan, proceed=proceed)
    assert got.values2 == (0.25, 1.0) and len(asked) == 3 and len(set(asked)) == 1
    assert len(tables) == scan["reps"]
    # the columns that ran are those of the whole scan, drawn at its ceilings
    ref = per_cell_phase_scan(**scan)
    assert got.estimates == {k: v for k, v in ref.items() if k[1] in (0.25, 1.0)}


@st.composite
def scan_grids(draw):
    # two axes among lambda, r, alpha and beta; the other two settings
    # fixed, lambda among them in some grids (one fraction per column),
    # and r columns that share one environment in others
    name1, name2 = draw(st.permutations(analysis.AXIS_NAMES))[:2]
    grid = {"lambda": [0.0, 0.5, 1.5, 3.0], "r": [0.5, 1.0, 2.0],
            "alpha": [0.5, 1.0, 2.0], "beta": [0.25, 1.0, 3.0]}
    axes = [(name, draw(st.lists(st.sampled_from(grid[name]), min_size=1, max_size=3,
                                 unique=True))) for name in (name1, name2)]
    fixed = {"d": draw(st.sampled_from([1, 2])), "L": draw(st.integers(1, 3))}
    for name in grid:
        if name not in (name1, name2):
            fixed[name] = draw(st.sampled_from(grid[name][1:]))
    return (*axes, fixed, draw(st.sampled_from([2.0, 5.0])), draw(st.integers(0, 2 ** 20)))


@settings(SETTINGS, max_examples=100)
@given(scan_grids())
def test_phase_scans_over_any_two_axes_match_their_per_cell_runs(grid):
    axis1, axis2, fixed, T, seed = grid
    want = per_cell_phase_scan(axis1, axis2, fixed, T, 4, seed)
    for lib in KERNELS:
        with mock.patch.object(engine, "_lib", lib):
            assert phase_scan(axis1, axis2, fixed, T=T, reps=4, seed=seed).estimates == \
                want, lib


@pytest.mark.parametrize("lib", KERNELS, ids=[("c", "python")[lib is reference] for lib in KERNELS])
def test_a_phase_scan_of_65_columns_sweeps_them_64_at_a_time(lib, monkeypatch):
    # one beta per column: the 65th is swept alone, in a second sweep of the
    # same table
    monkeypatch.setattr(engine, "_lib", lib)
    scan = dict(axis1=("lambda", [2.0]), axis2=("beta", [0.05 * k for k in range(1, 66)]),
                fixed={"d": 1, "L": 2, "alpha": 1.0, "r": 1.0}, T=3.0, reps=3, seed=11)
    sweeps = []
    real = lib.scan

    def scan_loop(*args):
        sweeps.append(len(args[5]) - 1)      # the columns of this stretch
        return real(*args)

    monkeypatch.setattr(lib, "scan", scan_loop)
    got = phase_scan(**scan).estimates
    assert set(sweeps) == {64, 1}
    assert got == per_cell_phase_scan(**scan)


@pytest.mark.parametrize("lib", KERNELS, ids=[("c", "python")[lib is reference] for lib in KERNELS])
def test_a_phase_scan_without_an_environment_runs_on_open_edges(lib, monkeypatch):
    # neither alpha nor beta set: the classical contact process, every edge
    # open throughout, so survival rises with lambda
    monkeypatch.setattr(engine, "_lib", lib)
    scan = dict(axis1=("lambda", [0.5, 6.0]), axis2=("r", [0.5, 1.0]),
                fixed={"d": 1, "L": 15}, T=5.0, reps=30, seed=4)
    got = phase_scan(**scan).estimates
    assert got == per_cell_phase_scan(**scan)
    for r in (0.5, 1.0):
        assert got[(0.5, r)].p_hat < got[(6.0, r)].p_hat


@st.composite
def tied_scans(draw):
    # hand-made tables of arrows, recoveries and flip candidates whose marks
    # often put (1 - u) q on a column's closing rate and u q on its opening
    # rate exactly, read in two stretches; the columns' edges start from
    # their own sets, and one column may be frozen.  Or every column reads
    # one set of arrow flags, swept by a rule that reads the open neighbours
    g = build_box(1, draw(st.integers(1, 4)))
    n = draw(st.integers(0, 60))
    kinds = draw(st.lists(st.sampled_from([KIND_ARROW, KIND_RECOVERY, KIND_FLIP]),
                          min_size=n, max_size=n))
    bound = {KIND_ARROW: 2 * g.n_edges, KIND_RECOVERY: g.n_sites, KIND_FLIP: g.n_edges}
    idx = [draw(st.integers(0, bound[k] - 1)) for k in kinds]
    marks = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), min_size=n, max_size=n))
    table = (np.arange(1.0, n + 1), np.array(kinds, np.int8), np.array(idx, np.int32),
             np.array(marks))
    rates = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        fracs = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                     min_size=1, max_size=3)))
        rule = None if draw(st.booleans()) and not columns else (draw(rates), draw(rates))
        b0 = draw(st.sets(st.integers(0, g.n_edges - 1)))
        columns.append((fracs, draw(st.sampled_from([0.5, 1.0])), rule, b0))
    c0 = draw(st.sets(st.integers(0, g.n_sites - 1), min_size=1))
    # rates per open-neighbour count 0, 1, 2: a 1-d edge has two neighbours
    tables = st.lists(rates, min_size=3, max_size=3)
    shared = draw(st.none() | st.tuples(tables, tables, st.sets(st.integers(0, g.n_edges - 1))))
    return g, table, columns, c0, draw(st.integers(0, n)), shared


def _swept(g, table, n, b0, rule):
    """The edges from b0 and the arrow flags of reference.grow over the
    whole table under rule = (up, down, q)."""
    edges = bytearray(g.n_edges)
    for e in b0:
        edges[e] = 1
    open_nbrs = bytearray(sum(edges[a] for a in g.line_nbrs[e]) for e in range(g.n_edges))
    flags = bytearray(n)
    reference.grow(table, n, 0, n, -1, 0.0, g, rule, edges, open_nbrs, flags)
    return edges, flags


@SETTINGS
@given(tied_scans())
def test_a_scan_at_rates_equal_to_marks_matches_grow_and_run_per_column(case):
    # q = 1, so a mark u closes an open edge at rate beta iff 1 - u <= beta
    # and opens a closed one at rate alpha iff u < alpha, as reference.flip;
    # with shared flags every column reads them and no mask is read or written
    g, table, columns, c0, cut, shared = case
    n = len(table[0])
    n_cols = len(columns)
    flags = None if shared is None else _swept(g, table, n, shared[2],
                                               (shared[0], shared[1], 1.0))[1]
    want_runs, want_edges = [], []
    for fracs, r_frac, rule, b0 in columns:
        if flags is None and rule is not None:
            edges, col_flags = _swept(g, table, n, b0, ((rule[0],) * 3, (rule[1],) * 3, 1.0))
        else:
            edges, col_flags = bytearray(g.n_edges), flags
            for e in b0:
                edges[e] = 1
        want_edges.append(bytes(edges))
        want_runs.append(runs_at(g, table, n, c0, fracs, r_frac, col_flags, edges))
    for lib in KERNELS:
        col_ptr = array("q", [0])
        fracs = array("d")
        for col in columns:
            fracs.extend(col[0])
            col_ptr.append(len(fracs))
        masks = array("Q", [0]) * g.n_edges
        for k, (_, _, _, b0) in enumerate(columns):
            for e in b0:
                masks[e] |= 1 << k
        level = array("d", [math.inf]) * (g.n_sites * n_cols)
        for s in c0:
            for k in range(n_cols):
                level[s * n_cols + k] = -1.0
        state = array("q", [0, len(c0)]) * n_cols
        touch = array("d", [math.inf]) * n_cols
        taus = array("d", [math.inf]) * len(fracs)
        # a frozen column neither opens nor closes an edge
        ups = array("d", [-math.inf if r is None else r[0] for _, _, r, _ in columns])
        downs = array("d", [-math.inf if r is None else r[1] for _, _, r, _ in columns])
        for lo, hi in ((0, cut), (cut, n)):
            lib.scan(table, n, lo, hi, g, col_ptr, fracs,
                     array("d", [col[1] for col in columns]), (ups, downs, 1.0), masks,
                     flags, level, state, touch, taus)
        at_edge = any(g.norm_inf[s] >= g.half_width for s in c0)
        got = [[(taus[i], at_edge or touch[k] < fracs[i]) for i in range(a, b)]
               for k, (a, b) in enumerate(zip(col_ptr, col_ptr[1:]))]
        assert got == want_runs, lib
        if flags is None and state.tolist()[::2] == [len(col[0]) for col in columns]:
            continue    # a scan whose columns all died stopped reading the flips
        assert [bytes(masks[e] >> k & 1 for e in range(g.n_edges))
                for k in range(n_cols)] == want_edges, lib


@st.composite
def scan_cases(draw):
    # drawn tables, frozen or dynamical percolation, in many slabs and
    # chunks; columns of a few rates each, at their own r and, under
    # dynamical percolation, their own alpha and beta and initial edges
    g, spec, gen, sizes = draw(tables().filter(lambda t: t[1] is None or t[1].is_dp))
    lam_max, r_max, q, T, seed = gen
    t_end = draw(st.sampled_from([T, T * 0.6]))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        lams = draw(st.lists(st.sampled_from([0.0, lam_max / 3, lam_max]), min_size=1,
                             max_size=3))
        r = draw(st.sampled_from([r_max, r_max / 2]))
        col_spec = spec
        if spec is not None:
            # a dynamical percolation whose candidate rate the table's covers
            col_spec = make_spec("dynamical-percolation", alpha=draw(st.sampled_from(
                [0.3, spec.alpha])), beta=draw(st.sampled_from([0.2, spec.beta])), d=g.dimension)
        b0 = draw(_edge_sets(g))
        columns.append(([RunParams(g, lam, r, col_spec, t_end) for lam in lams], b0))
    c0 = draw(st.sets(st.integers(0, g.n_sites - 1), max_size=g.n_sites))
    return g, gen, sizes, columns, c0


@SETTINGS
@given(scan_cases())
def test_a_scan_matches_the_reference_run_of_each_cell(case):
    g, (lam_max, r_max, q, T, seed), sizes, columns, c0 = case
    with ExitStack() as stack:
        _sizes(stack, sizes)
        twin = build_timeline(g, lam_max, r_max, q, T, seed)
        want = []
        for cells, b0 in columns:
            hi = twin.count_through(cells[0].horizon)
            edges, flags, _ = _environment(twin, b0, cells[0].spec, hi, -1, 0.0)
            want.append([_infection(twin, c0, hi, False, 0.0, cells[0].horizon,
                                    (p.lam / lam_max, p.r / r_max), (g.half_width, math.inf),
                                    (-1.0, -1.0, -1.0), flags, -1, edges, False)[2:4]
                         for p in cells])
        for lib in KERNELS:
            with mock.patch.object(engine, "_lib", lib):
                tl = build_timeline(g, lam_max, r_max, q, T, seed)
                assert evolve_scan(columns, c0, tl) == want, lib
                assert not tl.bg_paths
