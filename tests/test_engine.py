import math
import random
from dataclasses import replace

import pytest

from contactenv import (background_path, build_box, build_timeline,
                        coupled_bounds_cpdp, coupled_region, decided_times,
                        delayed_variant, dual_evolve,
                        duality_indicators, evolve, evolve_background,
                        evolve_released, evolve_truncated, is_contained_pathwise,
                        make_spec, phi_set, reverse_view, richardson, thin_view,
                        union_matches_pathwise)
from contactenv import engine, graphical
from contactenv.engine import _CHUNK, SUPPRESS_ARROWS, RunParams
from contactenv.graphical import KIND_ARROW, KIND_RECOVERY, derive_seed


DP = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)


def naive_pair_process(tl, c0, b0, spec, t_end, lam_frac=1.0, r_frac=1.0):
    """Independent straight-line reimplementation used as an oracle."""
    g = tl.graph
    c = set(int(s) for s in c0)
    b = set(int(e) for e in b0)
    L = g.half_width
    for t, k, j, u in zip(tl.times, tl.kinds, tl.idx, tl.marks):
        if t > t_end:
            break
        if k == KIND_ARROW:
            if u >= lam_frac:
                continue
            src, dst, edge = g.dir_src[j], g.dir_dst[j], g.dir_edge[j]
            if src in c and edge in b and max(abs(v) for v in g.site_coord(src)) < L:
                c.add(dst)
        elif k == KIND_RECOVERY:
            if u < r_frac:
                c.discard(int(j))
        else:
            if spec is None:
                continue
            cnt = sum(1 for a in g.line_nbrs[j] if a in b)
            q = tl.flip_rate
            if j in b:
                if (1.0 - u) * q <= spec.down_table[cnt]:
                    b.discard(int(j))
            else:
                if u * q < spec.up_table[cnt]:
                    b.add(int(j))
    return c, b


def test_empty_start_is_absorbing():
    g = build_box(1, 5)
    tl = build_timeline(g, 2.0, 1.0, 2.0, 5.0, seed=1)
    traj = evolve(RunParams(g, 2.0, 1.0, DP, 5.0), (), range(g.n_edges), tl)
    assert traj.c_final == frozenset()
    assert traj.tau_ex == 0.0
    assert traj.sites_at(3.0) == frozenset()


def test_single_site_death_clock():
    g = build_box(1, 2)
    alive = 0
    reps = 3000
    for i in range(reps):
        tl = build_timeline(g, 0.0, 1.0, 0.0, 5.0, derive_seed(17, i))
        traj = evolve(RunParams(g, 0.0, 1.0, None, 5.0), (g.origin(),),
                      range(g.n_edges), tl, want_deltas=False)
        alive += traj.tau_ex == math.inf
    expect = math.exp(-5.0)
    sigma = math.sqrt(expect * (1 - expect) / reps)
    assert abs(alive / reps - expect) < 3 * sigma


def test_matches_naive_oracle():
    rng = random.Random(0)
    g = build_box(1, 8)
    spec = make_spec("noisy-voter", alpha=1.0, beta=0.5)
    for i in range(25):
        tl = build_timeline(g, 1.5, 1.0, spec.flip_rate, 6.0, derive_seed(3, i))
        c0 = [s for s in range(g.n_sites) if rng.random() < 0.3]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        traj = evolve(RunParams(g, 1.5, 1.0, spec, 6.0), c0, b0, tl)
        c_ref, b_ref = naive_pair_process(tl, c0, b0, spec, 6.0)
        assert traj.c_final == frozenset(c_ref)
        assert traj.b_final == frozenset(b_ref)


def test_classical_limit_matches_naive_cp():
    # frozen-open environment: plain contact process, checked against oracle
    g = build_box(1, 10)
    for i in range(20):
        tl = build_timeline(g, 2.0, 1.0, 0.0, 8.0, derive_seed(23, i))
        traj = evolve(RunParams(g, 2.0, 1.0, None, 8.0), (g.origin(),),
                      range(g.n_edges), tl)
        c_ref, _ = naive_pair_process(tl, (g.origin(),), range(g.n_edges), None, 8.0)
        assert traj.c_final == frozenset(c_ref)


def test_snapshot_queries_piecewise_constant():
    g = build_box(1, 5)
    tl = build_timeline(g, 2.0, 1.0, 2.0, 4.0, seed=9)
    traj = evolve(RunParams(g, 2.0, 1.0, DP, 4.0), (g.origin(),), (), tl)
    snaps = list(traj.snapshots())
    t_mid = (snaps[1][0] + snaps[2][0]) / 2
    assert traj.sites_at(t_mid) == snaps[1][1]
    assert traj.sites_at(snaps[2][0]) == snaps[2][1]
    assert traj.sites_at(4.0) == traj.c_final


def test_monotone_in_initial_configuration():
    rng = random.Random(4)
    g = build_box(1, 20)
    spec = make_spec("ising", beta_inv=0.4)
    for i in range(30):
        tl = build_timeline(g, 2.0, 1.0, spec.flip_rate, 8.0, derive_seed(31, i))
        c2 = [s for s in range(g.n_sites) if rng.random() < 0.4]
        c1 = [s for s in c2 if rng.random() < 0.6]
        b2 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        b1 = [e for e in b2 if rng.random() < 0.7]
        P = RunParams(g, 2.0, 1.0, spec, 8.0)
        small = evolve(P, c1, b1, tl)
        big = evolve(P, c2, b2, tl)
        assert is_contained_pathwise(small, big, sites=True, edges=True)


def test_thin_to_zero_leaves_single_site_death_clock():
    g = build_box(1, 5)
    for i in range(30):
        tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 6.0, derive_seed(143, i))
        traj = evolve(RunParams(g, 0.0, 1.0, DP, 6.0), (g.origin(),), (),
                      thin_view(tl, 0.0))
        first_rec = next((t for t, k, j, u in zip(tl.times, tl.kinds, tl.idx, tl.marks)
                          if k == KIND_RECOVERY and j == g.origin()), math.inf)
        if first_rec <= 6.0:
            assert traj.c_final == frozenset()
            assert traj.tau_ex == first_rec
        else:
            assert traj.c_final == frozenset({g.origin()})


def test_horizon_precondition():
    g = build_box(1, 5)
    tl = build_timeline(g, 1.0, 1.0, 0.0, 4.0, seed=1)
    with pytest.raises(ValueError, match="horizon"):
        evolve(RunParams(g, 1.0, 1.0, None, 9.0), (g.origin(),), range(g.n_edges), tl)


def test_rate_thinning_nesting():
    g = build_box(1, 20)
    for i in range(20):
        tl = build_timeline(g, 3.0, 2.0, DP.flip_rate, 6.0, derive_seed(41, i))
        c0 = (g.origin(),)
        b0 = range(0, g.n_edges, 2)
        lo = evolve(RunParams(g, 1.0, 2.0, DP, 6.0), c0, b0, thin_view(tl, 1.0))
        hi = evolve(RunParams(g, 3.0, 2.0, DP, 6.0), c0, b0, thin_view(tl, 3.0))
        assert is_contained_pathwise(lo, hi)
        few_rec = evolve(RunParams(g, 3.0, 0.5, DP, 6.0), c0, b0, thin_view(tl, 3.0, 0.5))
        assert is_contained_pathwise(hi, few_rec)


def test_additivity_exact():
    rng = random.Random(6)
    g = build_box(1, 15)
    for i in range(20):
        tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 6.0, derive_seed(53, i))
        ca = [s for s in range(g.n_sites) if rng.random() < 0.2]
        cb = [s for s in range(g.n_sites) if rng.random() < 0.2]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        P = RunParams(g, 2.0, 1.0, DP, 6.0)
        u = evolve(P, set(ca) | set(cb), b0, tl)
        a = evolve(P, ca, b0, tl)
        b = evolve(P, cb, b0, tl)
        assert union_matches_pathwise(a, b, u)
        assert a.c_final | b.c_final == u.c_final


def test_richardson_growth_and_domination():
    g = build_box(1, 25)
    for i in range(20):
        tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 8.0, derive_seed(61, i))
        c0 = (g.origin(),)
        rich = richardson(c0, tl, 8.0)
        assert rich.c0 == frozenset(c0)
        prev = set()
        for _, c, _ in rich.snapshots():
            assert prev <= set(c)
            prev = set(c)
        run = evolve(RunParams(g, 2.0, 1.0, DP, 8.0), c0, range(g.n_edges), tl)
        assert is_contained_pathwise(run, rich)


def test_truncation_containment_and_identity():
    rng = random.Random(8)
    g = build_box(1, 20)
    P = RunParams(g, 2.0, 1.0, DP, 6.0)
    for i in range(20):
        tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 6.0, derive_seed(71, i))
        c0 = [s for s in range(g.n_sites) if rng.random() < 0.3]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        full = evolve(P, c0, b0, tl)
        same = evolve_truncated(g.half_width, P, c0, b0, tl)
        assert same.c_final == full.c_final and same.deltas == full.deltas
        inner = evolve_truncated(10, P, c0, b0, tl)
        assert is_contained_pathwise(inner, full)


def test_truncated_seed_outside_inner_box_never_grows():
    g = build_box(1, 10)
    P = RunParams(g, 5.0, 0.0, None, 5.0)
    tl = build_timeline(g, 5.0, 0.0, 0.0, 5.0, seed=3)
    far = g.site_index((8,))
    traj = evolve_truncated(4, P, (far,), range(g.n_edges), tl)
    assert traj.c_final == frozenset({far})


def test_delayed_variants():
    g = build_box(1, 20)
    spec = make_spec("ising", beta_inv=0.4)
    P = RunParams(g, 2.0, 1.0, spec, 8.0)
    rng = random.Random(10)
    for i in range(15):
        tl = build_timeline(g, 2.0, 1.0, spec.flip_rate, 8.0, derive_seed(83, i))
        c0 = [s for s in range(g.n_sites) if rng.random() < 0.3]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.4]
        base = evolve(P, c0, b0, tl)
        zero = delayed_variant("suppress-arrows", 0.0, P, c0, b0, tl)
        assert zero.deltas == base.deltas
        lo = delayed_variant("suppress-arrows", 3.0, P, c0, b0, tl)
        hi = delayed_variant("suppress-recoveries-and-background", 3.0, P, c0, b0, tl)
        assert is_contained_pathwise(lo, base)
        assert is_contained_pathwise(base, hi)
        # upper bound agrees with the growth-only run while the distortion lasts
        rich = richardson(c0, tl, 8.0)
        assert hi.sites_at(3.0) == rich.sites_at(3.0)


def test_delayed_single_site_survival_is_recovery_free_window():
    g = build_box(1, 5)
    P = RunParams(g, 1.0, 1.0, DP, 6.0)
    for i in range(40):
        tl = build_timeline(g, 1.0, 1.0, DP.flip_rate, 6.0, derive_seed(97, i))
        lo = delayed_variant("suppress-arrows", 2.0, P, (g.origin(),), (), tl)
        first_rec = next((t for t, k, j, u in zip(tl.times, tl.kinds, tl.idx, tl.marks)
                          if k == KIND_RECOVERY and j == g.origin()), math.inf)
        assert lo.alive_at(2.0) == (first_rec > 2.0)


def test_cpdp_sandwich_collapses_for_dp():
    g = build_box(1, 10)
    P = RunParams(g, 2.0, 1.0, DP, 5.0)
    tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 5.0, seed=2)
    un, mid, ov = coupled_bounds_cpdp(P, (g.origin(),), (), tl)
    assert un.deltas == mid.deltas == ov.deltas


def test_cpdp_sandwich_ising():
    rng = random.Random(12)
    g = build_box(1, 20)
    spec = make_spec("ising", beta_inv=0.4)
    P = RunParams(g, 2.0, 1.0, spec, 8.0)
    for i in range(25):
        tl = build_timeline(g, 2.0, 1.0, spec.flip_rate, 8.0, derive_seed(101, i))
        c0 = [s for s in range(g.n_sites) if rng.random() < 0.3]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        un, mid, ov = coupled_bounds_cpdp(P, c0, b0, tl)
        assert is_contained_pathwise(un, mid, sites=True, edges=True)
        assert is_contained_pathwise(mid, ov, sites=True, edges=True)


def test_dual_trivial_cases():
    g = build_box(1, 8)
    P = RunParams(g, 2.0, 1.0, DP, 6.0)
    tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 6.0, seed=15)
    empty = dual_evolve((), P, (), tl, 5.0)
    assert empty.c_final == frozenset()
    # no arrows: both sides reduce to pure-death indicators
    tl0 = build_timeline(g, 0.0, 1.0, DP.flip_rate, 6.0, seed=16)
    P0 = RunParams(g, 0.0, 1.0, DP, 6.0)
    c0, a = (g.origin(),), (g.origin(),)
    left, right = duality_indicators(P0, c0, (), a, tl0, 5.0)
    assert left == right


def test_duality_identity_randomized():
    rng = random.Random(20)
    g = build_box(1, 12)
    spec = make_spec("noisy-voter", alpha=1.0, beta=1.0)
    for i in range(150):
        tl = build_timeline(g, 2.0, 1.0, spec.flip_rate, 9.0, derive_seed(111, i))
        P = RunParams(g, 2.0, 1.0, spec, 9.0)
        c0 = [s for s in range(g.n_sites) if rng.random() < 0.25]
        a = [s for s in range(g.n_sites) if rng.random() < 0.25]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        t_star = 1.0 + 7.0 * rng.random()
        left, right = duality_indicators(P, c0, b0, a, tl, t_star)
        assert left == right


def test_duality_identity_d2():
    rng = random.Random(9)
    spec = make_spec("dynamical-percolation", alpha=1.0, beta=2.0, d=2)
    g = build_box(2, 6)
    for i in range(80):
        tl = build_timeline(g, 1.5, 1.0, spec.flip_rate, 6.0, derive_seed(321, i))
        P = RunParams(g, 1.5, 1.0, spec, 6.0)
        c0 = [s for s in range(g.n_sites) if rng.random() < 0.1]
        a = [s for s in range(g.n_sites) if rng.random() < 0.1]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        left, right = duality_indicators(P, c0, b0, a, tl, 4.5)
        assert left == right


def test_duality_identity_with_thinning():
    rng = random.Random(21)
    g = build_box(1, 10)
    for i in range(60):
        tl = build_timeline(g, 3.0, 2.0, DP.flip_rate, 8.0, derive_seed(121, i))
        view = thin_view(tl, 1.7, 1.0)
        P = RunParams(g, 1.7, 1.0, DP, 8.0)
        c0 = [s for s in range(g.n_sites) if rng.random() < 0.3]
        a = [s for s in range(g.n_sites) if rng.random() < 0.3]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        left, right = duality_indicators(P, c0, b0, a, view, 6.0)
        assert left == right


def test_phi_set_trivial_and_law():
    g = build_box(1, 6)
    tl = build_timeline(g, 0.0, 0.0, DP.flip_rate, 4.0, seed=31)
    assert len(phi_set(DP, tl, 0.0)) == 0
    # all edges decided -> every interior site qualifies
    big = build_timeline(g, 0.0, 0.0, DP.flip_rate, 400.0, seed=32, max_events=10**6)
    assert len(phi_set(DP, big, 400.0)) == g.n_sites - 2

    # P(interior site ready at t) = (1 - e^{-(a+b)t})^2 on the line
    g2 = build_box(1, 3000)
    tl2 = build_timeline(g2, 0.0, 0.0, DP.flip_rate, 1.0, seed=33)
    frac = len(phi_set(DP, tl2, 1.0)) / (g2.n_sites - 2)
    expect = (1 - math.exp(-2.0)) ** 2
    sigma = math.sqrt(expect * (1 - expect) / (g2.n_sites - 2))
    assert abs(frac - expect) < 4 * sigma  # site states share edges, slight correlation


def test_trajectory_ndjson_export():
    import json
    from contactenv import trajectory_to_ndjson
    g = build_box(1, 4)
    tl = build_timeline(g, 1.0, 1.0, 2.0, 3.0, seed=44)
    traj = evolve(RunParams(g, 1.0, 1.0, DP, 3.0), (g.origin(),), (), tl)
    lines = trajectory_to_ndjson(traj).strip().split("\n")
    first = json.loads(lines[0])
    assert first["t"] == 0.0 and first["sites"] == [g.origin()]
    last = json.loads(lines[-1])
    assert frozenset(last["sites"]) == traj.c_final


def test_boundary_touch_flag():
    g = build_box(1, 4)
    tl = build_timeline(g, 8.0, 0.0, 0.0, 6.0, seed=35)
    traj = richardson((g.origin(),), tl, 6.0)
    assert traj.boundary_touched  # rate-8 growth crosses a 4-box easily
    tl2 = build_timeline(g, 0.0, 1.0, 0.0, 6.0, seed=36)
    stay = evolve(RunParams(g, 0.0, 1.0, None, 6.0), (g.origin(),), range(g.n_edges), tl2)
    assert not stay.boundary_touched


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["lam", "r", "horizon"])
def test_run_params_reject_non_finite(field, bad):
    args = dict(lam=1.0, r=1.0, horizon=2.0)
    args[field] = bad
    with pytest.raises(ValueError, match="finite"):
        RunParams(build_box(1, 3), spec=None, **args)


# ---------------------------------------------------------------------------
# stored environment paths: runs that share a path, grown and read in any
# order, get what each run gets on a fresh timeline, whose paths it makes

def _fields(x):
    if isinstance(x, bool):
        return x
    if hasattr(x, "tolist"):
        return x.tolist()
    if isinstance(x, tuple):
        return tuple(_fields(y) for y in x)
    return (x.t_end, x.c0, x.b0, x.site_deltas, x.edge_deltas, x.c_final,
            x.b_final, x.tau_ex, x.boundary_touched)


def _every_entry_point(P, c0, b0, a, tl_of, t_star):
    """Each run that can read an environment path, each on tl_of()."""
    g = P.graph
    half = RunParams(g, P.lam / 2, P.r, P.spec, P.horizon)
    early = RunParams(g, P.lam, P.r, P.spec, t_star)
    return {
        "evolve": evolve(P, c0, b0, tl_of()),
        "thinned": evolve(half, c0, b0, thin_view(tl_of(), P.lam / 2)),
        "no-deltas": evolve(P, c0, b0, tl_of(), want_deltas=False),
        "stop-on-extinct": evolve(P, c0, b0, tl_of(), stop_on_extinct=True),
        "early-horizon": evolve(early, c0, b0, tl_of()),
        "truncated": evolve_truncated(g.half_width // 2, P, c0, b0, tl_of()),
        "released": evolve_released(P, c0, b0, tl_of(), 1.0),
        "delayed-lo": delayed_variant("suppress-arrows", 1.0, P, c0, b0, tl_of()),
        "delayed-hi": delayed_variant("suppress-recoveries-and-background", 1.0, P,
                                      c0, b0, tl_of()),
        "sandwich": coupled_bounds_cpdp(P, c0, b0, tl_of()),
        "richardson": richardson(c0, tl_of(), P.horizon),
        "dual": dual_evolve(a, P, b0, tl_of(), t_star),
        "duality": duality_indicators(P, c0, b0, a, tl_of(), t_star),
        "background": evolve_background(P.spec, b0, tl_of(), t_star),
    }


@pytest.mark.parametrize("kind,kw,d,L", [
    ("ising", dict(beta_inv=0.12), 2, 4),
    ("dynamical-percolation", dict(alpha=1.0, beta=1.0), 1, 12),
    ("noisy-voter", dict(alpha=1.0, beta=0.5), 1, 12),
])
def test_runs_sharing_stored_paths_equal_runs_on_fresh_tables(kind, kw, d, L):
    spec = make_spec(kind, d=d, **kw)
    g = build_box(d, L)
    rng = random.Random(L)
    for i in range(4):
        seed = derive_seed(401, i)

        def fresh():
            return build_timeline(g, 2.0, 1.0, spec.flip_rate, 6.0, seed)

        c0 = [s for s in range(g.n_sites) if rng.random() < 0.3]
        a = [s for s in range(g.n_sites) if rng.random() < 0.3]
        b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
        P = RunParams(g, 2.0, 1.0, spec, 6.0)
        tl = fresh()
        path = background_path(spec, b0, tl)
        assert background_path(spec, b0[::-1], thin_view(tl, 1.0)) is path
        stored = _every_entry_point(P, c0, b0, a, lambda: tl, 3.5)
        on_fresh = _every_entry_point(P, c0, b0, a, fresh, 3.5)
        for name in on_fresh:
            assert _fields(stored[name]) == _fields(on_fresh[name]), name
        # the path of (spec, b0), and coupled_bounds_cpdp's under and over paths
        assert tl.bg_paths[(spec, frozenset(b0))] is path and len(tl.bg_paths) == 3


def test_runs_read_the_stored_path():
    # a doctored stored path with every arrow closed: a run that reads it
    # cannot infect, while a run on a fresh timeline, sweeping its own, does
    g = build_box(1, 10)
    P = RunParams(g, 3.0, 0.0, DP, 4.0)
    tl = build_timeline(g, 3.0, 0.0, DP.flip_rate, 4.0, seed=5)
    b0 = range(g.n_edges)
    path = background_path(DP, b0, tl)
    path.arrow_open = [False] * path.n_events
    assert evolve(P, (g.origin(),), b0, tl).c_final == {g.origin()}
    fresh = build_timeline(g, 3.0, 0.0, DP.flip_rate, 4.0, seed=5)
    assert len(evolve(P, (g.origin(),), b0, fresh).c_final) > 1


def test_reversed_and_anchored_views_are_not_stored():
    g = build_box(1, 8)
    tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 5.0, seed=7)
    rev = reverse_view(tl, 3.0)
    for view in (rev, reverse_view(rev, 3.0)):
        first = background_path(DP, (), view)
        assert background_path(DP, (), view) is not first
    assert tl.bg_paths == {}


def test_flip_rate_below_the_spec_is_rejected():
    g = build_box(1, 5)
    low = build_timeline(g, 1.0, 1.0, DP.flip_rate / 2, 3.0, seed=1)
    P = RunParams(g, 1.0, 1.0, DP, 3.0)
    for run in (lambda: background_path(DP, (), low),
                lambda: evolve_background(DP, (), low, 2.0),
                lambda: evolve(P, (0,), (), low),
                lambda: decided_times(DP, low),
                lambda: coupled_region(DP, low, 2.0),
                lambda: coupled_bounds_cpdp(P, (0,), (), low)):
        with pytest.raises(ValueError, match="uniformization rate"):
            run()


def test_frozen_timeline_keeps_every_event_index():
    # no flip candidates: runs visit every event, and a frozen environment
    # reads no path; background_path gives one with constant edges
    g = build_box(1, 8)
    tl = build_timeline(g, 2.0, 1.0, 0.0, 4.0, seed=3)
    richardson((g.origin(),), tl, 4.0)
    evolve(RunParams(g, 2.0, 1.0, None, 4.0), (g.origin(),), range(g.n_edges), tl)
    assert tl.bg_paths == {}
    path = background_path(None, range(0, g.n_edges, 2), tl)
    assert path.edge_deltas == [] and path.b_final == frozenset(range(0, g.n_edges, 2))
    assert path.arrow_open == [k == KIND_ARROW and g.dir_edge[j] % 2 == 0
                               for k, j in zip(tl.kinds.tolist(), tl.idx.tolist())]


def test_a_frozen_dual_reads_b0_and_stores_no_path():
    # the dual in a frozen environment reads its initial edges directly, as
    # a frozen forward run does, and equals the dual that reads the flags
    # of a path of constant edges
    g = build_box(1, 8)
    P = RunParams(g, 2.0, 1.0, None, 5.0)
    b0 = range(0, g.n_edges, 2)
    a = (g.origin(), g.origin() + 1)
    tl = build_timeline(g, 2.0, 1.0, 0.0, 5.0, seed=3)
    dual = dual_evolve(a, P, b0, tl, 4.0)
    assert tl.bg_paths == {}
    fresh = build_timeline(g, 2.0, 1.0, 0.0, 5.0, seed=3)
    flags = background_path(None, b0, fresh).arrow_open
    out = engine._run(g, reverse_view(fresh, 4.0), a, frozenset(b0), t_end=4.0,
                      entry_limit=g.half_width, env=flags)
    assert (dual.site_deltas, dual.c_final, dual.tau_ex, dual.boundary_touched) == \
        (out[0].as_list(), out[2], out[3], out[4])
    assert dual.site_deltas


# ---------------------------------------------------------------------------
# runs that read part of a table

def test_a_phase_scan_column_sweeps_one_path_as_far_as_its_cells_read():
    # W2's shape: one phase-scan column, 8 lambda cells thinned from one DP
    # table, stopped at extinction with b0 = ().  They share one stored path,
    # swept through the chunk that holds the furthest cell's stop and no
    # further, so no slab past that chunk's is drawn; each cell equals the
    # same run on a fresh twin table
    g = build_box(1, 60)
    T = 30.0
    spec = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)
    lams = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    short = 0
    for i in range(8):
        seed = derive_seed(2024, i)

        def fresh():
            return build_timeline(g, 4.0, 1.0, 4.0, T, seed)

        def cell(tl, lam):
            return evolve(RunParams(g, lam, 1.0, spec, T, seed), (g.origin(),), (),
                          thin_view(tl, lam), stop_on_extinct=True, want_deltas=False)

        tl, twin, probe = fresh(), fresh(), fresh()
        cells = [cell(tl, lam) for lam in lams]
        assert [_fields(c) for c in cells] == [_fields(cell(fresh(), lam)) for lam in lams]
        assert list(tl.bg_paths) == [(spec, frozenset())]
        swept = tl.bg_paths[(spec, frozenset())].n_events
        furthest = max(twin.count_through(min(c.tau_ex, T)) for c in cells)
        assert swept == min(-(-furthest // _CHUNK) * _CHUNK, twin.count_through(T))
        probe.count_through(twin.times[swept - 1])
        assert tl.n_generated == probe.n_generated
        short += tl.n_generated < twin.n_events
    assert short >= 4


def test_chunked_runs_read_a_stored_path():
    # a run that stops at extinction reads the path's flags chunk by chunk
    g = build_box(1, 30)
    P = RunParams(g, 8.0, 1.0, DP, 20.0)
    b0 = range(g.n_edges)
    late = 0
    for i in range(4):
        seed = derive_seed(707, i)
        tl = build_timeline(g, 8.0, 1.0, DP.flip_rate, 20.0, seed)
        fresh = build_timeline(g, 8.0, 1.0, DP.flip_rate, 20.0, seed)
        background_path(DP, b0, tl)
        traj = evolve(P, (g.origin(),), b0, tl, stop_on_extinct=True)
        assert _fields(traj) == _fields(evolve(P, (g.origin(),), b0, fresh,
                                               stop_on_extinct=True))
        late += traj.tau_ex > tl.times[2 * _CHUNK]
    assert late > 0


def test_runs_in_any_order_match_fresh_tables():
    # one table read short, then whole, then by a path, a dual and a
    # reversal: each result equals the same call on a fresh table
    spec = DP
    g = build_box(1, 40)
    T, t_star = 30.0, 12.0
    for i in range(4):
        seed = derive_seed(606, i)

        def fresh():
            return build_timeline(g, 2.0, 1.0, spec.flip_rate, T, seed)

        P = RunParams(g, 2.0, 1.0, spec, T)
        c0, b0, a = (g.origin(),), range(0, g.n_edges, 2), (g.origin() + 3,)
        calls = [
            lambda tl: evolve(replace(P, lam=1.2), c0, b0, thin_view(tl, 1.2),
                              stop_on_extinct=True),
            lambda tl: evolve(P, c0, b0, tl),
            lambda tl: tuple(background_path(spec, b0, tl).arrow_open),
            lambda tl: dual_evolve(a, P, b0, tl, t_star),
            lambda tl: evolve(RunParams(g, 2.0, 1.0, spec, t_star), c0, b0,
                              reverse_view(tl, t_star), stop_on_extinct=True),
        ]
        tl = fresh()
        for call in calls:
            assert _fields(call(tl)) == _fields(call(fresh()))


def test_shared_path_from_another_feed_is_rejected():
    g = build_box(1, 6)
    tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 4.0, seed=11)
    twin = build_timeline(g, 2.0, 1.0, DP.flip_rate, 4.0, seed=11)
    P = RunParams(g, 2.0, 1.0, DP, 4.0)
    forward = background_path(DP, (), tl)
    reversed_path = background_path(DP, (), reverse_view(tl, tl.t_max))
    for feed, path in ((reverse_view(tl, tl.t_max), forward),
                       (tl, reversed_path),
                       (reverse_view(tl, 3.0), reversed_path),
                       (reverse_view(reverse_view(tl, 3.0), 3.0), forward),
                       (twin, forward)):
        with pytest.raises(ValueError, match="different feed"):
            evolve(RunParams(g, 2.0, 1.0, DP, feed.t_max), (0,), (), feed,
                   shared_bg=path)
    # thinning keeps every event in place, so a thinned view reads the path
    half = RunParams(g, 1.0, 1.0, DP, 4.0)
    assert _fields(evolve(half, (0,), (), thin_view(tl, 1.0), shared_bg=forward)) == \
        _fields(evolve(half, (0,), (), thin_view(twin, 1.0)))
    rv = reverse_view(tl, tl.t_max)
    assert _fields(evolve(P, (0,), (), rv, shared_bg=reversed_path)) == \
        _fields(evolve(P, (0,), (), rv))


# ---------------------------------------------------------------------------
# the lazy generation under the runs

def test_an_early_death_sorts_part_of_the_table():
    # W1-shaped replicas: those that die early draw and sort a prefix of
    # the slabs and equal the same run on a fully generated twin
    g = build_box(1, 200)
    P = RunParams(g, 1.25, 1.0, None, 100.0)
    expected = (1.5 * 2 * g.n_edges + g.n_sites) * 100.0
    early = 0
    for i in range(8):
        seed = derive_seed(808, i)
        tl = build_timeline(g, 1.5, 1.0, 0.0, 100.0, seed)
        twin = build_timeline(g, 1.5, 1.0, 0.0, 100.0, seed)
        twin.times
        runs = [evolve(P, (g.origin(),), range(g.n_edges), thin_view(t, 1.25),
                       stop_on_extinct=True, want_deltas=False) for t in (tl, twin)]
        assert _fields(runs[0]) == _fields(runs[1])
        if runs[0].tau_ex < 10.0:
            early += 1
            assert tl.n_generated < expected / 4
    assert early > 0


def test_an_early_death_draws_at_most_two_slabs():
    # a W1-shaped replica that dies before t = 1 draws slab 0, and slab 1
    # at most; a full run on the same table then reads on through every
    # slab and equals the run on a twin generated whole first
    g = build_box(1, 200)
    P = RunParams(g, 1.25, 1.0, None, 100.0)
    early = 0
    for i in range(40):
        seed = derive_seed(818, i)
        tl = build_timeline(g, 1.5, 1.0, 0.0, 100.0, seed)
        run = evolve(P, (g.origin(),), range(g.n_edges), thin_view(tl, 1.25),
                     stop_on_extinct=True, want_deltas=False)
        if run.tau_ex >= 1.0:
            continue
        early += 1
        twin = build_timeline(g, 1.5, 1.0, 0.0, 100.0, seed)
        twin.times
        # slab 0 is [0, T/32) and slab 1 [T/32, T/16)
        assert tl.n_generated <= twin.count_through(100.0 / 16)
        assert _fields(evolve(P, (g.origin(),), range(g.n_edges), tl)) == \
            _fields(evolve(P, (g.origin(),), range(g.n_edges), twin))
        assert tl.n_generated == twin.n_events
    assert early >= 5


def test_a_chunked_run_cuts_its_horizon_inside_a_chunk():
    # a horizon short of t_max is found in the chunk that holds it: a
    # survivor equals the run that reads through the horizon in one chunk
    g = build_box(1, 100)
    P = RunParams(g, 3.0, 1.0, None, 7.3)
    alive = 0
    for i in range(6):
        seed = derive_seed(909, i)
        tl = build_timeline(g, 3.0, 1.0, 0.0, 30.0, seed)
        fresh = build_timeline(g, 3.0, 1.0, 0.0, 30.0, seed)
        traj = evolve(P, (g.origin(),), range(g.n_edges), tl, stop_on_extinct=True)
        if traj.tau_ex == math.inf:
            alive += 1
            assert _fields(traj) == _fields(evolve(P, (g.origin(),), range(g.n_edges), fresh))
            # no slab past the one that holds the horizon, [3.75, 7.5), was drawn
            assert tl.n_generated == fresh.count_through(7.5)
        assert tl.n_generated < fresh.n_events
    assert alive > 0


# ---------------------------------------------------------------------------
# a run means its parameters

def test_a_run_on_a_timeline_is_thinned_to_its_rates():
    g = build_box(1, 30)
    P = RunParams(g, 0.5, 0.6, None, 10.0)
    b0 = range(g.n_edges)
    c0 = range(10, 21)
    differs = 0
    for i in range(20):
        seed = derive_seed(313, i)
        tl = build_timeline(g, 4.0, 1.0, 0.0, 10.0, seed)
        view = thin_view(tl, 0.5, 0.6)
        got = evolve(P, c0, b0, tl)
        assert _fields(got) == _fields(evolve(P, c0, b0, view))
        assert _fields(dual_evolve(c0, P, b0, tl, 6.0)) == \
            _fields(dual_evolve(c0, P, b0, view, 6.0))
        differs += _fields(got) != _fields(evolve(replace(P, lam=4.0, r=1.0), c0, b0, tl))
    assert differs > 10


def test_rates_the_feed_cannot_give_are_rejected():
    g = build_box(1, 8)
    tl = build_timeline(g, 4.0, 1.0, 0.0, 5.0, seed=2)
    c0, b0 = (g.origin(),), range(g.n_edges)
    with pytest.raises(ValueError, match="cannot thin to lam"):
        evolve(RunParams(g, 9.0, 1.0, None, 5.0), c0, b0, tl)
    with pytest.raises(ValueError, match="cannot thin to r"):
        evolve_truncated(2, RunParams(g, 1.0, 2.0, None, 5.0), c0, b0, tl)
    with pytest.raises(ValueError, match="cannot thin to lam"):
        dual_evolve(c0, RunParams(g, 9.0, 1.0, None, 5.0), b0, tl, 3.0)
    for run in (lambda P, v: evolve(P, c0, b0, v),
                lambda P, v: evolve_released(P, c0, b0, v, 1.0),
                lambda P, v: delayed_variant(SUPPRESS_ARROWS, 1.0, P, c0, b0, v),
                lambda P, v: dual_evolve(c0, P, b0, v, 3.0)):
        with pytest.raises(ValueError, match="differ from the run's"):
            run(RunParams(g, 0.5, 1.0, None, 5.0), thin_view(tl, 1.0))
        with pytest.raises(ValueError, match="differ from the run's"):
            run(RunParams(g, 1.0, 1.0, None, 5.0), thin_view(tl, 1.0, 0.5))


def test_a_spec_for_another_dimension_is_rejected():
    g1, g2 = build_box(1, 4), build_box(2, 2)
    ising2 = make_spec("ising", beta_inv=0.1, d=2)
    dp1 = make_spec("dynamical-percolation", alpha=1.0, beta=1.0, d=1)
    for g, spec in ((g1, ising2), (g2, dp1)):
        tl = build_timeline(g, 1.0, 1.0, 3.0, 2.0, seed=1)
        with pytest.raises(ValueError, match="background spec for d="):
            evolve(RunParams(g, 1.0, 1.0, spec, 2.0), (0,), (), tl)
        with pytest.raises(ValueError, match="background spec for d="):
            background_path(spec, (), tl)
        with pytest.raises(ValueError, match="background spec for d="):
            decided_times(spec, tl)


def _dp_table_and_params():
    g = build_box(1, 8)
    return g, build_timeline(g, 2.0, 1.0, DP.flip_rate, 5.0, seed=3), RunParams(g, 2.0, 1.0, DP, 5.0)


@pytest.mark.parametrize("call", [
    lambda g, tl, P: evolve_released(P, (g.origin(),), (), tl, math.nan),
    lambda g, tl, P: evolve_released(P, (g.origin(),), (), tl, 99.0),
    lambda g, tl, P: delayed_variant(SUPPRESS_ARROWS, math.nan, P, (g.origin(),), (), tl),
    lambda g, tl, P: delayed_variant("suppress-recoveries-and-background", math.nan, P,
                                     (g.origin(),), (), tl),
    lambda g, tl, P: richardson((g.origin(),), tl, math.nan),
    lambda g, tl, P: dual_evolve((g.origin(),), P, (), tl, math.nan),
    lambda g, tl, P: reverse_view(tl, math.nan),
    lambda g, tl, P: evolve(P, (g.origin(),), (), tl).sites_at(math.nan),
    lambda g, tl, P: evolve(P, (g.origin(),), (), tl).sites_at(-1.0),
    lambda g, tl, P: evolve(P, (g.origin(),), (), tl).edges_at(math.nan),
    lambda g, tl, P: evolve(P, (g.origin(),), (), tl).edges_at(-1.0),
    lambda g, tl, P: evolve_background(DP, (), tl, math.nan),
    lambda g, tl, P: evolve_background(DP, (), tl, -1.0),
    lambda g, tl, P: coupled_region(DP, tl, math.nan),
    lambda g, tl, P: coupled_region(DP, tl, -1.0),
    lambda g, tl, P: phi_set(DP, tl, math.nan),
], ids=["release-nan", "release-past-horizon", "delay-lo-nan", "delay-hi-nan",
        "richardson-nan", "dual-nan", "reverse-nan", "sites-at-nan", "sites-at-negative",
        "edges-at-nan", "edges-at-negative", "background-nan", "background-negative",
        "region-nan", "region-negative", "phi-nan"])
def test_times_outside_the_window_are_rejected(call):
    # a NaN time fails every comparison, so each range check must be
    # written to fail on it rather than to pass
    with pytest.raises(ValueError, match="outside|beyond"):
        call(*_dp_table_and_params())


def test_the_dual_and_reversed_runs_read_the_table_in_place(monkeypatch):
    # W3-shaped tables (2-d, L=12, T=10, ising): the dual and a reversed
    # frozen run read the base table from the anchor back and build no
    # reversed copy of it, which for such a table is megabytes of lists
    g = build_box(2, 12)
    spec = make_spec("ising", beta_inv=0.12, d=2)
    rng = random.Random(12)
    b0 = [e for e in range(g.n_edges) if rng.random() < 0.5]
    a = [s for s in range(g.n_sites) if rng.random() < 0.2]
    P = RunParams(g, 0.7, 1.0, spec, 10.0)
    frozen = RunParams(g, 0.7, 1.0, None, 7.0)

    def dual(tl):
        return dual_evolve(a, P, b0, tl, 10.0)

    def reversed_frozen(tl):
        return evolve(frozen, a, b0, reverse_view(tl, 7.0))

    for i in range(2):
        seed = derive_seed(1212, i)
        for run, q in ((dual, spec.flip_rate), (reversed_frozen, 0.0)):
            want = run(build_timeline(g, 0.7, 1.0, q, 10.0, seed))
            with monkeypatch.context() as m:
                m.setattr(graphical, "event_feed", _no_reversed_copy)
                got = run(build_timeline(g, 0.7, 1.0, q, 10.0, seed))
            assert _fields(got) == _fields(want)
            assert len(got.site_deltas) > 0


def _no_reversed_copy(tl):
    raise AssertionError("event_feed called")


@pytest.mark.parametrize("d,L", [(1, 1), (1, 7), (2, 1), (2, 4), (3, 2)])
def test_a_path_starts_from_its_open_neighbour_counts(d, L):
    # the counts are made with numpy from the kernel's line graph; the loop
    # they replaced is the reference
    g = build_box(d, L)
    rng = random.Random(d * 100 + L)
    for _ in range(10):
        b0 = frozenset(rng.sample(range(g.n_edges), rng.randint(0, g.n_edges)))
        path = engine.BackgroundPath(b0, (None, None, False), None, g)
        edges, counts = bytearray(g.n_edges), bytearray(g.n_edges)
        for e in b0:
            edges[e] = 1
            for a in g.line_nbrs[e]:
                counts[a] += 1
        assert (path._edges, path._open_nbrs) == (edges, counts)
        assert type(path._open_nbrs) is bytearray


def test_a_levels_sweep_takes_cells_that_differ_in_lam_only():
    g = build_box(1, 4)
    tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 3.0, seed=5)
    P = RunParams(g, 1.0, 1.0, DP, 3.0)
    c0 = (g.origin(),)
    assert len(engine.evolve_levels([P, replace(P, lam=2.0)], c0, (), tl)) == 2
    for cells in ([], [P, replace(P, r=0.5)], [P, replace(P, horizon=2.0)],
                  [P, replace(P, spec=None)], [P, replace(P, graph=build_box(1, 4))]):
        with pytest.raises(ValueError):
            engine.evolve_levels(cells, c0, (), tl)
    with pytest.raises(ValueError, match="cannot thin"):
        engine.evolve_levels([replace(P, lam=2.5)], c0, (), tl)
    with pytest.raises(TypeError):
        engine.evolve_levels([P], c0, (), thin_view(tl, 1.0))
    with pytest.raises(ValueError, match="another size"):
        engine.evolve_levels([RunParams(build_box(1, 3), 1.0, 1.0, DP, 3.0)], c0, (), tl)


def test_a_scan_takes_independent_edge_columns_of_one_horizon():
    g = build_box(1, 4)
    tl = build_timeline(g, 2.0, 1.0, DP.flip_rate, 3.0, seed=5)
    P = RunParams(g, 1.0, 1.0, DP, 3.0)
    c0 = (g.origin(),)
    other = make_spec("dynamical-percolation", alpha=DP.alpha / 2, beta=DP.beta, d=1)
    columns = [([P, replace(P, lam=2.0)], ()), ([replace(P, r=0.5, spec=other)], range(3))]
    assert engine.evolve_scan(columns, c0, tl) == [
        engine.evolve_levels(cells, c0, b0, build_timeline(g, 2.0, 1.0, DP.flip_rate, 3.0,
                                                           seed=5))
        for cells, b0 in columns]
    assert engine.evolve_scan(columns, (), tl) == [[(0.0, False)] * 2, [(0.0, False)]]
    voter = make_spec("noisy-voter", alpha=0.5, beta=0.2, d=1)
    for bad in ([], [([], ())], [([P, replace(P, r=0.5)], ())],
                [([P], ()), ([replace(P, horizon=2.0)], ())],
                [([P], ()), ([replace(P, graph=build_box(1, 4))], ())],
                [([replace(P, spec=None)], ())],       # frozen, on a table with flips
                [([replace(P, spec=voter)], ())]):     # rates that read the neighbours
        with pytest.raises(ValueError):
            engine.evolve_scan(bad, c0, tl)
    with pytest.raises(ValueError, match="cannot thin"):
        engine.evolve_scan([([replace(P, lam=2.5)], ())], c0, tl)
    with pytest.raises(TypeError):
        engine.evolve_scan([([P], ())], c0, thin_view(tl, 1.0))
    with pytest.raises(ValueError, match="another size"):
        engine.evolve_scan([([RunParams(build_box(1, 3), 1.0, 1.0, DP, 3.0)], ())], c0, tl)
