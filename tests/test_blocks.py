import math
import random
from itertools import product

import numpy as np
import pytest

from contactenv import (build_box, build_timeline, estimate_block_event, evolve_truncated,
                        find_block_scale, make_spec, oriented_percolation_run,
                        percolation_survival)
from contactenv.blocks import _cube_event_occurred
from contactenv.engine import RunParams

DP = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)


def params(g, lam, r, T):
    return RunParams(g, lam, r, DP, T)


class TestBlockEvents:
    def test_geometry_rejection_names_inequality(self):
        g = build_box(1, 5)
        with pytest.raises(ValueError, match="half-width 5 < required 12"):
            estimate_block_event("A3", 1, 5, 2.0, params(g, 1.0, 1.0, 2.0),
                                 reps=2, seed=0)

    def test_requires_dp_background(self):
        g = build_box(1, 10)
        nv = make_spec("noisy-voter", alpha=1.0, beta=1.0)
        with pytest.raises(ValueError, match="independent-edge"):
            estimate_block_event("A1", 1, 2, 1.0, RunParams(g, 1.0, 1.0, nv, 1.0),
                                 reps=2, seed=0)

    def test_unknown_event(self):
        g = build_box(1, 10)
        with pytest.raises(ValueError, match="A1, A2, A3"):
            estimate_block_event("A9", 1, 2, 1.0, params(g, 1.0, 1.0, 1.0),
                                 reps=2, seed=0)

    def test_lam_zero_closed_form(self):
        # no arrows: only x=0 is admissible and no recovery may strike the cube
        n, L, T, r = 1, 2, 1.0, 1.0
        g = build_box(1, L + n)
        est = estimate_block_event("A1", n, L, T, params(g, 0.0, r, T),
                                   reps=3000, seed=42)
        expect = math.exp(-r * (T + 1) * (2 * n + 1))
        sigma = math.sqrt(expect * (1 - expect) / 3000)
        assert abs(est.p_hat - expect) < 3 * sigma

    def test_lam_zero_closed_form_d2(self):
        dp2 = make_spec("dynamical-percolation", alpha=1.0, beta=1.0, d=2)
        g = build_box(2, 3)
        est = estimate_block_event("A1", 1, 2, 1.0,
                                   RunParams(g, 0.0, 0.2, dp2, 1.0),
                                   reps=3000, seed=5)
        expect = math.exp(-0.2 * 2 * 9)
        sigma = math.sqrt(expect * (1 - expect) / 3000)
        assert abs(est.p_hat - expect) < 3 * sigma

    def test_huge_recovery_rate_kills(self):
        g = build_box(1, 4)
        est = estimate_block_event("A1", 1, 2, 1.0, params(g, 1.0, 1000.0, 1.0),
                                   reps=60, seed=1)
        assert est.p_hat == 0.0

    def test_a1_increases_with_box_when_supercritical(self):
        vals = []
        for L in (3, 6):
            g = build_box(1, L + 1)
            est = estimate_block_event("A1", 1, L, 4.0,
                                       params(g, 6.0, 0.5, 4.0), reps=150, seed=7)
            vals.append(est.p_hat)
        assert vals[0] <= vals[1] + 0.05

    def test_a1_monotone_in_lam_and_alpha_under_shared_seeds(self):
        g = build_box(1, 4)
        vals = []
        for lam in (2.0, 4.0, 6.0):
            est = estimate_block_event("A1", 1, 2, 2.0,
                                       RunParams(g, lam, 1.0, DP, 2.0),
                                       reps=120, seed=13, lam_ceiling=6.0)
            vals.append(est.p_hat)
        assert vals[0] <= vals[1] <= vals[2]
        avals = []
        for alpha in (0.5, 1.0, 2.0):
            spec = make_spec("dynamical-percolation", alpha=alpha, beta=1.0)
            est = estimate_block_event("A1", 1, 2, 2.0,
                                       RunParams(g, 4.0, 1.0, spec, 2.0),
                                       reps=120, seed=13, q_ceiling=3.0)
            avals.append(est.p_hat)
        assert avals[0] <= avals[1] <= avals[2]

    def test_a2_a3_run(self):
        g = build_box(1, 12)
        e2 = estimate_block_event("A2", 1, 4, 3.0, params(g, 6.0, 0.5, 3.0),
                                  reps=100, seed=9)
        e3 = estimate_block_event("A3", 1, 4, 3.0, params(g, 6.0, 0.5, 3.0),
                                  reps=100, seed=9)
        assert 0 <= e2.p_hat <= 1 and 0 <= e3.p_hat <= 1
        assert e2.p_hat > 0 and e3.p_hat > 0


def cube_event_by_loop(traj, g, anchors, n, window, at_time=None):
    """_cube_event_occurred as a walk over the site deltas with a counter
    per cube, returning at the first cube to fill: the reference for its
    numpy count."""
    cube_size = (2 * n + 1) ** g.dimension
    cubes = [0] * len(anchors)
    site_to_cubes = {}
    for a_idx, x in enumerate(anchors):
        for s in g.cube_sites(x, n):
            site_to_cubes.setdefault(int(s), []).append(a_idx)
    for s in traj.c0:
        for a_idx in site_to_cubes.get(s, ()):
            cubes[a_idx] += 1
    if at_time is not None:
        for t, j, sign in traj.site_deltas:
            if t > at_time:
                break
            for a_idx in site_to_cubes.get(j, ()):
                cubes[a_idx] += sign
        return cube_size in cubes
    w_lo, w_hi = window
    entered = False
    for t, j, sign in traj.site_deltas:
        if not entered and t >= w_lo:
            entered = True
            if cube_size in cubes:
                return True
        if t >= w_hi:
            return False
        for a_idx in site_to_cubes.get(j, ()):
            cubes[a_idx] += sign
            if sign > 0 and entered and cubes[a_idx] == cube_size:
                return True
    return not entered and cube_size in cubes


@pytest.mark.parametrize("d,L,n", [(1, 6, 1), (1, 6, 2), (2, 3, 1)])
def test_cube_events_match_the_delta_walk(d, L, n):
    # windows and times drawn from the deltas' own times, so ties at either
    # end of a window are exercised
    rng = random.Random(d * 100 + n)
    g = build_box(d, L)
    anchors = list(product(range(-L + n, L - n + 1), repeat=d))
    cubes = np.array([g.cube_sites(x, n) for x in anchors])
    dp = make_spec("dynamical-percolation", alpha=1.0, beta=1.0, d=d)
    T = 3.0
    for seed in range(40):
        tl = build_timeline(g, 2.5, 1.0, dp.flip_rate, T, seed)
        c0 = g.cube_sites((0,) * d, n)
        traj = evolve_truncated(L - 1, RunParams(g, 2.5, 1.0, dp, T), c0, (), tl)
        times = traj.site_arrays.t.tolist() or [1.0]
        cases = [((0.5, 2.0), None), (None, 1.0), (None, T), ((1.0, T), None)]
        for _ in range(6):
            a, b = sorted(rng.choice(times) for _ in range(2))
            cases += [((a, b), None), ((a, T), None), ((0.0, b), None), (None, a)]
        for window, at_time in cases:
            assert _cube_event_occurred(traj, cubes, window, at_time) == \
                cube_event_by_loop(traj, g, anchors, n, window, at_time), (seed, window, at_time)


class TestScaleSearch:
    def test_lenient_target_succeeds_fast(self):
        g = build_box(1, 30)
        res = find_block_scale(params(g, 6.0, 0.5, 1.0), eps=0.97,
                               reps=60, seed=3, max_L=8, max_T=8.0)
        assert res.found

    def test_subcritical_fails_with_best_effort(self):
        g = build_box(1, 30)
        res = find_block_scale(params(g, 0.2, 2.0, 1.0), eps=0.2,
                               reps=40, seed=3, max_L=8, max_T=8.0)
        assert not res.found
        assert res.est_a1.p_hat < 0.8

    def test_deterministic(self):
        g = build_box(1, 30)
        a = find_block_scale(params(g, 6.0, 0.5, 1.0), eps=0.9, reps=40, seed=5,
                             max_L=8, max_T=8.0)
        b = find_block_scale(params(g, 6.0, 0.5, 1.0), eps=0.9, reps=40, seed=5,
                             max_L=8, max_T=8.0)
        assert (a.n, a.L, a.T, a.found) == (b.n, b.L, b.T, b.found)


class TestOrientedPercolation:
    def test_q_one_grows(self):
        path = oriented_percolation_run(1.0, {0}, 30, seed=1)
        assert len(path[-1].open_sites) == 31

    def test_q_zero_dies_immediately(self):
        path = oriented_percolation_run(0.0, {0}, 10, seed=1)
        assert path[1].open_sites == frozenset()

    def test_parity_enforced(self):
        with pytest.raises(ValueError, match="even"):
            oriented_percolation_run(0.5, {1}, 5, seed=0)
        path = oriented_percolation_run(0.9, {0}, 20, seed=3)
        for state in path:
            assert all((j + state.level) % 2 == 0 for j in state.open_sites)

    def test_neighbour_rule(self):
        path = oriented_percolation_run(1.0, {0}, 3, seed=2)
        assert path[1].open_sites == frozenset({-1, 1})
        assert path[2].open_sites == frozenset({-2, 0, 2})

    def test_monotone_in_q_shared_uniforms(self):
        for seed in range(30):
            lo = oriented_percolation_run(0.4, {0}, 25, seed=seed)
            hi = oriented_percolation_run(0.8, {0}, 25, seed=seed)
            for a, b in zip(lo, hi):
                assert a.open_sites <= b.open_sites

    def test_survival_estimates(self):
        est = percolation_survival(0.9, reps=300, k_max=60, seed=11)
        assert est.p_hat > 0.5
        low = percolation_survival(0.3, reps=300, k_max=60, seed=11)
        assert low.p_hat < est.p_hat
