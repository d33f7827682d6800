import math

import pytest
from hypothesis import example, given, settings, strategies as st

from contactenv import (build_box, estimate_critical_lambda, estimate_survival,
                        condition_block_curve, coupling_speed_report,
                        growth_gap, hitting_bound_report, local_survival_proxy,
                        make_spec, phase_scan, self_duality_check, solve_c1,
                        wilson_bounds, wilson_half_width)
from contactenv.analysis import (_estimate, decay_verdict, decay_window,
                                 dp_survival_exponent)
from contactenv.engine import RunParams

DP = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)


def oracle_c1(lam, degree, rho, tol=1e-12):
    # plain interval halving on the gap function, independent of the library path
    f = lambda c: c * lam - 1.0 - math.log(c * lam * degree) - rho
    hi = 1.0 / lam
    if f(hi) >= 0:
        return hi
    lo = hi / 2
    while f(lo) <= 0:
        lo /= 2
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestGrowthConstant:
    def test_degree_one_identity(self):
        for lam in (0.3, 1.0, 4.0):
            assert abs(solve_c1(lam, 1, 0.0) - 1.0 / lam) <= 1e-10

    def test_against_oracle(self):
        for lam, deg, rho in ((1.0, 2, 0.0), (2.0, 4, 0.0), (1.0, 2, 0.5),
                              (0.7, 6, 1.2), (8.0, 2, 0.0)):
            assert solve_c1(lam, deg, rho) == pytest.approx(oracle_c1(lam, deg, rho), abs=1e-9)

    def test_known_value(self):
        # root of c - 1 - log(2c) = 0
        assert solve_c1(1.0, 2, 0.0) == pytest.approx(0.231961, abs=1e-5)

    def test_residual_tiny(self):
        for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
            for deg in (2, 4, 6):
                c = solve_c1(lam, deg, 0.0)
                assert abs(growth_gap(c, lam, deg, 0.0)) <= 1e-10
                assert 0 < c <= 1.0 / lam

    def test_strictly_decreasing_in_lam(self):
        for deg in (2, 4, 6):
            vals = [solve_c1(lam, deg, 0.0) for lam in (0.5, 1.0, 2.0, 4.0, 8.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_extremes(self):
        assert solve_c1(1e-3, 4, 0.0) > 100.0
        assert solve_c1(1e3, 4, 0.0) < 1e-3

    @given(st.floats(0.1, 10.0), st.integers(1, 8), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    # degree 1 near rho = 0, where the root is close to a double root
    @example(lam=1.0, deg=1, rho=2.220446049250313e-16)
    @example(lam=0.1, deg=1, rho=1e-10)
    def test_root_property(self, lam, deg, rho):
        c = solve_c1(lam, deg, rho)
        assert abs(growth_gap(c, lam, deg, rho)) <= 1e-9
        assert 0 < c <= 1.0 / lam + 1e-12


class TestWilson:
    @given(st.integers(1, 500), st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_bounds_sane(self, n, k):
        k = min(k, n)
        lo, hi = wilson_bounds(k, n)
        assert 0 <= lo <= k / n <= hi <= 1
        assert wilson_half_width(k, n) == pytest.approx((hi - lo) / 2)

    def test_estimate_consistency(self):
        est = _estimate(7, 50, seed=3)
        assert est.half_width == pytest.approx(wilson_half_width(7, 50))


class TestSurvival:
    def test_empty_start(self):
        g = build_box(1, 5)
        est = estimate_survival(RunParams(g, 1.0, 1.0, DP, 3.0, 1), (), reps=50)
        assert est.p_hat == 0.0

    def test_rejects_zero_reps(self):
        g = build_box(1, 5)
        with pytest.raises(ValueError):
            estimate_survival(RunParams(g, 1.0, 1.0, DP, 3.0, 1), (g.origin(),), reps=0)

    def test_pure_death(self):
        g = build_box(1, 3)
        est = estimate_survival(RunParams(g, 0.0, 1.0, None, 5.0, 7),
                                (g.origin(),), reps=2500)
        expect = math.exp(-5.0)
        assert abs(est.p_hat - expect) < 3 * est.sigma() + 3 * math.sqrt(expect / 2500)
        assert est.censored_frac == est.p_hat

    def test_monotone_in_lam_and_r_pathwise(self):
        g = build_box(1, 40)
        vals = []
        for lam in (0.8, 1.2, 1.6, 2.0):
            est = estimate_survival(RunParams(g, lam, 1.0, None, 15.0, 5),
                                    (g.origin(),), reps=120, lam_ceiling=2.0)
            vals.append(est.p_hat)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        rvals = []
        for r in (0.5, 1.0, 1.5):
            est = estimate_survival(RunParams(g, 1.5, r, None, 15.0, 5),
                                    (g.origin(),), reps=120, r_ceiling=1.5)
            rvals.append(est.p_hat)
        assert all(a >= b for a, b in zip(rvals, rvals[1:]))

    def test_deterministic(self):
        g = build_box(1, 15)
        a = estimate_survival(RunParams(g, 1.5, 1.0, DP, 8.0, 11), (g.origin(),), reps=60)
        b = estimate_survival(RunParams(g, 1.5, 1.0, DP, 8.0, 11), (g.origin(),), reps=60)
        assert a == b

    def test_stationary_start_requires_dp(self):
        from contactenv import UnsupportedOperationError
        g = build_box(1, 10)
        nv = make_spec("noisy-voter", alpha=1.0, beta=1.0)
        with pytest.raises(UnsupportedOperationError):
            estimate_survival(RunParams(g, 1.0, 1.0, nv, 3.0, 1), (g.origin(),),
                              start_mode="stationary-dp", reps=5)

    def test_burn_in_runs(self):
        g = build_box(1, 15)
        nv = make_spec("noisy-voter", alpha=1.0, beta=1.0)
        est = estimate_survival(RunParams(g, 1.5, 1.0, nv, 5.0, 13), (g.origin(),),
                                start_mode="burn-in", reps=40)
        assert "burn-in" in est.note
        assert 0 <= est.p_hat <= 1


def test_reach_bound_halfwidth():
    from contactenv import reach_bound_halfwidth
    from contactenv.engine import RunParams
    L = reach_bound_halfwidth(1.0, 5.0, d=1, tol=1e-3)
    assert L >= 5.0 / (solve_c1(1.0, 2, 0.0) / 2)
    # empirical check: boundary touch is genuinely rare at the suggested width
    g = build_box(1, L)
    touched = 0
    for i in range(200):
        from contactenv import build_timeline, richardson
        from contactenv.graphical import derive_seed
        tl = build_timeline(g, 1.0, 0.0, 0.0, 5.0, derive_seed(77, i))
        touched += richardson((g.origin(),), tl, 5.0).boundary_touched
    assert touched == 0


class TestCritical:
    def test_degenerate_low_recovery_pushes_bracket_down(self):
        # with almost no recoveries survival holds at any positive rate, so
        # certified supercritical probes stack up at ever smaller rates
        bracket = estimate_critical_lambda(1e-3, None, T=15.0, L=30, tol=0.5,
                                           reps_per_probe=40, seed=9,
                                           max_probes=12)
        assert bracket.lam_hi <= 0.5
        assert not bracket.converged  # no certified subcritical rate exists here

    def test_bracket_on_fast_toy(self):
        # tiny scale; transition detectable but rough
        bracket = estimate_critical_lambda(
            1.0, None, T=25.0, L=40, tol=1.0, reps_per_probe=80, seed=3)
        assert bracket.lam_lo < bracket.lam_hi
        assert bracket.probes
        lo_probe = [e for lam, e, v in bracket.probes if lam == bracket.lam_lo]
        if lo_probe:
            assert wilson_bounds(round(lo_probe[0].p_hat * 80), 80)[0] < 0.05
        # the certificate behind lam_lo: survival decays faster than at criticality
        lo_window = [w for (lam, e, v), w in zip(bracket.probes, bracket.windows)
                     if lam == bracket.lam_lo]
        _, _, k, n = lo_window[0]
        assert wilson_bounds(k, n)[1] < 2.0 ** -dp_survival_exponent(1)

    def test_decay_verdict_on_fixed_counts(self):
        # classical-limit counts at T=100 over [50, 100]: 1-d critical value 0.895
        assert decay_verdict(64, 103, 1) == "subcritical"
        assert decay_verdict(163, 181, 1) == "inconclusive"
        assert decay_verdict(243, 249, 1) == "supercritical"
        # the same counts against the steeper 2-d decay
        assert decay_verdict(163, 181, 2) == "supercritical"

    def test_decay_window_choice(self):
        T = 100.0
        ext = [math.inf] * 64 + [75.0] * 39 + [10.0] * 397
        assert decay_window(ext, T) == (50.0, 100.0, 64, 103)
        # all dead by T/2: the latest dyadic window that starts with a live replica
        ext = [30.0] * 3 + [20.0] * 5 + [1.0] * 492
        assert decay_window(ext, T) == (25.0, 50.0, 0, 3)
        assert decay_verdict(*decay_window(ext, T)[2:], 1) == "subcritical"
        # no deaths
        window = decay_window([math.inf] * 500, T)
        assert window == (50.0, 100.0, 500, 500)
        assert decay_verdict(*window[2:], 1) == "supercritical"
        with pytest.raises(ValueError):
            decay_window([0.0, 0.0], T)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            estimate_critical_lambda(1.0, None, T=5.0, L=10, tol=0.0,
                                     reps_per_probe=5, seed=1)


class TestHittingBound:
    def test_rows_and_bound(self):
        rows = hitting_bound_report(1.0, 0.1, [5, 10], reps=400, seed=9)
        g0 = growth_gap(0.1, 1.0, 2, 0.0)
        assert g0 == pytest.approx(0.1 - 1.0 - math.log(0.2), abs=1e-12)
        assert rows[0].bound == pytest.approx(math.exp(-5 * g0) / (1 - math.exp(-g0)))
        assert all(row.within for row in rows)
        emp = [row.empirical for row in rows]
        assert emp[0] >= emp[1]  # farther targets are harder to reach early

    def test_rejects_vacuous_c(self):
        with pytest.raises(ValueError, match="growth constant"):
            hitting_bound_report(1.0, 0.5, [5], reps=10, seed=1)


def test_coupling_speed_report():
    rows = coupling_speed_report(DP, [0.0, 1.0], reps=600, seed=4)
    assert rows[0]["empirical"] == 1.0
    r1 = rows[1]
    assert abs(r1["empirical"] - r1["exact"]) < 3 * math.sqrt(0.1353 * 0.8647 / 600) + 1e-9
    # no closed form outside independent dynamics: decay reported, not asserted
    nv = make_spec("noisy-voter", alpha=1.0, beta=1.0)
    rows_nv = coupling_speed_report(nv, [0.5, 2.0], reps=150, seed=4)
    assert all(r["exact"] is None for r in rows_nv)
    assert rows_nv[0]["empirical"] >= rows_nv[1]["empirical"]


def test_self_duality_symmetric_case():
    est1, est2, z = self_duality_check(2.0, 1.0, 1.0, 1.0, [(0,)], [(0,)],
                                       t=2.0, reps=300, seed=6, L=10)
    assert abs(z) < 4.0


def test_condition_block_curve_basics():
    g = build_box(1, 30)
    P = RunParams(g, 0.5, 1.0, DP, 10.0, 0)
    curve = condition_block_curve(P, 2, [0.0, 4.0, 10.0], reps=150, seed=8)
    assert curve[0].p_hat == 1.0
    assert curve[0].p_hat >= curve[1].p_hat >= curve[2].p_hat  # subcritical decay


def test_condition_block_curve_monotone_in_n():
    g = build_box(1, 60)
    P = RunParams(g, 4.0, 1.0, DP, 8.0, 0)
    last = None
    for n in (1, 2, 4):
        curve = condition_block_curve(P, n, [8.0], reps=80, seed=12)
        if last is not None:
            assert curve[0].p_hat >= last  # coupled replicas: exact monotone
        last = curve[0].p_hat


def test_local_survival_proxy():
    g = build_box(1, 10)
    empty = local_survival_proxy(RunParams(g, 1.0, 1.0, DP, 6.0, 0), g.origin(), 6.0, 30, 5)
    # C0 is the probed site itself; with lam=0 the proxy is the half-horizon death clock
    g2 = build_box(1, 3)
    res = local_survival_proxy(RunParams(g2, 0.0, 1.0, None, 8.0, 0), g2.origin(),
                               8.0, 2500, 5)
    expect = math.exp(-4.0)
    assert abs(res.proxy.p_hat - expect) < 3 * math.sqrt(expect * (1 - expect) / 2500)
    assert res.proxy.p_hat >= res.survival.p_hat


def test_local_survival_proxy_tracks_survival_when_supercritical():
    # recurrence proxy converges onto plain survival as the horizon grows
    g = build_box(1, 120)
    ratios = []
    for T in (10.0, 20.0, 40.0):
        res = local_survival_proxy(RunParams(g, 2.5, 1.0, None, T, 0),
                                   g.origin(), T, 150, 6)
        ratios.append(res.proxy.p_hat / max(res.survival.p_hat, 1e-9))
    assert 0.8 <= ratios[-1] <= 1.25
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0) + 0.1


def test_growth_vs_coupling_trend():
    from contactenv import growth_vs_coupling_curve
    fast = make_spec("dynamical-percolation", alpha=6.0, beta=6.0)
    curve = growth_vs_coupling_curve(0.5, fast, [0.0, 0.5, 1.0, 2.0, 4.0],
                                     8.0, reps=200, seed=5)
    vals = [e.p_hat for e in curve]
    assert all(a <= b for a, b in zip(vals, vals[1:]))  # exact: event monotone in s
    assert vals[-1] > 0.9


def test_c1_against_scipy_lambertw():
    # third, independent route to the same root
    import scipy.special
    for lam, deg, rho in ((1.0, 2, 0.0), (2.5, 4, 0.3), (0.6, 6, 1.0)):
        z = -math.exp(-(1.0 + rho)) / deg
        ref = -float(scipy.special.lambertw(z).real) / lam
        assert solve_c1(lam, deg, rho) == pytest.approx(ref, abs=1e-10)


def test_dp_bracket_sits_above_classical():
    # fewer open edges never help survival: the flipping-edge bracket must sit
    # strictly above the frozen-open one at equal recovery rate (small scale)
    dp = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)
    classical = estimate_critical_lambda(1.0, None, T=25.0, L=50, tol=0.8,
                                         reps_per_probe=150, seed=31)
    flipping = estimate_critical_lambda(1.0, dp, start_mode="stationary-dp",
                                        T=25.0, L=50, tol=0.8,
                                        reps_per_probe=150, seed=31)
    assert flipping.lam_lo >= classical.lam_lo
    assert flipping.lam_hi > classical.lam_hi


def test_phase_scan_monotone_and_deterministic():
    fixed = {"d": 1, "L": 25, "alpha": 1.0, "r": 1.0}
    scan = phase_scan(("lambda", [0.5, 1.5, 2.5]), ("beta", [0.5, 2.0]),
                      fixed, T=8.0, reps=60, seed=21)
    for beta in scan.values2:
        row = [scan.estimates[(lam, beta)].p_hat for lam in scan.values1]
        assert all(a <= b for a, b in zip(row, row[1:]))  # exact through thinning
    again = phase_scan(("lambda", [0.5, 1.5, 2.5]), ("beta", [0.5, 2.0]),
                       fixed, T=8.0, reps=60, seed=21)
    assert scan.estimates == again.estimates


@pytest.mark.parametrize("axis1,axis2,fixed,match", [
    # a repeated value was counted twice: p_hat 0.4 against 0.2 for the one cell
    (("lambda", [4.0, 4.0]), ("beta", [0.25]), {"alpha": 1.0, "r": 1.0}, "distinct"),
    (("lambda", [4.0]), ("beta", [0.25, 0.25]), {"alpha": 1.0, "r": 1.0}, "distinct"),
    (("lambda", []), ("beta", [0.25]), {"alpha": 1.0, "r": 1.0}, "one or more"),
    (("beta", [0.25]), ("alpha", [1.0]), {"r": 1.0}, "lambda must be set"),
    (("lambda", [4.0]), ("beta", [0.25]), {"alpha": 1.0}, "r must be set"),
    # a fixed value of an axis was ignored, yet the CLI's CSV recorded it
    (("lambda", [4.0]), ("beta", [0.25]), {"alpha": 1.0, "r": 1.0, "lambda": 2.0},
     "lambda is an axis"),
    (("lambda", [4.0]), ("beta", [0.25]), {"alpha": 1.0, "r": 1.0, "beta": 2.0},
     "beta is an axis"),
], ids=["repeated-axis1", "repeated-axis2", "empty", "no-lambda", "no-r", "fixed-axis1",
        "fixed-axis2"])
def test_phase_scan_rejects_a_grid_it_cannot_count(axis1, axis2, fixed, match):
    with pytest.raises(ValueError, match=match):
        phase_scan(axis1, axis2, {"d": 1, "L": 20, **fixed}, T=5.0, reps=10, seed=3)


@pytest.mark.parametrize("reps", [0, -1, 2.5, 3.0, True, "3"])
def test_phase_scan_rejects_a_replica_count_before_any_column(reps):
    # reps 0 divided by zero after the scan and 2.5 failed in range()
    asked = []
    with pytest.raises(ValueError, match="reps must be a positive integer"):
        phase_scan(("lambda", [4.0]), ("beta", [0.25]), {"d": 1, "L": 20, "alpha": 1.0,
                   "r": 1.0}, T=5.0, reps=reps, seed=3, proceed=asked.append)
    assert asked == []
