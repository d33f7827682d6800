import math

import pytest

from contactenv import (UnsupportedOperationError, build_box, build_timeline,
                        coupled_region, ergodicity_margin, evolve_background,
                        make_spec, min_max_rates, sample_stationary,
                        sample_stationary_dp)
from contactenv.background import timeline_for_background


def binom_sigma(p, n):
    return math.sqrt(p * (1 - p) / n)


def test_dp_spec_basics():
    spec = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)
    assert spec.flip_rate == 2.0
    rb = min_max_rates(spec)
    assert (rb.alpha_min, rb.alpha_max, rb.beta_min, rb.beta_max) == (1, 1, 1, 1)


def test_ising_bounds_match_tanh():
    # on the 1-d lattice every edge has two line-graph neighbours
    b = 0.5 * math.atanh(0.5)  # tanh(2b) = 0.5
    spec = make_spec("ising", beta_inv=b, d=1)
    rb = min_max_rates(spec)
    assert rb.alpha_min == pytest.approx(0.5)
    assert rb.alpha_max == pytest.approx(1.5)
    assert spec.flip_rate == pytest.approx(2.0)


def test_voter_bounds():
    spec = make_spec("noisy-voter", alpha=1.0, beta=1.0)
    rb = min_max_rates(spec)
    assert rb.alpha_min == pytest.approx(0.5)
    assert rb.alpha_max == pytest.approx(2.5)


def test_voter_rejected_off_line():
    with pytest.raises(ValueError, match="1-d"):
        make_spec("noisy-voter", alpha=1.0, beta=1.0, d=2)


def test_attractiveness_checker_cites_violation():
    from contactenv.background import _check_attractive
    # opening rate that drops when a neighbour opens: not attractive
    with pytest.raises(ValueError, match="attractiveness violated"):
        _check_attractive((1.0, 0.5, 0.2), (1.0, 1.0, 1.0), 2)
    with pytest.raises(ValueError, match="closing rate rises"):
        _check_attractive((1.0, 1.0, 1.0), (0.2, 0.5, 1.0), 2)


def test_ising_beta_inv_range():
    cap = 0.25 * math.log(8 / 4)  # line-graph degree 6 in d=2
    make_spec("ising", beta_inv=cap * 0.9, d=2)
    with pytest.raises(ValueError, match="admissible range"):
        make_spec("ising", beta_inv=cap * 1.1, d=2)


def test_margins():
    dp = make_spec("dynamical-percolation", alpha=1.5, beta=0.5)
    em = ergodicity_margin(dp)
    assert em.influence_sum == 0.0
    assert em.margin == pytest.approx(2.0)
    assert em.kappa_exact == pytest.approx(2.0)

    nv = make_spec("noisy-voter", alpha=1.25, beta=1.0)
    em = ergodicity_margin(nv)
    assert em.influence_sum == pytest.approx(2.0)
    assert em.rate_floor == pytest.approx(1.25 + 2.0)
    assert em.margin == pytest.approx(1.25)  # exactly alpha
    assert em.kappa_exact is None

    ising = make_spec("ising", beta_inv=0.3, d=1)
    em2 = ergodicity_margin(ising)
    # direct enumeration oracle over the 2^2 neighbour patterns
    up = [1 - math.tanh(0.3 * (2 - 2 * k)) for k in range(3)]
    down = [1 - math.tanh(0.3 * (2 * k - 2)) for k in range(3)]
    m = 2 * max(abs(up[1] - up[0]), abs(up[2] - up[1]),
                abs(down[1] - down[0]), abs(down[2] - down[1]))
    assert em2.influence_sum == pytest.approx(m)
    assert em2.rate_floor == pytest.approx(min(u + v for u, v in zip(up, down)))


def test_stationary_sampler_fraction():
    g = build_box(1, 5000)
    for alpha, beta in ((1.0, 1.0), (3.0, 1.0)):
        open_edges = sample_stationary_dp(g, alpha, beta, seed=4)
        p = alpha / (alpha + beta)
        assert abs(len(open_edges) / g.n_edges - p) < 3 * binom_sigma(p, g.n_edges)


def test_stationary_sampler_extreme_beta():
    g = build_box(1, 5000)
    open_edges = sample_stationary_dp(g, 1.0, 1e6, seed=5)
    assert len(open_edges) / g.n_edges <= 1e-5 + 3 * binom_sigma(1e-6, g.n_edges)


def test_stationary_sampler_requires_dp():
    spec = make_spec("noisy-voter", alpha=1.0, beta=1.0)
    with pytest.raises(UnsupportedOperationError):
        sample_stationary(spec, build_box(1, 3), seed=0)
    dp = make_spec("dynamical-percolation", alpha=2.0, beta=1.0)
    g = build_box(1, 100)
    direct = sample_stationary_dp(g, 2.0, 1.0, seed=8)
    assert sample_stationary(dp, g, seed=8).tolist() == direct.tolist()


def test_no_events_no_change():
    g = build_box(1, 3)
    spec = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)
    tl = build_timeline(g, 0.0, 0.0, 0.0, 2.0, seed=0)
    b0 = (0, 2)
    assert evolve_background(spec, b0, tl, 2.0).tolist() == [0, 2]


def test_dp_two_sided_relaxation():
    # P(e open at t | closed at 0) = p(1 - e^{-(a+b)t}) and symmetrically
    g = build_box(1, 4000)
    spec = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)
    tl = timeline_for_background(spec, g, 1.0, seed=21)
    n = g.n_edges
    from_empty = len(evolve_background(spec, (), tl, 1.0)) / n
    expect = 0.5 * (1 - math.exp(-2.0))
    assert abs(from_empty - expect) < 3 * binom_sigma(expect, n)
    from_full = len(evolve_background(spec, range(n), tl, 1.0)) / n
    expect_full = 0.5 + 0.5 * math.exp(-2.0)
    assert abs(from_full - expect_full) < 3 * binom_sigma(expect_full, n)


def test_stationarity_preserved():
    g = build_box(1, 4000)
    spec = make_spec("dynamical-percolation", alpha=3.0, beta=1.0)
    b0 = sample_stationary_dp(g, 3.0, 1.0, seed=9)
    tl = timeline_for_background(spec, g, 1.5, seed=10)
    bt = evolve_background(spec, b0, tl, 1.5)
    assert abs(len(bt) / g.n_edges - 0.75) < 3 * binom_sigma(0.75, g.n_edges)


@pytest.mark.parametrize("kind,kw", [
    ("dynamical-percolation", dict(alpha=1.0, beta=2.0)),
    ("noisy-voter", dict(alpha=0.5, beta=1.0)),
    ("ising", dict(beta_inv=0.4)),
])
def test_attractive_sandwich_pathwise(kind, kw):
    g = build_box(1, 40)
    spec = make_spec(kind, d=1, **kw)
    for seed in range(5):
        tl = timeline_for_background(spec, g, 4.0, seed=seed)
        for t in (1.0, 2.5, 4.0):
            lo = set(evolve_background(spec, (), tl, t).tolist())
            hi = set(evolve_background(spec, range(g.n_edges), tl, t).tolist())
            assert lo <= hi


def test_coupled_region_empty_at_zero_and_monotone():
    g = build_box(1, 30)
    spec = make_spec("noisy-voter", alpha=1.0, beta=1.0)
    tl = timeline_for_background(spec, g, 5.0, seed=33)
    assert len(coupled_region(spec, tl, 0.0).edges) == 0
    prev = set()
    for t in (1.0, 2.0, 3.0, 5.0):
        cur = set(coupled_region(spec, tl, t).edges.tolist())
        assert prev <= cur
        prev = cur
    assert not coupled_region(spec, tl, 5.0).exact


def test_coupled_region_dp_law():
    g = build_box(1, 3000)
    spec = make_spec("dynamical-percolation", alpha=1.0, beta=1.0)
    tl = timeline_for_background(spec, g, 2.5, seed=12)
    for t in (0.5, 1.0, 2.0):
        region = coupled_region(spec, tl, t)
        assert region.exact
        p_not = 1 - len(region.edges) / g.n_edges
        expect = math.exp(-2.0 * t)
        assert abs(p_not - expect) < 3 * binom_sigma(expect, g.n_edges)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind,rate", [("dynamical-percolation", "alpha"),
                                       ("dynamical-percolation", "beta"),
                                       ("noisy-voter", "alpha"), ("ising", "beta_inv")])
def test_non_finite_rates_are_rejected(kind, rate, bad):
    rates = {"dynamical-percolation": dict(alpha=1.0, beta=1.0),
             "noisy-voter": dict(alpha=1.0, beta=1.0), "ising": dict(beta_inv=0.2)}[kind]
    with pytest.raises(ValueError, match=f"{rate} must be finite"):
        make_spec(kind, **dict(rates, **{rate: bad}))
