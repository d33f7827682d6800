"""Closed-form quantities and Monte Carlo estimators.

Estimators follow one discipline throughout: a root seed is split into
per-replica seeds by the documented hash rule, each replica rebuilds its
timeline deterministically, and results are aggregated as counts only.  Two
calls with equal arguments therefore return bit-identical numbers, and
sweeps that share a root seed (and generation ceilings) are coupled pathwise
through thinning, so monotone relations hold for the estimates themselves,
not just in expectation.

Infinite-horizon survival is approximated by "alive at the horizon"; the
fraction of replicas still alive (the censored runs) is reported on every
estimate so the approximation error stays visible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .background import (BackgroundSpec, decided_times, make_spec,
                         min_max_rates, sample_stationary_dp,
                         UnsupportedOperationError)
from .engine import RunParams, evolve, evolve_released, evolve_scan, richardson
from .graphical import build_timeline, derive_seed
from .lattice import build_box, l1_ball_sites

Z95 = 1.959963984540054

_SALT_B0 = 0x0B5EED


# ---------------------------------------------------------------------------
# intervals

def wilson_bounds(k: int, n: int, z: float = Z95):
    """Wilson score interval for k successes out of n."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def wilson_half_width(k: int, n: int, z: float = Z95) -> float:
    lo, hi = wilson_bounds(k, n, z)
    return (hi - lo) / 2


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with its replication metadata."""

    p_hat: float
    n_reps: int
    half_width: float           # Wilson 95% half-width
    censored_frac: float        # replicas still alive at the horizon
    seed: int
    boundary_frac: float = 0.0  # replicas whose infection touched the box boundary
    note: str = ""

    @property
    def wilson_low(self) -> float:
        return wilson_bounds(round(self.p_hat * self.n_reps), self.n_reps)[0]

    @property
    def wilson_high(self) -> float:
        return wilson_bounds(round(self.p_hat * self.n_reps), self.n_reps)[1]

    def sigma(self) -> float:
        """Binomial standard error at the point estimate."""
        p = min(max(self.p_hat, 1.0 / (self.n_reps + 1)), 1 - 1.0 / (self.n_reps + 1))
        return math.sqrt(p * (1 - p) / self.n_reps)


def _estimate(k, n, seed, *, censored=None, boundary=0, note=""):
    return Estimate(p_hat=k / n, n_reps=n, half_width=wilson_half_width(k, n),
                    censored_frac=(k if censored is None else censored) / n,
                    seed=seed, boundary_frac=boundary / n, note=note)


# ---------------------------------------------------------------------------
# growth constant

def growth_gap(c: float, lam: float, degree: int, rho: float = 0.0) -> float:
    """g_rho(c) = c*lam - 1 - log(c*lam*degree) - rho."""
    if c <= 0 or lam <= 0:
        raise ValueError("need c > 0 and lam > 0")
    return c * lam - 1.0 - math.log(c * lam * degree) - rho


def _c1_bisect(lam, degree, rho):
    hi = 1.0 / lam
    g_hi = growth_gap(hi, lam, degree, rho)
    if g_hi >= 0.0:
        # root sits at the upper endpoint (degree 1, rho 0)
        return hi
    lo = hi * 0.5
    while growth_gap(lo, lam, degree, rho) <= 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ArithmeticError("bisection bracket collapsed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if growth_gap(mid, lam, degree, rho) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lambert_w_principal(z: float, gap: float) -> float:
    """Principal branch on (-1/e, 0] by Halley iteration.

    gap is 1 + e*z, computed by the caller without forming z: near the
    branch point W moves with sqrt(gap), so the rounding of z would move it
    by sqrt(eps), and there W is the branch-point series in gap alone.
    """
    if z == 0.0:
        return 0.0
    e_inv = math.exp(-1.0)
    if z < -e_inv:
        raise ValueError(f"argument {z} below the branch point -1/e")
    # branch-point series seed near -1/e, w ~ z elsewhere on (-1/e, 0)
    p2 = 2.0 * gap
    if p2 < 0.5:
        p = math.sqrt(max(p2, 0.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0
        if p < 1e-3:
            # within 1e-13 of W; a Halley step would add z's rounding / p
            return w
    else:
        w = z * math.exp(-z)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        w1 = w + 1.0
        step = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def solve_c1(lam: float, degree: int, rho: float = 0.0, *,
             cross_check_tol: float = 1e-10) -> float:
    """Unique root of c*lam - 1 - log(c*lam*degree) = rho in (0, 1/lam].

    Its reciprocal bounds the asymptotic spread speed of the growth-only
    process.  Solved two independent ways (bisection on the gap function and
    Halley iteration for the matching Lambert-W value) and cross-checked.
    """
    if lam <= 0 or degree < 1 or rho < 0:
        raise ValueError("need lam > 0, degree >= 1, rho >= 0")
    z = -math.exp(-(1.0 + rho)) / degree
    assert z >= -math.exp(-1.0), "argument cannot fall below the branch point"
    c_w = -_lambert_w_principal(z, (degree - 1 - math.expm1(-rho)) / degree) / lam
    c_b = _c1_bisect(lam, degree, rho)
    if abs(c_w - c_b) > cross_check_tol:
        raise ArithmeticError(
            f"solver disagreement: bisection {c_b!r} vs Lambert-W {c_w!r}")
    c = c_b if abs(growth_gap(c_b, lam, degree, rho)) <= abs(growth_gap(c_w, lam, degree, rho)) else c_w
    if not 0.0 < c <= 1.0 / lam + 1e-15:
        raise ArithmeticError(f"root {c} escaped (0, 1/lam]")
    return c


def reach_bound_halfwidth(lam: float, T: float, d: int = 1,
                          tol: float = 1e-3) -> int:
    """Smallest box half-width for which the growth-only run touches the
    boundary by time T with probability below tol.

    Uses the hitting-time tail at half the growth constant: with
    c = c1(lam)/2, a target at distance D is reached before c*D with
    probability at most exp(-g0(c) D)/(1-exp(-g0(c))); choosing D >= T/c
    covers the whole horizon.  A union bound over the 2d axis directions of
    the boundary's nearest points is folded into tol.
    """
    c = solve_c1(lam, 2 * d, 0.0) / 2.0
    g0 = growth_gap(c, lam, 2 * d, 0.0)
    assert g0 > 0.0
    per_target = tol / (2 * d)
    D = 1
    while math.exp(-g0 * D) / (1.0 - math.exp(-g0)) >= per_target:
        D += 1
    return max(D, int(math.ceil(T / c)) + 1)


# ---------------------------------------------------------------------------
# survival estimation

def _q_rate(spec):
    return 0.0 if spec is None else spec.flip_rate


def _replica_b0(params, mode, b0, rep_seed):
    g = params.graph
    if mode == "fixed-B0":
        if b0 is None:
            b0 = range(g.n_edges) if params.spec is None else ()
        return b0
    if mode == "stationary-dp":
        spec = params.spec
        if spec is None or not spec.is_dp:
            raise UnsupportedOperationError(
                "stationary start requires the independent-edge background")
        return sample_stationary_dp(g, spec.alpha, spec.beta, derive_seed(rep_seed, _SALT_B0))
    if mode == "burn-in":
        return () if b0 is None else b0
    raise ValueError(f"unknown start mode {mode!r}")


def _burn_length(spec):
    rb = min_max_rates(spec)
    floor = rb.alpha_min + rb.beta_min
    if floor <= 0:
        raise ValueError("burn-in needs strictly positive extreme rates")
    return math.log(1000.0) / floor


def estimate_survival(params: RunParams, c0, *, start_mode: str = "fixed-B0",
                      b0=None, reps: int, seed: int | None = None,
                      lam_ceiling: float | None = None,
                      r_ceiling: float | None = None,
                      max_events: int | None = None) -> Estimate:
    """Fraction of replicas whose site set is nonempty at the horizon.

    With a shared root seed and shared generation ceilings, estimates are
    coupled through thinning: nondecreasing in lam and nonincreasing in r as
    realized values, not just in expectation.  In "burn-in" mode the
    environment runs alone (arrows and recoveries suppressed) long enough
    that the comparison bound exp(-(alpha_min+beta_min)*burn) < 1e-3 before
    the infection is released.
    """
    return _survival_runs(params, c0, start_mode=start_mode, b0=b0, reps=reps,
                          seed=seed, lam_ceiling=lam_ceiling,
                          r_ceiling=r_ceiling, max_events=max_events)[0]


def _survival_runs(params, c0, *, start_mode="fixed-B0", b0=None, reps, seed=None,
                   lam_ceiling=None, r_ceiling=None, max_events=None):
    """The replica loop of estimate_survival.

    Returns the estimate and every replica's extinction time, measured from
    the release of the infection (inf for replicas alive at the horizon).
    """
    if reps <= 0:
        raise ValueError("reps must be positive")
    root = params.seed if seed is None else seed
    g = params.graph
    lam_gen = params.lam if lam_ceiling is None else lam_ceiling
    r_gen = params.r if r_ceiling is None else r_ceiling
    if lam_gen < params.lam or r_gen < params.r:
        raise ValueError("generation ceilings must dominate the run rates")
    burn = _burn_length(params.spec) if start_mode == "burn-in" else 0.0
    horizon = params.horizon + burn
    kw = {} if max_events is None else {"max_events": max_events}

    ext_times = []
    boundary = 0
    for i in range(reps):
        rep_seed = derive_seed(root, i)
        tl = build_timeline(g, lam_gen, r_gen, _q_rate(params.spec), horizon, rep_seed, **kw)
        b0_i = _replica_b0(params, start_mode, b0, rep_seed)
        run_params = RunParams(g, params.lam, params.r, params.spec, horizon, rep_seed)
        if burn > 0.0:
            traj = evolve_released(run_params, c0, b0_i, tl, burn,
                                   stop_on_extinct=True, want_deltas=False)
        else:
            traj = evolve(run_params, c0, b0_i, tl, stop_on_extinct=True,
                          want_deltas=False)
        ext_times.append(traj.tau_ex - burn)
        if traj.boundary_touched:
            boundary += 1
    note = f"burn-in {burn:.4g}" if burn else ""
    alive = ext_times.count(math.inf)
    return _estimate(alive, reps, root, boundary=boundary, note=note), ext_times


# ---------------------------------------------------------------------------
# critical rate bracketing

# Survival exponent delta of directed percolation in d = 1, 2, 3: at the
# critical point P(alive at t) ~ t^-delta (Jensen 1999 for d = 1; Hinrichsen,
# Adv. Phys. 2000, for d = 2, 3).  From d = 4 on it is the mean-field 1.
_DP_DELTA = {1: 0.1595, 2: 0.4505, 3: 0.732}


def dp_survival_exponent(d: int) -> float:
    return _DP_DELTA.get(d, 1.0)


def decay_window(ext_times, T: float):
    """The latest dyadic window [T/2^j, T/2^(j-1)] that starts with a live
    replica, as (t_start, t_end, k, n): n replicas are alive at t_start and
    k of them are still alive at t_end."""
    last = max(ext_times)
    if not last > 0.0:
        raise ValueError("no replica is alive after time 0")
    t_end = T
    while t_end / 2 >= last:
        t_end /= 2
    t_start = t_end / 2
    n = sum(tau > t_start for tau in ext_times)
    k = sum(tau > t_end for tau in ext_times)
    return t_start, t_end, k, n


def decay_verdict(k: int, n: int, d: int) -> str:
    """Classify a window over which k of n live replicas survive a doubling
    of time, by the Wilson interval of k/n against its critical value
    2^-delta_d."""
    crit = 2.0 ** -dp_survival_exponent(d)
    lo, hi = wilson_bounds(k, n)
    if hi < crit:
        return "subcritical"
    if lo > crit:
        return "supercritical"
    return "inconclusive"


@dataclass(frozen=True)
class Bracket:
    """Certified critical-rate bracket from sequential probing."""

    lam_lo: float               # largest rate declared subcritical
    lam_hi: float               # smallest rate declared supercritical
    converged: bool             # certified width reached tol within budget
    statement: str
    probes: tuple               # (lam, Estimate, verdict) in probe order
    windows: tuple              # decay_window(...) of each probe, same order

    @property
    def width(self) -> float:
        return self.lam_hi - self.lam_lo


def estimate_critical_lambda(r: float, spec: BackgroundSpec | None, *,
                             start_mode: str = "fixed-B0", T: float, L: int,
                             tol: float, reps_per_probe: int, seed: int,
                             d: int = 1, lam_init: float = 1.0,
                             lam_cap: float = 64.0, max_probes: int = 40,
                             b0=None, max_events: int | None = None) -> Bracket:
    """Bisection bracket for the survival phase transition in the infection rate.

    Each probe classifies one rate by how its survival decays, the
    time-dependent test of Grassberger and de la Torre (1979).  At the
    critical point P(alive at t) ~ t^-delta_d, so of the replicas alive at
    T/2 a fraction 2^-delta_d survives to T.  The probe is subcritical when
    the Wilson interval of that fraction sits below 2^-delta_d and
    supercritical when it sits above.  A probe with no replica alive at T/2
    uses the latest dyadic window [T/2^j, T/2^(j-1)] that starts with one.
    Certified endpoints move only on a conclusive verdict; inconclusive
    probes steer the search by the point fraction without touching the
    certificate.  Returns a partial bracket with converged=False when the
    probe budget runs out first.

    delta_d is the directed-percolation exponent.  The frozen-open classical
    contact process (spec None) is in the directed-percolation class.  For an
    evolving environment the rule rests on the Janssen-Grassberger
    conjecture that the transition is in that class too; the paper proves
    extinction at criticality but gives no exponents.

    max_events, if given, is the event budget of each replica's timeline.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = build_box(d, L)
    origin = g.origin()
    crit = 2.0 ** -dp_survival_exponent(d)
    probes = []
    windows = []

    def probe(lam):
        params = RunParams(g, lam, r, spec, T, seed)
        est, ext_times = _survival_runs(params, (origin,), start_mode=start_mode,
                                        b0=b0, reps=reps_per_probe, seed=seed,
                                        max_events=max_events)
        window = decay_window(ext_times, T)
        k, n = window[2:]
        verdict = decay_verdict(k, n, d)
        probes.append((lam, est, verdict))
        windows.append(window)
        return verdict, k / n

    lam_lo = None
    lam_hi = None

    def record(lam, verdict):
        nonlocal lam_lo, lam_hi
        if verdict == "subcritical":
            lam_lo = lam if lam_lo is None else max(lam_lo, lam)
        elif verdict == "supercritical":
            lam_hi = lam if lam_hi is None else min(lam_hi, lam)

    lam = lam_init
    # upward scan for a certified supercritical rate
    while len(probes) < max_probes:
        verdict, frac = probe(lam)
        record(lam, verdict)
        if verdict == "supercritical":
            break
        lam *= 2.0
        if lam > lam_cap:
            break
    # downward scan for a certified subcritical rate; supercritical probes
    # encountered on the way still tighten the upper endpoint
    lam = lam_init / 2.0
    while lam_lo is None and len(probes) < max_probes and lam > 1e-6:
        verdict, frac = probe(lam)
        record(lam, verdict)
        if verdict == "subcritical":
            break
        lam /= 2.0

    if lam_lo is None or lam_hi is None:
        lo = lam_lo if lam_lo is not None else 0.0
        hi = lam_hi if lam_hi is not None else math.inf
        return Bracket(lo, hi, False,
                       "no certified bracket within the probe budget",
                       tuple(probes), tuple(windows))

    a, b = lam_lo, lam_hi
    while lam_hi - lam_lo > tol and len(probes) < max_probes:
        mid = 0.5 * (a + b)
        if b - a <= tol / 4 or mid <= a or mid >= b:
            break
        verdict, frac = probe(mid)
        record(mid, verdict)
        if verdict == "subcritical":
            a = mid
        elif verdict == "supercritical":
            b = mid
        else:
            if frac >= crit:
                b = mid
            else:
                a = mid
    converged = lam_hi - lam_lo <= tol
    stmt = (f"[{lam_lo:.6g}, {lam_hi:.6g}] certified by survival decay against "
            f"2^-delta={crit:.4g}, {reps_per_probe} reps/probe"
            + ("" if converged else "; budget exhausted"))
    return Bracket(lam_lo, lam_hi, converged, stmt, tuple(probes), tuple(windows))


# ---------------------------------------------------------------------------
# growth-only hitting bound

@dataclass(frozen=True)
class HittingRow:
    distance: int
    empirical: float
    half_width: float
    bound: float
    within: bool


def hitting_bound_report(lam: float, c: float, distances, reps: int, seed: int,
                         *, d: int = 1, strict: bool = True):
    """Empirical P(the growth-only run reaches distance D before c*D) against
    the analytic tail bound exp(-g0(c) D) / (1 - exp(-g0(c)))."""
    c1 = solve_c1(lam, 2 * d, 0.0)
    if c >= c1:
        raise ValueError(f"c={c} must be below the growth constant {c1:.6g} "
                         "for the bound to be nonvacuous")
    g0 = growth_gap(c, lam, 2 * d, 0.0)
    distances = sorted(int(v) for v in distances)
    max_d = distances[-1]
    g = build_box(d, max_d + 2)
    origin = g.origin()
    targets = [g.site_index((dist,) + (0,) * (d - 1)) for dist in distances]
    t_end = c * max_d
    hits = {dist: 0 for dist in distances}
    for i in range(reps):
        tl = build_timeline(g, lam, 0.0, 0.0, t_end, derive_seed(seed, i))
        traj = richardson((origin,), tl, t_end)
        first_hit = {}
        for t, j, sign in traj.site_deltas:
            if sign > 0 and j not in first_hit:
                first_hit[j] = t
        for dist, tgt in zip(distances, targets):
            if first_hit.get(tgt, math.inf) < c * dist:
                hits[dist] += 1
    rows = []
    for dist in distances:
        k = hits[dist]
        emp = k / reps
        bound = math.exp(-g0 * dist) / (1.0 - math.exp(-g0))
        sigma = math.sqrt(max(bound * (1 - bound), 1.0 / reps) / reps)
        rows.append(HittingRow(distance=dist, empirical=emp,
                               half_width=wilson_half_width(k, reps),
                               bound=bound, within=emp <= bound + 3 * sigma))
    if strict and not all(row.within for row in rows):
        bad = [row for row in rows if not row.within]
        raise ArithmeticError(f"empirical hitting frequency exceeded the bound: {bad}")
    return rows


# ---------------------------------------------------------------------------
# environment coupling speed

def coupling_speed_report(spec: BackgroundSpec, t_grid, reps: int, seed: int):
    """Per t: empirical probability that a bulk edge is still undecided,
    with the exact exponential law alongside for independent edge dynamics."""
    g = build_box(spec.dimension, 2)
    edge = g.site_edges[g.origin()][0]
    t_grid = sorted(float(t) for t in t_grid)
    t_max = max(t_grid) if t_grid[-1] > 0 else 1.0
    counts = {t: 0 for t in t_grid}
    for i in range(reps):
        tl = build_timeline(g, 0.0, 0.0, spec.flip_rate, t_max, derive_seed(seed, i))
        # one merge per table serves every t: the edge is in coupled_region at t
        # iff its decided time is at most t
        decided = decided_times(spec, tl)[0][edge]
        for t in t_grid:
            if t == 0.0 or not decided <= t:
                counts[t] += 1
    rows = []
    for t in t_grid:
        k = counts[t]
        exact = None
        if spec.is_dp:
            exact = math.exp(-(spec.alpha + spec.beta) * t)
        rows.append({"t": t, "empirical": k / reps,
                     "half_width": wilson_half_width(k, reps), "exact": exact})
    return rows


def growth_vs_coupling_curve(lam: float, spec: BackgroundSpec, s_grid, T: float,
                             reps: int, seed: int, *, d: int = 1,
                             L: int | None = None):
    """Per s: empirical frequency that the growth-only infected set stays
    inside the fully-decided vertex region on all of [s, T].

    When edges decide much faster than the infection spreads the frequency
    climbs to 1 as s grows.  The event is monotone in s realization by
    realization, so with shared replica seeds the reported curve is exactly
    nondecreasing.  Reported as a trend; there is no finite-horizon threshold
    to assert.
    """
    s_grid = sorted(float(s) for s in s_grid)
    if L is None:
        L = int(2.0 * lam * T) + 10   # generous vs the linear growth bound
    g = build_box(d, L)
    origin = g.origin()
    interior_ready_possible = [g.norm_inf[s] < g.half_width for s in range(g.n_sites)]
    counts = {s: 0 for s in s_grid}
    for i in range(reps):
        rep_seed = derive_seed(seed, i)
        tl = build_timeline(g, lam, 0.0, spec.flip_rate, T, rep_seed)
        growth = richardson((origin,), tl, T)
        first_hit = {origin: 0.0}
        for t, j, sign in growth.site_deltas:
            first_hit.setdefault(j, t)
        edge_ready, _ = decided_times(spec, tl)
        # vertex ready time: all incident edges decided (interior sites only)
        ok_from = 0.0
        feasible = True
        for x, f in first_hit.items():
            if f > T:
                continue
            if not interior_ready_possible[x]:
                feasible = False
                break
            ready = max(edge_ready[e] for e in g.site_edges[x])
            if ready == math.inf:
                feasible = False
                break
            if ready > f:
                ok_from = max(ok_from, ready)
        if not feasible:
            continue
        for s in s_grid:
            if ok_from <= s:
                counts[s] += 1
    return [_estimate(counts[s], reps, seed, note=f"s={s}") for s in s_grid]


# ---------------------------------------------------------------------------
# distributional self-duality

def self_duality_check(lam: float, r: float, alpha: float, beta: float,
                       c_sites, a_sites, t: float, reps: int, seed: int,
                       *, d: int = 1, L: int = 30):
    """Two independent forward experiments whose success probabilities agree
    when the environment starts from its reversible stationary law:
    start-from-C hitting A versus start-from-A hitting C.  Returns both
    estimates and the two-proportion z-score."""
    spec = make_spec("dynamical-percolation", alpha=alpha, beta=beta, d=d)
    g = build_box(d, L)
    c_ids = tuple(g.site_index(x) if not isinstance(x, (int, np.integer)) else int(x)
                  for x in c_sites)
    a_ids = tuple(g.site_index(x) if not isinstance(x, (int, np.integer)) else int(x)
                  for x in a_sites)

    def side(start, target, root):
        target_set = frozenset(target)
        k = 0
        for i in range(reps):
            rep_seed = derive_seed(root, i)
            tl = build_timeline(g, lam, r, spec.flip_rate, t, rep_seed)
            b0 = sample_stationary_dp(g, alpha, beta, derive_seed(rep_seed, _SALT_B0))
            traj = evolve(RunParams(g, lam, r, spec, t, rep_seed), start, b0, tl,
                          stop_on_extinct=True, want_deltas=False)
            if traj.c_final & target_set:
                k += 1
        return _estimate(k, reps, root)

    est1 = side(c_ids, a_ids, derive_seed(seed, 1))
    est2 = side(a_ids, c_ids, derive_seed(seed, 2))
    pooled = (est1.p_hat + est2.p_hat) / 2
    if pooled in (0.0, 1.0):
        z = 0.0
    else:
        z = (est1.p_hat - est2.p_hat) / math.sqrt(pooled * (1 - pooled) * 2 / reps)
    return est1, est2, z


# ---------------------------------------------------------------------------
# finite-horizon probes for the convergence conditions

def condition_block_curve(params: RunParams, n: int, t_grid, reps: int,
                          seed: int) -> list:
    """P(site set at t meets the radius-n ball), started from (ball, no open
    edges).  Estimates at equal seeds are coupled across n, so the curve is
    pathwise monotone in the initial ball."""
    g = params.graph
    ball_ids = l1_ball_sites(g, g.origin(), n)
    ball_set = frozenset(int(v) for v in ball_ids)
    t_grid = sorted(float(t) for t in t_grid)
    t_max = t_grid[-1]
    if t_max > params.horizon:
        raise ValueError("t grid beyond the horizon")
    counts = {t: 0 for t in t_grid}
    for i in range(reps):
        rep_seed = derive_seed(seed, i)
        tl = build_timeline(g, params.lam, params.r, _q_rate(params.spec),
                            params.horizon, rep_seed)
        traj = evolve(RunParams(g, params.lam, params.r, params.spec,
                                params.horizon, rep_seed),
                      ball_ids, (), tl, stop_on_extinct=True)
        # replay: indicator of intersection at each grid time
        cnt = len(ball_set)        # infected sites inside the ball
        gi = 0
        for t, j, sign in traj.site_deltas:
            while gi < len(t_grid) and t_grid[gi] < t:
                if cnt > 0:
                    counts[t_grid[gi]] += 1
                gi += 1
            if j in ball_set:
                cnt += sign
        while gi < len(t_grid):
            if cnt > 0:
                counts[t_grid[gi]] += 1
            gi += 1
    return [_estimate(counts[t], reps, seed, note=f"t={t}") for t in t_grid]


@dataclass(frozen=True)
class LocalSurvivalProxy:
    proxy: Estimate             # site reinfected somewhere in [T/2, T]
    survival: Estimate          # alive at T


def local_survival_proxy(params: RunParams, x: int, T: float, reps: int,
                         seed: int, b0=None) -> LocalSurvivalProxy:
    """Lower-bound-flavoured recurrence probe: the chance the given site is
    infected at some time in [T/2, T], reported alongside plain survival.
    The bias of this finite-horizon stand-in is not quantified; report, do
    not assert against it.  b0 defaults to all edges open for the frozen
    classical mode and to no open edges otherwise."""
    g = params.graph
    x = int(x)
    half = T / 2.0
    hit = 0
    alive = 0
    if b0 is None:
        b0 = range(g.n_edges) if params.spec is None else ()
    for i in range(reps):
        rep_seed = derive_seed(seed, i)
        tl = build_timeline(g, params.lam, params.r, _q_rate(params.spec), T, rep_seed)
        traj = evolve(RunParams(g, params.lam, params.r, params.spec, T, rep_seed),
                      (x,), b0, tl)
        if traj.tau_ex == math.inf:
            alive += 1
        seen = False
        state = x in traj.c0
        for t, j, sign in traj.site_deltas:
            if j != x:
                continue
            if t > half and state:
                seen = True        # infected when the window opened
                break
            state = sign > 0
            if t >= half and state:
                seen = True        # reinfected inside the window
                break
        if not seen and state:
            seen = True            # infected from before T/2 through T
        if seen:
            hit += 1
    return LocalSurvivalProxy(proxy=_estimate(hit, reps, seed),
                              survival=_estimate(alive, reps, seed))


# ---------------------------------------------------------------------------
# phase scan

AXIS_NAMES = ("lambda", "r", "alpha", "beta")


@dataclass(frozen=True)
class PhaseScan:
    axis1: str
    axis2: str
    values1: tuple
    values2: tuple
    fixed: dict
    estimates: dict             # (v1, v2) -> Estimate

    def rows(self):
        for v2 in self.values2:
            for v1 in self.values1:
                yield v1, v2, self.estimates[(v1, v2)]


def phase_scan(axis1, axis2, fixed: dict, T: float, reps: int, seed: int,
               *, proceed=None) -> PhaseScan:
    """Survival estimates over a 2-d parameter grid, in one sweep of each
    replica's table.

    axis1/axis2 are (name, values) with names among lambda, r, alpha, beta,
    and distinct, nonempty value lists; lambda and r are set on an axis or
    in fixed.  Replicas share seeds across the whole grid, and every
    replica's table is drawn at the grid's ceilings (the largest lambda, r
    and flip candidate rate of any cell) and thinned to each cell's rates,
    so rows and columns along lambda (and r) are exactly monotone, not just
    statistically.  Every cell starts from the origin alone, with all edges
    closed under dynamical percolation (alpha and beta set) and, with
    neither set, in the frozen-open environment of the classical process.

    The cells that share r and the environment are one column of
    engine.evolve_scan, which sweeps every column of a replica's table at
    once (one sweep per 64 columns), so each table is drawn once, swept and
    dropped; no table or environment path is kept.

    Before any sweep, proceed(column_events), if given, is called for each
    axis-2 column in order, with the column's expected event count
    reps * per_table_events, where per_table_events =
    (lam*2|E| + r|V| + q|E|) * T at the ceilings; the first false return
    ends the admission, and the result holds only the columns admitted.
    The ceilings are still the whole grid's, so an admitted
    column's estimates do not depend on which others were admitted.
    """
    name1, vals1 = axis1
    name2, vals2 = axis2
    if name1 not in AXIS_NAMES or name2 not in AXIS_NAMES or name1 == name2:
        raise ValueError(f"axis names must be distinct members of {AXIS_NAMES}")
    if isinstance(reps, bool) or not isinstance(reps, numbers.Integral) or reps < 1:
        raise ValueError(f"reps must be a positive integer, got {reps!r}")
    for name in (name1, name2):
        if name in fixed:
            raise ValueError(f"{name} is an axis and may not be set in fixed")
    vals1 = tuple(float(v) for v in vals1)
    vals2 = tuple(float(v) for v in vals2)
    for name, vals in ((name1, vals1), (name2, vals2)):
        if not vals or len(set(vals)) != len(vals):
            raise ValueError(f"the {name} axis needs distinct values, one or more")
    for name in ("lambda", "r"):
        if name not in (name1, name2) and fixed.get(name) is None:
            raise ValueError(f"{name} must be set on an axis or in fixed")
    d = int(fixed.get("d", 1))
    L = int(fixed.get("L", 50))
    g = build_box(d, L)
    origin = g.origin()

    def setting(name, v1, v2, default=None):
        if name1 == name:
            return v1
        if name2 == name:
            return v2
        return fixed.get(name, default)

    def values(name):
        return vals1 if name1 == name else (vals2 if name2 == name else (fixed.get(name),))

    lam_ceiling = max(values("lambda"))
    r_ceiling = max(values("r"))
    specs = {(a, b): make_spec("dynamical-percolation", alpha=a, beta=b, d=d)
             for a in set(values("alpha")) for b in set(values("beta"))
             if a is not None and b is not None}
    q_ceiling = max((spec.flip_rate for spec in specs.values()), default=0.0)
    per_table_events = (lam_ceiling * 2 * g.n_edges + r_ceiling * g.n_sites
                        + q_ceiling * g.n_edges) * T
    column_events = per_table_events * reps
    admitted = []
    for v2 in vals2:
        if proceed is not None and not proceed(column_events):
            break
        admitted.append(v2)
    groups = {}     # the cells by (r, spec): one column of the scan each
    for v2 in admitted:
        for v1 in vals1:
            r = float(setting("r", v1, v2))
            spec = specs.get((setting("alpha", v1, v2), setting("beta", v1, v2)))
            params = RunParams(g, float(setting("lambda", v1, v2)), r, spec, T)
            groups.setdefault((r, spec), []).append(((v1, v2), params))
    groups = list(groups.values())
    columns = [([p for _, p in cells], _replica_b0(cells[0][1], "fixed-B0", None, seed))
               for cells in groups]
    counts = {(v1, v2): [0, 0] for v2 in admitted for v1 in vals1}
    for i in range(reps if columns else 0):
        tl = build_timeline(g, lam_ceiling, r_ceiling, q_ceiling, T, derive_seed(seed, i))
        for cells, levels in zip(groups, evolve_scan(columns, (origin,), tl)):
            for (key, _), (tau, touched) in zip(cells, levels):
                counts[key][0] += tau == math.inf
                counts[key][1] += touched
    estimates = {key: _estimate(alive, reps, seed, boundary=btouch)
                 for key, (alive, btouch) in counts.items()}
    return PhaseScan(axis1=name1, axis2=name2, values1=vals1, values2=tuple(admitted),
                     fixed=dict(fixed), estimates=estimates)
