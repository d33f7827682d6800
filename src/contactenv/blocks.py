"""Finite space-time block events and the macroscopic oriented percolation.

The three block events measure, on a truncated run started from a fully
infected cube with every edge closed, whether the infection reproduces a
shifted copy of that cube at the top of the box (A1), on a lateral face
(A2), or displaced along the first axis during a later time window (A3).
High probability of these events at some finite scale is the finite
certificate behind the survival-to-percolation comparison; the comparison's
endpoint, an independent oriented site percolation on the even sublattice,
lives at the bottom of this module with its own monotone-in-q coupling.

Containment of a cube is piecewise constant between events, so window
events are evaluated exactly by scanning the trajectory's delta stream with
per-cube occupancy counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .analysis import Estimate, _estimate, wilson_bounds
from .engine import RunParams, evolve_truncated
from .graphical import build_timeline, derive_seed, mix64, uniform_from

A1, A2, A3 = "A1", "A2", "A3"


@dataclass(frozen=True)
class BlockGeometry:
    """Scales of one block event; all positive, with the cube radius n below
    the displacement scale for the derived regions to nest."""

    n: int
    L: int
    T: float

    def __post_init__(self):
        if self.n < 1 or self.L < 1 or self.T <= 0:
            raise ValueError("need n >= 1, L >= 1, T > 0")

    def truncation(self, which: str) -> int:
        return {A1: self.L + self.n, A2: self.L + 2 * self.n,
                A3: 2 * self.L + 2 * self.n}[which]


def displacement_region(j: int, k: int, a: float, b: float, d: int):
    """Space-time region [-(1-2j)a, (1+2j)a] x [-a,a]^{d-1} x [5kb, (5k+1)b]."""
    lo = [-(1 - 2 * j) * a] + [-a] * (d - 1)
    hi = [(1 + 2 * j) * a] + [a] * (d - 1)
    return (tuple(lo), tuple(hi), (5 * k * b, (5 * k + 1) * b))


def anchor_region(j: int, k: int, a: float, b: float, d: int):
    """Space-time box [a(12j-1), a(12j+1)] x [-a,a]^{d-1} x [30kb, (30k+1)b]."""
    lo = [a * (12 * j - 1)] + [-a] * (d - 1)
    hi = [a * (12 * j + 1)] + [a] * (d - 1)
    return (tuple(lo), tuple(hi), (30 * k * b, (30 * k + 1) * b))


def _admissible_anchors(which: str, geo: BlockGeometry, d: int):
    n, L = geo.n, geo.L
    if which == A1:
        ranges = [range(0, L)] * d
    elif which == A2:
        ranges = [range(L + n, L + n + 1)] + [range(0, L)] * (d - 1)
    else:
        ranges = [range(L + n, 2 * L + n + 1)] + [range(0, 2 * L)] * (d - 1)
    return [tuple(x) for x in product(*ranges)]


def _cube_event_occurred(traj, g, anchors, n, window, at_time=None):
    """Did some anchor's cube become fully infected: at ``at_time`` exactly,
    or anywhere in the half-open ``window`` of times."""
    cube_size = (2 * n + 1) ** g.dimension
    cubes = {}
    site_to_cubes = {}
    for a_idx, x in enumerate(anchors):
        ids = g.cube_sites(x, n)
        cubes[a_idx] = 0
        for s in ids:
            site_to_cubes.setdefault(int(s), []).append(a_idx)
    for s in traj.c0:
        for a_idx in site_to_cubes.get(s, ()):
            cubes[a_idx] += 1

    def full_now():
        return any(v == cube_size for v in cubes.values())

    if at_time is not None:
        for t, j, sign in traj.site_deltas:
            if t > at_time:
                break
            for a_idx in site_to_cubes.get(j, ()):
                cubes[a_idx] += sign
        return full_now()

    w_lo, w_hi = window
    entered = False
    for t, j, sign in traj.site_deltas:
        if not entered and t >= w_lo:
            entered = True
            if full_now():
                return True
        if t >= w_hi:
            return False
        hit = site_to_cubes.get(j)
        if hit is None:
            continue
        for a_idx in hit:
            cubes[a_idx] += sign
            if sign > 0 and entered and cubes[a_idx] == cube_size:
                return True
    if not entered:
        return full_now()
    return False


def estimate_block_event(which: str, n: int, L: int, T: float,
                         params: RunParams, reps: int, seed: int,
                         *, lam_ceiling: float | None = None,
                         q_ceiling: float | None = None) -> Estimate:
    """Monte Carlo frequency of one block event on truncated runs started
    from (cube of radius n, all edges closed).

    Requires the independent-edge background: restricting a general
    environment to a finite window is not well posed without choosing a
    boundary law, and the macroscopic comparison needs the spatial
    independence of shifted events.

    Sweeps over the infection or opening rate that share a root seed and the
    matching generation ceiling (lam_ceiling, or q_ceiling at least
    alpha+beta of every swept environment) are coupled pathwise, so the
    estimates themselves are monotone.
    """
    if which not in (A1, A2, A3):
        raise ValueError(f"event must be one of A1, A2, A3, got {which!r}")
    geo = BlockGeometry(n=n, L=L, T=T)
    spec = params.spec
    if spec is None or not spec.is_dp:
        raise ValueError("block events are defined against the independent-edge background")
    g = params.graph
    trunc = geo.truncation(which)
    if g.half_width < trunc:
        raise ValueError(
            f"geometry violation: box half-width {g.half_width} < required {trunc} "
            f"(= truncation scale of {which} at n={n}, L={L})")
    lam_gen = params.lam if lam_ceiling is None else lam_ceiling
    q_gen = spec.flip_rate if q_ceiling is None else q_ceiling
    if lam_gen < params.lam or q_gen + 1e-12 < spec.flip_rate:
        raise ValueError("generation ceilings must dominate the run rates")
    horizon = {A1: T + 1.0, A2: T + 1.0, A3: 2.0 * T}[which]
    anchors = _admissible_anchors(which, geo, g.dimension)
    c0 = g.cube_sites((0,) * g.dimension, n)

    hits = 0
    for i in range(reps):
        rep_seed = derive_seed(seed, i)
        tl = build_timeline(g, lam_gen, params.r, q_gen, horizon, rep_seed)
        run = RunParams(g, params.lam, params.r, spec, horizon, rep_seed)
        traj = evolve_truncated(trunc, run, c0, (), tl)
        if which == A1:
            ok = _cube_event_occurred(traj, g, anchors, n, None, at_time=T + 1.0)
        elif which == A2:
            ok = _cube_event_occurred(traj, g, anchors, n, (1.0, T + 1.0))
        else:
            ok = _cube_event_occurred(traj, g, anchors, n, (T, 2.0 * T))
        if ok:
            hits += 1
    return _estimate(hits, reps, seed, censored=0)


@dataclass(frozen=True)
class BlockScaleResult:
    found: bool
    n: int
    L: int
    T: float
    est_a1: Estimate
    est_a2: Estimate
    ladder: tuple


def find_block_scale(params: RunParams, eps: float, *, max_n: int = 8,
                     max_L: int = 64, max_T: float = 64.0, reps: int, seed: int) -> BlockScaleResult:
    """Greedy doubling search for scales at which A1 and A2 both clear 1-eps.

    Steps double L and T and double n every other step; stops at the first
    triple whose lower Wilson bounds both exceed 1-eps.  Failure is a value:
    the best triple found (by the smaller of the two lower bounds) comes
    back with found=False.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    ladder = []
    n, L, T = 1, 2, 2.0
    step = 0
    while n <= max_n and L <= max_L and T <= max_T:
        ladder.append((n, L, T))
        step += 1
        L *= 2
        T *= 2.0
        if step % 2 == 0:
            n *= 2
    best = None
    tried = []
    for n, L, T in ladder:
        if params.graph.half_width < 2 * L + 2 * n:
            continue
        est1 = estimate_block_event(A1, n, L, T, params, reps, derive_seed(seed, mix64(n * 1000 + L)))
        est2 = estimate_block_event(A2, n, L, T, params, reps, derive_seed(seed, mix64(n * 1000 + L + 1)))
        lo1 = wilson_bounds(round(est1.p_hat * reps), reps)[0]
        lo2 = wilson_bounds(round(est2.p_hat * reps), reps)[0]
        tried.append((n, L, T, est1, est2))
        if best is None or min(lo1, lo2) > best[0]:
            best = (min(lo1, lo2), n, L, T, est1, est2)
        if lo1 > 1 - eps and lo2 > 1 - eps:
            return BlockScaleResult(True, n, L, T, est1, est2, tuple(tried))
    if best is None:
        raise ValueError("no ladder entry fits inside the given box")
    _, n, L, T, est1, est2 = best
    return BlockScaleResult(False, n, L, T, est1, est2, tuple(tried))


# ---------------------------------------------------------------------------
# oriented site percolation on the even sublattice of Z x N0

@dataclass(frozen=True)
class PercolationState:
    level: int
    open_sites: frozenset
    q: float

    def __post_init__(self):
        for j in self.open_sites:
            if (j + self.level) % 2 != 0:
                raise ValueError(f"site {j} violates the parity of level {self.level}")


def _site_uniform(seed: int, j: int, k: int) -> float:
    return uniform_from(seed, k, j & ((1 << 64) - 1))


def oriented_percolation_run(q: float, w0, k_max: int, seed: int) -> list:
    """Level-by-level growth: a site at level k+1 opens with probability q
    (independently, via a per-(site, level) uniform) and is reached iff one
    of its two lower neighbours was reached.  Uniforms depend only on
    (seed, site, level), so runs at q1 <= q2 with one seed are nested."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    w = frozenset(int(j) for j in w0)
    for j in w:
        if j % 2 != 0:
            raise ValueError("initial sites must sit on the even sublattice")
    path = [PercolationState(0, w, q)]
    for k in range(1, k_max + 1):
        prev = path[-1].open_sites
        if not prev:
            path.append(PercolationState(k, frozenset(), q))
            break
        nxt = set()
        for j in prev:
            for j2 in (j - 1, j + 1):
                if j2 in nxt:
                    continue
                if _site_uniform(seed, j2, k) < q:
                    nxt.add(j2)
        path.append(PercolationState(k, frozenset(nxt), q))
    return path


def percolation_survival(q: float, reps: int, k_max: int, seed: int,
                         w0=(0,)) -> Estimate:
    """Fraction of replicas whose front is still alive at level k_max."""
    alive = 0
    for i in range(reps):
        path = oriented_percolation_run(q, w0, k_max, derive_seed(seed, i))
        if path[-1].level == k_max and path[-1].open_sites:
            alive += 1
    return _estimate(alive, reps, seed)
