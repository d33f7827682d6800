"""Attractive finite-range edge dynamics: the environments infections live in.

Three concrete families are supported, all of range 1 on the line graph of
the box:

* independent open/close dynamics per edge ("dynamical-percolation", rates
  alpha up and beta down),
* the noisy voter rule on the 1-d lattice (imitate a line-graph neighbour at
  rate beta each, plus spontaneous flips at rate alpha/2),
* the heat-bath ferromagnet ("ising") at inverse temperature beta_inv.

For all three the flip rate at an edge depends on its own state and on the
number of open edges among its line-graph neighbours; boundary edges of a
truncated box use the same rule with the missing neighbours treated as
closed.  Attractiveness (more open neighbours never slow an opening, never
speed a closing) is validated at every open-neighbour count when a spec is
built.

Dynamics are realized by uniformization: each edge carries one candidate
clock of rate Q = max over open-neighbour counts of (up rate + down rate),
and the event's uniform mark decides the flip.  Up-flips read the mark from the
bottom of [0,1), down-flips from the top, so two copies started from nested
states can never cross; this is what makes the two-sided sandwich from the
empty and full edge sets an exact computation of the permanently decided
region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphical import Timeline, _unpack, build_timeline
from .lattice import GraphView

DYNAMICAL_PERCOLATION = "dynamical-percolation"
NOISY_VOTER = "noisy-voter"
ISING = "ising"

class UnsupportedOperationError(RuntimeError):
    """The requested quantity has no closed form for this background."""


@dataclass(frozen=True)
class RateBounds:
    alpha_min: float
    alpha_max: float
    beta_min: float
    beta_max: float


@dataclass(frozen=True)
class ErgodicityMargin:
    influence_sum: float        # total influence of neighbours on one edge's rate
    rate_floor: float           # uniform floor on up rate + down rate
    margin: float               # rate_floor - influence_sum
    kappa_exact: float | None   # alpha + beta for dynamical percolation, else None


@dataclass(frozen=True, eq=False)
class BackgroundSpec:
    """Validated edge-dynamics specification.

    up_table[k] / down_table[k] are the opening / closing rates of an edge
    with k open line-graph neighbours out of nbr_count interior ones.
    """

    kind: str
    dimension: int
    nbr_count: int
    up_table: tuple
    down_table: tuple
    flip_rate: float            # uniformization clock rate Q
    alpha: float | None = None
    beta: float | None = None
    beta_inv: float | None = None
    attractive: bool = True
    reversible: bool = True
    range_: int = 1

    def rate(self, edge_open: bool, open_nbrs: int) -> float:
        """Flip rate of an edge given its state and open-neighbour count."""
        return self.down_table[open_nbrs] if edge_open else self.up_table[open_nbrs]

    @property
    def is_dp(self) -> bool:
        return self.kind == DYNAMICAL_PERCOLATION


def _tables(kind, n, alpha, beta, beta_inv):
    counts = range(n + 1)
    if kind == DYNAMICAL_PERCOLATION:
        return tuple(alpha for _ in counts), tuple(beta for _ in counts)
    if kind == NOISY_VOTER:
        return (tuple(alpha / 2 + beta * k for k in counts),
                tuple(alpha / 2 + beta * (n - k) for k in counts))
    if kind == ISING:
        up = tuple(1.0 - math.tanh(beta_inv * (n - 2 * k)) for k in counts)
        down = tuple(1.0 - math.tanh(beta_inv * (2 * k - n)) for k in counts)
        return up, down
    raise ValueError(f"unknown background kind {kind!r}")


def make_spec(kind: str, *, alpha: float | None = None, beta: float | None = None,
              beta_inv: float | None = None, d: int = 1) -> BackgroundSpec:
    """Build and validate a background spec for boxes of dimension d."""
    for name, v in (("alpha", alpha), ("beta", beta), ("beta_inv", beta_inv)):
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if kind == DYNAMICAL_PERCOLATION:
        if alpha is None or beta is None or alpha <= 0 or beta <= 0:
            raise ValueError("dynamical percolation needs alpha > 0 and beta > 0")
    elif kind == NOISY_VOTER:
        if d != 1:
            raise ValueError("the noisy voter background is defined on the 1-d lattice only")
        if alpha is None or beta is None or alpha <= 0 or beta <= 0:
            raise ValueError("noisy voter needs alpha > 0 and beta > 0")
    elif kind == ISING:
        if beta_inv is None or beta_inv <= 0:
            raise ValueError("ising needs beta_inv > 0")
        n = 4 * d - 2
        if n > 2:  # for n == 2 the admissible range is unbounded
            cap = 0.25 * math.log((n + 2) / (n - 2))
            if beta_inv >= cap:
                raise ValueError(
                    f"beta_inv={beta_inv} outside the admissible range (0, {cap:.6g}) "
                    f"for line-graph degree {n}")
    else:
        raise ValueError(f"unknown background kind {kind!r}")

    n = 4 * d - 2
    up, down = _tables(kind, n, alpha, beta, beta_inv)
    _check_attractive(up, down, n)
    q = max(u + v for u, v in zip(up, down))
    return BackgroundSpec(kind=kind, dimension=d, nbr_count=n, up_table=up,
                          down_table=down, flip_rate=q, alpha=alpha, beta=beta,
                          beta_inv=beta_inv)


def _check_attractive(up, down, n):
    # adding one open neighbour to an edge with k < n of them may never
    # lower its up rate or raise its down rate
    for k in range(n):
        if up[k] > up[k + 1] + 1e-12:
            raise ValueError(
                f"attractiveness violated: opening rate drops from {up[k]} to {up[k + 1]} "
                f"when the open neighbours rise from {k} to {k + 1}")
        if down[k] < down[k + 1] - 1e-12:
            raise ValueError(
                f"attractiveness violated: closing rate rises from {down[k]} to {down[k + 1]} "
                f"when the open neighbours rise from {k} to {k + 1}")


def min_max_rates(spec: BackgroundSpec) -> RateBounds:
    """Extremes of the up and down rates over all open-neighbour counts."""
    return RateBounds(alpha_min=min(spec.up_table), alpha_max=max(spec.up_table),
                      beta_min=min(spec.down_table), beta_max=max(spec.down_table))


def ergodicity_margin(spec: BackgroundSpec) -> ErgodicityMargin:
    """Influence sum M, flip-rate floor, and their gap.

    M sums, over the nbr_count neighbouring edges, the largest change a
    single neighbour flip can make to this edge's rate; the floor is the
    least value of up + down over open-neighbour counts.  The rates read
    only the count, which one flip moves by one, so every neighbour's
    largest change is the same.  A positive margin certifies exponentially
    fast loss of memory of the initial state.
    """
    up, down, n = spec.up_table, spec.down_table, spec.nbr_count
    worst = max([0.0] + [abs(t[k] - t[k + 1]) for t in (up, down) for k in range(n)])
    m_total = 0.0
    for _ in range(n):
        m_total += worst
    floor = min(u + d for u, d in zip(up, down))
    kappa = (spec.alpha + spec.beta) if spec.is_dp else None
    return ErgodicityMargin(influence_sum=m_total, rate_floor=floor,
                            margin=floor - m_total, kappa_exact=kappa)


def sample_stationary_dp(g: GraphView, alpha: float, beta: float, seed: int) -> np.ndarray:
    """Stationary edge set for independent dynamics: each edge open with
    probability alpha/(alpha+beta), independently."""
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    return np.flatnonzero(rng.random(g.n_edges) < alpha / (alpha + beta)).astype(np.int32)


def sample_stationary(spec: BackgroundSpec, g: GraphView, seed: int) -> np.ndarray:
    if not spec.is_dp:
        raise UnsupportedOperationError(
            f"the stationary law of a {spec.kind!r} background has no closed form; "
            "start from a burn-in instead")
    return sample_stationary_dp(g, spec.alpha, spec.beta, seed)


def evolve_background(spec: BackgroundSpec, b0, tl, t: float) -> np.ndarray:
    """Edge set at time t: the environment path of (spec, b0) on the timeline
    (engine.background_path, stored on forward timelines) replayed through t.
    A timeline without flip candidates leaves b0 as it is."""
    from .engine import background_path     # engine imports this module
    if not 0 <= t <= tl.t_max + 1e-9:
        raise ValueError(f"t={t} outside the timeline window [0, {tl.t_max}]")
    if _unpack(tl)[0].flip_rate == 0:
        edges = frozenset(int(e) for e in b0)
    else:
        edges = background_path(spec, b0, tl).edges_at(t)
    return np.array(sorted(edges), dtype=np.int32)


@dataclass(frozen=True)
class CoupledRegion:
    edges: np.ndarray
    exact: bool          # True for dynamical percolation, horizon-approximate otherwise
    horizon: float
    t: float


def decided_times(spec: BackgroundSpec, tl):
    """Per edge: the time from which its state stops depending on the initial
    configuration, within the timeline horizon (inf if never, through the
    horizon).

    Merges, per edge in feed order, the edge deltas of the two extreme
    paths (all edges closed / all open; engine.background_path, stored on
    forward timelines, which checks the timeline against spec).  The copies
    start apart and can only part again through a delta, so an edge's time is
    that of the event whose deltas last made them agree.  Attractiveness makes
    the two-extreme comparison equivalent to comparing all initial pairs.
    For dynamical percolation an edge is decided forever by its first
    deciding event, so the times are exact; for other specs they are
    horizon approximations.
    """
    from .engine import background_path     # engine imports this module
    n = tl.graph.n_edges
    paths = [background_path(spec, b0, tl) for b0 in ((), range(n))]
    at = np.concatenate([path._flip_at for path in paths])
    t, e, _ = (np.concatenate(a) for a in zip(*(path.until(math.inf) for path in paths)))
    order = np.lexsort((at, e))
    t, e, at = t[order], e[order], at[order]
    # each delta moves one copy, so the copies agree after an odd number of an edge's deltas
    odd = (np.arange(len(e)) - np.searchsorted(e, e)) % 2 == 0
    end = np.ones(len(e), dtype=bool)
    end[:-1] = (e[1:] != e[:-1]) | (at[1:] != at[:-1])     # an event's last delta
    t, e, agree = t[end], e[end], odd[end]
    # per event: the edge's latest event that left the copies apart, or the one before its first
    apart = np.maximum.accumulate(np.where(agree, np.searchsorted(e, e) - 1, np.arange(len(e))))
    decided = agree.copy()
    decided[:-1] &= e[1:] != e[:-1]     # agreeing after the edge's last event
    couple_time = np.full(n, math.inf)
    couple_time[e[decided]] = t[apart[decided] + 1]
    return couple_time.tolist(), tl.t_max


def coupled_region(spec: BackgroundSpec, tl, t: float) -> CoupledRegion:
    """Edges whose state no longer depends on the initial configuration at t;
    exact for dynamical percolation, horizon-approximate (and flagged so)
    otherwise.  See decided_times."""
    couple_time, horizon = decided_times(spec, tl)
    if not 0 <= t <= horizon + 1e-9:
        raise ValueError(f"t={t} outside the timeline window [0, {horizon}]")
    n = len(couple_time)
    edges = np.array([e for e in range(n) if couple_time[e] <= t], dtype=np.int32)
    return CoupledRegion(edges=edges, exact=spec.is_dp, horizon=horizon, t=t)


def timeline_for_background(spec: BackgroundSpec, g: GraphView, t_max: float,
                            seed: int, **kw) -> Timeline:
    """Timeline carrying only this background's candidate events."""
    return build_timeline(g, 0.0, 0.0, spec.flip_rate, t_max, seed, **kw)
