"""Contact processes on dynamically rewiring lattice environments.

Deterministic, seed-reproducible simulation of an infection spreading over
the edges of a finite lattice box while those edges open and close under
their own attractive dynamics, plus the couplings, the time-reversed run,
Monte Carlo estimators, and the block/percolation machinery built on top.
"""

__version__ = "0.1.0"

from .lattice import Ball, GraphView, SizingError, build_box, ball, graph_distance
from .graphical import (Timeline, TimelineView, build_timeline, derive_seed,
                        reverse_view, thin_view, to_ndjson)
from .background import (BackgroundSpec, CoupledRegion, ErgodicityMargin,
                         RateBounds, UnsupportedOperationError, coupled_region,
                         decided_times, ergodicity_margin, evolve_background,
                         make_spec, min_max_rates, sample_stationary,
                         sample_stationary_dp)
from .engine import (BackgroundPath, RunParams, Trajectory, background_path,
                     coupled_bounds_cpdp, delayed_variant, dual_evolve,
                     duality_indicators, evolve, evolve_levels, evolve_released,
                     evolve_scan, evolve_truncated, is_contained_pathwise, phi_set,
                     richardson, trajectory_to_ndjson, union_matches_pathwise)
from .analysis import (Bracket, Estimate, condition_block_curve,
                       coupling_speed_report, estimate_critical_lambda,
                       estimate_survival, growth_gap, growth_vs_coupling_curve,
                       hitting_bound_report, local_survival_proxy, phase_scan,
                       reach_bound_halfwidth, self_duality_check, solve_c1,
                       wilson_bounds, wilson_half_width)
from .blocks import (BlockGeometry, BlockScaleResult, PercolationState,
                     estimate_block_event, find_block_scale,
                     oriented_percolation_run, percolation_survival)
