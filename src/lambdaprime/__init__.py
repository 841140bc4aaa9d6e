"""Exact parameter sweeps for resolution-parametric graph clustering.

Solve, approximate, and certify the lamprime/lamcc clustering objectives
across every resolution parameter lam in (0,1): exact optimal families on
small graphs, LP relaxation sweeps with (1+eps) certificates, sensitivity
ranges, frontier covers, LP rounding, and closed-form oracles for rings and
stars.
"""

from .graphs import Graph, gen_gnp, gen_path, gen_ring, gen_star, load_graph, save_graph
from .objectives import (
    Clustering,
    CostLine,
    degree_weights,
    lamcc_score,
    lamprime_score,
    line_of,
    weighted_lamprime_score,
)
from .curves import PwlCurve, PwlPiece, envelope_of
from .exact import enumerate_partitions, exact_opt_curve, scaled_sparsest_cut
from .lp import LpSolution, build_lp, lp_curve, solve_lp, verify_certificate
from .sensitivity import LambdaInterval, eps_range, orlp
from .sweeps import (
    CoverFamily,
    CoverMember,
    CoverReport,
    certify_cover,
    family_envelope,
    forward_factor,
    geometric_schedule,
    sweep_fe,
    sweep_febe,
    sweep_geometric,
)
from .analytic import (
    lamcc_ratio,
    lamcc_schedule,
    ms_gamma,
    ring_f,
    ring_g,
    ring_lower_bound,
    ring_lp,
    ring_q,
    ring_special_lambdas,
    star_lp_solution,
)
from .rounding import RoundedMember, build_clustering_family, round_region_growing

__version__ = "0.1.0"
