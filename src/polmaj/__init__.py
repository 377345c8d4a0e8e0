"""Majorization of SU(2) Husimi polarization distributions on the Poincare sphere."""

from .majorize import (DEFAULT_TOL, LorenzCurve, PartialOrderResult, Relation, Verdict,
                       compare, lorenz, partial_order, permutation_mix, render_chain,
                       t_transform)
from .measures import ALPHA_SWEEP, RENYI_Q_SWEEP, confidence_interval, renyi
from .qfunction import Direction, q_analytic, q_mixed, q_on_grid, q_pure, su2_overlap
from .sphere_grid import (DEFAULT_GRID, DiscreteDistribution, EvaluationError, GridSpec,
                          band_thetas, discretize_state, grid_directions, sector_phis)
from .states import (AnalyticQFamily, EulerRotation, MixedState, PureFockState,
                     apply_su2, compose_rotations, make_analytic, make_coherent,
                     make_hs_extremal, make_noon, make_phase, make_squeezed,
                     random_pure, rotation_matrix, state_overlap, wigner_d_matrix)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_SWEEP", "AnalyticQFamily", "DEFAULT_GRID", "DEFAULT_TOL", "Direction",
    "DiscreteDistribution", "EulerRotation", "EvaluationError", "GridSpec",
    "LorenzCurve", "MixedState", "PartialOrderResult", "PureFockState",
    "RENYI_Q_SWEEP", "Relation", "Verdict", "apply_su2", "band_thetas", "compare",
    "compose_rotations", "confidence_interval", "discretize_state",
    "grid_directions", "lorenz", "make_analytic", "make_coherent", "make_hs_extremal",
    "make_noon", "make_phase", "make_squeezed", "partial_order", "permutation_mix",
    "q_analytic", "q_mixed", "q_on_grid", "q_pure", "random_pure",
    "render_chain", "renyi", "rotation_matrix", "sector_phis", "state_overlap",
    "su2_overlap", "t_transform", "wigner_d_matrix",
]
