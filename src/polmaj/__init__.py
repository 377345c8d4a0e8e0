"""Majorization of SU(2) Husimi polarization distributions on the Poincare sphere."""

from .majorize import (DEFAULT_TOL, LorenzCurve, PartialOrderResult, Relation, Verdict,
                       compare, lorenz, partial_order, render_chain)
from .measures import ALPHA_SWEEP, RENYI_Q_SWEEP, confidence_interval, renyi
from .qfunction import q_on_grid
from .sphere_grid import (DEFAULT_GRID, DiscreteDistribution, EvaluationError, GridSpec,
                          band_thetas, discretize_state, sector_phis)
from .states import (AnalyticQFamily, EulerRotation, MixedState, PureFockState,
                     apply_su2, make_analytic, make_coherent, make_hs_extremal, make_noon,
                     make_phase, make_squeezed, random_pure, wigner_d_matrix)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_SWEEP", "AnalyticQFamily", "DEFAULT_GRID", "DEFAULT_TOL", "DiscreteDistribution",
    "EulerRotation", "EvaluationError", "GridSpec", "LorenzCurve", "MixedState",
    "PartialOrderResult", "PureFockState", "RENYI_Q_SWEEP", "Relation", "Verdict",
    "apply_su2", "band_thetas", "compare", "confidence_interval", "discretize_state",
    "lorenz", "make_analytic", "make_coherent", "make_hs_extremal", "make_noon",
    "make_phase", "make_squeezed", "partial_order", "q_on_grid", "random_pure",
    "render_chain", "renyi", "sector_phis", "wigner_d_matrix",
]
