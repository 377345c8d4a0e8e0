"""Majorization-consistent scalar uncertainty measures.

Confidence intervals K(alpha) and Renyi entropies R_q are both monotone under
majorization: if p majorizes q then K(alpha) of p is never larger and R_q of p is
never larger, for every alpha and every q > 0.  Entropies are in nats.
"""

from __future__ import annotations

import numpy as np

from .majorize import _descending_cumsum
from .sphere_grid import DiscreteDistribution

# standard sweeps used by the consistency checks and the CLI tables
RENYI_Q_SWEEP = (0.5, 1.0, 2.0, 5.0)
ALPHA_SWEEP = tuple(round(0.05 * i, 2) for i in range(1, 20))


def confidence_interval(dist: DiscreteDistribution, alpha: float) -> int:
    """Smallest pixel count K whose largest-K probabilities reach total alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"confidence level must lie in (0, 1], got {alpha!r}")
    # the pinned endpoint makes alpha = 1 resolve to the support size
    s = _descending_cumsum(dist.p)
    return int(np.searchsorted(s, alpha, side="left")) + 1


def renyi(dist: DiscreteDistribution, q: float) -> float:
    """Renyi entropy R_q = ln(sum p^q)/(1-q); Shannon entropy at q = 1.

    Zero-probability pixels contribute nothing for every q.
    """
    if q <= 0.0:
        raise ValueError(f"entropy index must be > 0, got {q!r}")
    p = dist.p[dist.p > 0.0]
    if q == 1.0:
        return float(-np.sum(p * np.log(p)))
    return float(np.log(np.sum(p ** q)) / (1.0 - q))
