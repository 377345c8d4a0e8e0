"""Majorization-consistent scalar uncertainty measures.

Confidence intervals K(alpha) and Renyi entropies R_q are both monotone under
majorization: if p majorizes q then K(alpha) of p is never larger and R_q of p is
never larger, for every alpha and every q > 0.  Entropies are in nats.
"""

from __future__ import annotations

import math

import numpy as np

from .sphere_grid import DiscreteDistribution

# standard sweeps used by the consistency checks and the CLI tables
RENYI_Q_SWEEP = (0.5, 1.0, 2.0, 5.0)
ALPHA_SWEEP = tuple(round(0.05 * i, 2) for i in range(1, 20))


def confidence_interval(dist: DiscreteDistribution, alpha: float) -> int:
    """Smallest pixel count K whose largest-K probabilities reach total alpha."""
    if isinstance(alpha, (bool, np.bool_)) or not 0.0 < alpha <= 1.0:
        raise ValueError(f"confidence level must lie in (0, 1], got {alpha!r}")
    if alpha == 1.0:    # S_k can round to 1.0 before the last pixel that carries mass
        return int(np.count_nonzero(dist.values)) * dist.repeat
    return int(np.searchsorted(dist.descending_cumsum, alpha, side="left")) + 1


def renyi(dist: DiscreteDistribution, q: float) -> float:
    """Renyi entropy R_q = ln(sum p^q)/(1-q) for q in (0, inf]: the Shannon
    entropy at q = 1 and the min-entropy -ln p_max at q = inf.

    Written against p_max, R_q = q/(1-q) ln p_max + ln(sum (p/p_max)^q)/(1-q):
    no power underflows at large q, and q ln p_max cannot overflow.  Near the
    Shannon point the two terms cancel, so for |q - 1| < 1/2 the sum is taken as
    R_q = -ln p_max - log1p(sum p expm1((q-1) ln(p/p_max)))/(q-1), which stays
    accurate as q -> 1.
    Zero-probability pixels contribute nothing for every q.  The sums run over
    dist.values, one term per stored value, times dist.repeat.
    """
    if isinstance(q, (bool, np.bool_)) or not q > 0.0:
        raise ValueError(f"entropy index must be > 0, got {q!r}")
    p = dist.values[dist.values > 0.0]
    r = dist.repeat
    if q == 1.0:
        return float(-r * np.sum(p * np.log(p)))
    p_max = float(p.max())
    if q == math.inf:
        return -math.log(p_max)
    t = q - 1.0
    x = p / p_max
    if abs(t) < 0.5:
        return -math.log(p_max) - math.log1p(r * float(np.sum(p * np.expm1(t * np.log(x))))) / t
    x **= q  # in place: a fine grid makes every N-sized temporary count
    return q / (1.0 - q) * math.log(p_max) + math.log(r * float(np.sum(x))) / (1.0 - q)
