"""Checks of polmaj's outputs against the closed-form reference and against
properties the method must have.  Nothing here imports polmaj: outputs arrive
as plain numbers, arrays and strings, and each check returns a list of
problems, empty when the output passes.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

# polmaj's DEFAULT_TOL, the verdict tolerance on cumulative sums.  It is fixed
# here rather than read from polmaj so that a change to the program cannot
# loosen the checks.
TOL = 1e-3

# chains pinned by the acceptance criteria 1-6 of polmaj's test suite
FIGURES = {
    "fig3": (["noon:n=2", "squeezed:n=2", "hs:n=2", "phase:n=2", "coherent:n=2"], "N≡S≡H ≺ P ≺ C"),
    "fig4": (["noon:n=3", "hs:n=3", "squeezed:n=3", "phase:n=3", "coherent:n=3"], "N≡H ≺ S ≺ P ≺ C"),
    "fig5": (["hs:n=4", "squeezed:n=4", "noon:n=4", "phase:n=4", "coherent:n=4"], "H ≺ S ⋈ N ≺ P ≺ C"),
    "fig6": (["hs:n=5", "noon:n=5", "squeezed:n=5", "phase:n=5", "coherent:n=5"], "H ≺ N ≺ S ≺ P ≺ C"),
    "fig7": (["coherent:n=2", "noon:n=6"], "C ⋈ N"),
    "fig8": (["tmsv:nbar=10", "thermal:nbar=10", "glauber:nbar=10"], "S ≺ T ≺ C"),
}


def check_lorenz_curve(s: np.ndarray) -> list[str]:
    """S_k nondecreasing, concave (increments nonincreasing), S_N = 1."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size == 0 or not np.all(np.isfinite(s)):
        return ["curve is not a finite 1-d array"]
    inc = np.diff(np.concatenate(([0.0], s)))
    problems = []
    if inc.min() < 0.0:
        problems.append(f"curve decreases (min increment {inc.min():.3e})")
    if np.diff(inc).max(initial=0.0) > 1e-12:
        problems.append(f"curve not concave (increment rises by {np.diff(inc).max():.3e})")
    if abs(s[-1] - 1.0) > 1e-9:
        problems.append(f"S_N = {s[-1]!r}, not 1")
    return problems


def curve_distance(s: np.ndarray, exact: ref.ExactCurve) -> float:
    """sup_k |S_k - E_k| over k = 1..N."""
    s = np.asarray(s, dtype=float)
    if s.size != exact.n:
        return math.inf
    return float(np.max(np.abs(s - exact.at(np.arange(1, s.size + 1)))))


def check_against_exact(label: str, s: np.ndarray, exact: ref.ExactCurve, tol: float = TOL) -> list[str]:
    dist = curve_distance(s, exact)
    if not dist <= tol:
        return [f"{label}: curve is {dist:.3e} from the closed form (bound {tol:g})"]
    return []


def relation(d: np.ndarray, tol: float = TOL) -> str:
    """Majorization verdict of curve a against curve b from d = S(a) - S(b)."""
    up, dn = float(np.max(d)), float(np.min(d))
    if up <= tol and -dn <= tol:
        return "equal"
    if dn >= -tol:
        return "majorizes"
    if up <= tol:
        return "majorized_by"
    return "incomparable"


# ------------------------------------------------------------------- figures

def check_figure(fig: str, rc: int, payload: dict, comments: dict[str, str], header: list[str],
                 columns: np.ndarray, exact: dict[str, ref.ExactCurve]) -> list[str]:
    """One `polmaj reproduce` result: exit code, verdict JSON and Lorenz CSV.

    `comments` maps the CSV's `# key=value` lines; `columns` holds the S_k
    columns (one per state, in CSV order); `exact` maps designators to their
    closed-form curves on the figure's grid.
    """
    specs, chain = FIGURES[fig]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if payload.get("chain") != chain:
        problems.append(f"chain {payload.get('chain')!r}, expected {chain!r}")
    if payload.get("violations") != []:
        problems.append(f"violations {payload.get('violations')!r}")
    if payload.get("stability", {}).get("verdicts_unchanged") is not True:
        problems.append("doubled-grid verdicts changed")
    if comments.get("states", "").split() != specs:
        problems.append(f"CSV states {comments.get('states')!r}, expected {' '.join(specs)!r}")
        return problems
    if len(header) != len(specs) + 1 or columns.shape[1] != len(specs):
        problems.append(f"CSV has {columns.shape[1]} curve columns for {len(specs)} states")
        return problems
    for spec, s in zip(specs, columns.T):
        problems += [f"{spec}: {p}" for p in check_lorenz_curve(s)]
        if spec in exact:
            problems += check_against_exact(spec, s, exact[spec])
    return problems


# ---------------------------------------------------------------- lieb-sweep

def rotated_coherent_q(n: int, alpha: float, beta: float, theta: float, phi: float) -> float:
    """Q of the pole coherent state rotated to point at (beta, alpha):
    (n+1)/(4 pi) ((1 + cos Theta)/2)^n, Theta the angle between the two directions."""
    cos_big = (math.sin(theta) * math.sin(beta) * math.cos(phi - alpha)
               + math.cos(theta) * math.cos(beta))
    return (n + 1) / (4.0 * math.pi) * ((1.0 + cos_big) / 2.0) ** n


def check_pixels(p: np.ndarray, raw_mass: float, pixels, q_ref, n: int, n_theta: int, n_phi: int) -> list[str]:
    """p_j times raw_mass must equal Q(centre of j) times 4 pi / N."""
    big_n = n_theta * n_phi
    scale = (n + 1) / big_n                    # largest possible pixel mass
    problems = []
    for j in pixels:
        theta, phi = ref.pixel_center(j, n_theta, n_phi)
        want = q_ref(theta, phi) * 4.0 * math.pi / big_n
        got = float(p[j - 1]) * raw_mass
        if not abs(got - want) <= 1e-9 * scale:
            problems.append(f"pixel {j}: {got!r} != {want!r}")
    return problems


def check_lieb(n: int, rotated: bool, curve: np.ndarray, coherent: np.ndarray, v_coherent: str,
               hs: np.ndarray | None, v_hs: str | None) -> list[str]:
    """Verdicts of the sample against the pole coherent state and, for n = 4, 5,
    the Hilbert-Schmidt extremal state."""
    problems = []
    want = relation(coherent - curve)
    if v_coherent != want:
        problems.append(f"coherent verdict {v_coherent!r}, curves give {want!r}")
    if rotated:
        if v_coherent != "equal":
            problems.append(f"rotated coherent state compares {v_coherent!r} with the pole one")
    elif v_coherent not in ("majorizes", "equal"):
        problems.append(f"coherent state does not majorize the sample ({v_coherent!r})")
    if hs is not None:
        want = relation(hs - curve)
        if v_hs != want:
            problems.append(f"hs verdict {v_hs!r}, curves give {want!r}")
        if v_hs == "majorizes":
            problems.append("hs state majorizes a sample")
    return problems


# ----------------------------------------------------------------- fine-grid

def check_measures(label: str, ks, alphas, rs, qs, exact: ref.ExactCurve, tol: float = TOL) -> list[str]:
    """K(alpha) and R_q of a distribution whose curve lies within tol of `exact`.

    Any such curve lies between exact.raised(tol), the least spread one, and
    exact.lowered(tol), the most spread one.  K and R_q are both monotone
    under majorization, so they lie between their values on those two curves.
    """
    hi, lo = exact.raised(tol), exact.lowered(tol)
    problems = []
    for a, k in zip(alphas, ks):
        k_min, k_max = hi.confidence_interval(a), lo.confidence_interval(a)
        if not k_min - 1 <= k <= k_max + 1:
            problems.append(f"{label}: K({a:g}) = {k} outside [{k_min}, {k_max}]")
    for q, r in zip(qs, rs):
        r_min, r_max = hi.renyi(q), lo.renyi(q)
        slack = 1e-9 * max(1.0, abs(r_max))
        if not r_min - slack <= r <= r_max + slack:
            problems.append(f"{label}: R_{q:g} = {r!r} outside [{r_min:.6g}, {r_max:.6g}]")
    return problems
