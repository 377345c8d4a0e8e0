import polmaj

PUBLIC_NAMES = {
    "ALPHA_SWEEP", "AnalyticQFamily", "DEFAULT_GRID", "DEFAULT_TOL", "DiscreteDistribution",
    "EulerRotation", "EvaluationError", "GridSpec", "LorenzCurve", "MixedState",
    "PartialOrderResult", "PureFockState", "RENYI_Q_SWEEP", "Relation", "Verdict",
    "apply_su2", "band_thetas", "compare", "confidence_interval", "discretize_state",
    "lorenz", "make_analytic", "make_coherent", "make_hs_extremal", "make_noon",
    "make_phase", "make_squeezed", "partial_order", "q_on_grid", "random_pure",
    "render_chain", "renyi", "sector_phis", "wigner_d_matrix",
}


def test_public_names_are_pinned():
    # the test-only oracles (T-transforms, permutation mixtures, rotation algebra,
    # state overlaps, pointwise Q) live in tests/oracles.py, not in the package
    assert len(polmaj.__all__) == len(PUBLIC_NAMES) == 34
    assert set(polmaj.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    for name in polmaj.__all__:
        assert getattr(polmaj, name) is not None
