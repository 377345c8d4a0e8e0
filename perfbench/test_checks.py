"""Each output check passes a correct output and rejects a corrupted one.

Correct outputs are built from the closed-form reference, so these tests need
no polmaj.  Run with: python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import checks
import reference as ref

N_THETA = N_PHI = 40
K = np.arange(1, N_THETA * N_PHI + 1)


def exact(spec):
    return ref.ExactCurve.from_bands(ref.band_masses(spec, N_THETA), N_PHI)


def shifted(s):
    """The curve raised by 2 * TOL, still ending at 1."""
    return np.minimum(s + 2 * checks.TOL, 1.0)


def figure_output(fig):
    """A correct reproduce result for `fig` on the N_THETA x N_PHI grid."""
    specs, chain = checks.FIGURES[fig]
    filler = ref.ExactCurve.from_bands(ref.fock_band_masses(1, 1, N_THETA), N_PHI)
    columns = np.column_stack([(exact(s) if ref.has_closed_form(s) else filler).at(K) for s in specs])
    payload = {"chain": chain, "violations": [], "stability": {"verdicts_unchanged": True}}
    comments = {"figure": fig, "states": " ".join(specs)}
    header = ["k"] + [f"S_k_{i}" for i in range(len(specs))]
    curves = {s: exact(s) for s in specs if ref.has_closed_form(s)}
    return payload, comments, header, columns, curves


@pytest.mark.parametrize("fig", sorted(checks.FIGURES))
def test_figure_check_passes_correct_output(fig):
    payload, comments, header, columns, curves = figure_output(fig)
    assert checks.check_figure(fig, 0, payload, comments, header, columns, curves) == []


@pytest.mark.parametrize("fig", ["fig3", "fig5", "fig8"])
def test_figure_check_rejects_shifted_closed_form_column(fig):
    payload, comments, header, columns, curves = figure_output(fig)
    specs = checks.FIGURES[fig][0]
    col = next(i for i, s in enumerate(specs) if s in curves)
    columns[:, col] = shifted(columns[:, col])
    problems = checks.check_figure(fig, 0, payload, comments, header, columns, curves)
    assert any("from the closed form" in p for p in problems)


def test_figure_check_rejects_swapped_chain():
    payload, comments, header, columns, curves = figure_output("fig5")
    payload["chain"] = "H ≺ N ⋈ S ≺ P ≺ C"
    assert checks.check_figure("fig5", 0, payload, comments, header, columns, curves)
    payload["chain"] = "C ≺ P ≺ S ⋈ N ≺ H"
    assert checks.check_figure("fig5", 0, payload, comments, header, columns, curves)


@pytest.mark.parametrize("corrupt", ["exit", "violation", "unstable", "states", "not_concave", "not_one"])
def test_figure_check_rejects_other_faults(corrupt):
    payload, comments, header, columns, curves = figure_output("fig4")
    rc = 0
    if corrupt == "exit":
        rc = 2
    elif corrupt == "violation":
        payload["violations"] = ["transitivity: ..."]
    elif corrupt == "unstable":
        payload["stability"]["verdicts_unchanged"] = False
    elif corrupt == "states":
        comments["states"] = "phase:n=3 coherent:n=3"
    elif corrupt == "not_concave":
        columns[10, 2] = columns[9, 2]            # a flat step, then a rise
    else:
        columns[:, 3] *= 0.99
    assert checks.check_figure("fig4", rc, payload, comments, header, columns, curves)


def test_closed_form_check_rejects_curve_shifted_by_two_tol():
    e = exact("thermal:nbar=10")
    assert checks.check_against_exact("T", e.at(K), e) == []
    assert checks.check_against_exact("T", shifted(e.at(K)), e)
    assert checks.check_against_exact("T", e.at(K)[:-1], e)        # wrong length


def lieb_case(rotated=False):
    coherent = exact("coherent:n=4").at(K)
    sample = coherent if rotated else exact("thermal:nbar=1").at(K)
    hs = exact("tmsv:nbar=1").at(K)
    return coherent, sample, hs


def test_lieb_check_passes_correct_verdicts():
    coherent, sample, hs = lieb_case()
    v_coh = checks.relation(coherent - sample)
    v_hs = checks.relation(hs - sample)
    assert v_coh == "majorizes" and v_hs == "majorized_by"
    assert checks.check_lieb(4, False, sample, coherent, v_coh, hs, v_hs) == []
    coherent, sample, _ = lieb_case(rotated=True)
    assert checks.check_lieb(4, True, sample, coherent, "equal", None, None) == []


@pytest.mark.parametrize("which", ["coherent", "hs"])
def test_lieb_check_rejects_flipped_verdict(which):
    coherent, sample, hs = lieb_case()
    v_coh, v_hs = "majorizes", "majorized_by"
    if which == "coherent":
        v_coh = "majorized_by"
    else:
        v_hs = "majorizes"
    assert checks.check_lieb(4, False, sample, coherent, v_coh, hs, v_hs)


def test_lieb_check_rejects_properties_the_method_must_have():
    coherent, sample, hs = lieb_case()
    # a sample more concentrated than the coherent state: honest verdict, broken Lieb bound
    assert checks.check_lieb(4, False, coherent, sample, checks.relation(sample - coherent), None, None)
    # a rotated coherent state that is not equal to the pole one
    assert checks.check_lieb(4, True, sample, coherent, "majorizes", None, None)
    # hs majorizing the sample
    assert checks.check_lieb(4, False, sample, coherent, "majorizes", coherent, checks.relation(coherent - sample))


def test_pixel_check_rejects_wrong_pixel_value():
    n, big_n = 3, N_THETA * N_PHI
    rng = np.random.default_rng(7)
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    amps = list(z / np.linalg.norm(z))
    raw = np.array([ref.q_point(amps, *ref.pixel_center(j, N_THETA, N_PHI)) * 4 * math.pi / big_n
                    for j in K])
    raw_mass = float(raw.sum())
    p = raw / raw_mass
    pixels = [1, 77, 800, big_n]

    def q_ref(theta, phi):
        return ref.q_point(amps, theta, phi)

    assert checks.check_pixels(p, raw_mass, pixels, q_ref, n, N_THETA, N_PHI) == []
    bad = p.copy()
    bad[76] *= 1.001
    assert checks.check_pixels(bad, raw_mass, pixels, q_ref, n, N_THETA, N_PHI)


def test_rotated_coherent_q_peaks_at_the_rotated_pole():
    n, alpha, beta = 6, 0.7, 1.1
    peak = checks.rotated_coherent_q(n, alpha, beta, beta, alpha)
    assert peak == pytest.approx((n + 1) / (4 * math.pi))
    assert checks.rotated_coherent_q(n, alpha, beta, math.pi - beta, alpha + math.pi) == pytest.approx(0.0)


def test_measure_check_brackets():
    e = exact("glauber:nbar=10")
    ks = [e.confidence_interval(a) for a in (0.1, 0.5, 0.9)]
    rs = [e.renyi(q) for q in (0.5, 1.0, 2.0)]
    assert checks.check_measures("C", ks, (0.1, 0.5, 0.9), rs, (0.5, 1.0, 2.0), e) == []
    wrong_k = [ks[0], ks[1] * 2, ks[2]]
    assert checks.check_measures("C", wrong_k, (0.1, 0.5, 0.9), rs, (0.5, 1.0, 2.0), e)
    wrong_r = [rs[0], rs[1] + 0.5, rs[2]]
    assert checks.check_measures("C", ks, (0.1, 0.5, 0.9), wrong_r, (0.5, 1.0, 2.0), e)
