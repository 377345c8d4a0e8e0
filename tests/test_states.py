import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polmaj import (EulerRotation, GridSpec, MixedState, PureFockState, apply_su2,
                    discretize_state, lorenz, make_analytic, make_coherent, make_hs_extremal,
                    make_noon, make_phase, make_squeezed, random_pure, wigner_d_matrix)

from oracles import compose_rotations, rotation_matrix, state_overlap

R2 = 1.0 / math.sqrt(2.0)


def amps(state):
    return np.asarray(state.amps)


class TestConstructors:
    def test_coherent_examples(self):
        assert np.allclose(amps(make_coherent(2)), [0, 0, 1])
        assert np.allclose(amps(make_coherent(0)), [1])
        c5 = amps(make_coherent(5))
        assert c5[5] == 1 and np.all(c5[:5] == 0)

    def test_phase_examples(self):
        assert np.allclose(amps(make_phase(2)), np.full(3, 1 / math.sqrt(3)))
        assert np.allclose(amps(make_phase(0)), [1])
        assert np.allclose(amps(make_phase(3)), np.full(4, 0.5))

    def test_squeezed_examples(self):
        assert np.allclose(amps(make_squeezed(4)), [0, 0, 1, 0, 0])
        assert np.allclose(amps(make_squeezed(5)), [0, 0, R2, R2, 0, 0])
        assert np.allclose(amps(make_squeezed(2)), [0, 1, 0])

    @pytest.mark.parametrize("n", [0, 1])
    def test_squeezed_rejects_small_n(self, n):
        with pytest.raises(ValueError):
            make_squeezed(n)

    def test_noon_examples(self):
        assert np.allclose(amps(make_noon(2)), [R2, 0, R2])
        assert np.allclose(amps(make_noon(1)), [R2, R2])
        c6 = amps(make_noon(6))
        assert c6[0] == pytest.approx(R2) and c6[6] == pytest.approx(R2)
        assert np.all(c6[1:6] == 0)
        with pytest.raises(ValueError):
            make_noon(0)

    def test_noon_n1_is_phase_state(self):
        assert np.allclose(amps(make_noon(1)), amps(make_phase(1)))

    def test_hs_extremal_examples(self):
        c4 = amps(make_hs_extremal(4))
        assert c4[0] == pytest.approx(1 / math.sqrt(3))
        assert c4[3] == pytest.approx(math.sqrt(2 / 3))
        assert np.all(c4[[1, 2, 4]] == 0)
        c5 = amps(make_hs_extremal(5))
        assert c5[1] == pytest.approx(R2) and c5[4] == pytest.approx(R2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_hs_equals_noon_low_n(self, n):
        assert np.array_equal(amps(make_hs_extremal(n)), amps(make_noon(n)))

    @pytest.mark.parametrize("n", [0, 1, 6, 10])
    def test_hs_rejects_unknown_n(self, n):
        with pytest.raises(ValueError):
            make_hs_extremal(n)

    def test_analytic_families(self):
        fam = make_analytic("thermal", 10)
        assert fam.kind == "thermal" and fam.nbar == 10.0
        make_analytic("glauber", 0)
        make_analytic("tmsv", 10)
        with pytest.raises(ValueError):
            make_analytic("thermal", -1)
        with pytest.raises(ValueError):
            make_analytic("squeezed", 1.0)
        with pytest.raises(ValueError):
            make_analytic("glauber", float("inf"))

    @pytest.mark.parametrize("ctor,n", [(make_coherent, 7), (make_phase, 9),
                                        (make_squeezed, 6), (make_noon, 4),
                                        (make_hs_extremal, 5)])
    def test_constructors_normalized(self, ctor, n):
        s = ctor(n)
        assert abs(np.sum(np.abs(s.amps) ** 2) - 1) < 1e-12

    @pytest.mark.parametrize("ctor", [make_coherent, make_phase, make_squeezed, make_noon,
                                      make_hs_extremal, lambda n: random_pure(n, 0)])
    def test_integral_float_photon_number_accepted(self, ctor):
        s = ctor(4.0)
        assert s.n == 4 and type(s.n) is int
        assert np.array_equal(amps(s), amps(ctor(4)))

    @pytest.mark.parametrize("ctor", [make_coherent, make_phase, make_squeezed, make_noon,
                                      make_hs_extremal, lambda n: random_pure(n, 0)])
    @pytest.mark.parametrize("n", [4.5, float("inf"), float("nan"), True, "4", None, -1, -2.0])
    def test_bad_photon_number_raises_value_error(self, ctor, n):
        with pytest.raises(ValueError, match="photon number must be"):
            ctor(n)


class TestValidation:
    @pytest.mark.parametrize("n", [float("inf"), True, float("nan")])
    def test_bad_photon_number_rejected_like_make(self, n):
        # the rule every make_* applies: no bool, no non-finite value
        with pytest.raises(ValueError, match="photon number must be"):
            PureFockState(n=n, amps=np.array([0.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            PureFockState(n=2, amps=np.array([1.0, 0.0]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureFockState(n=1, amps=np.array([1.0, 1.0]))

    def test_amps_read_only(self):
        s = make_coherent(2)
        with pytest.raises(ValueError):
            s.amps[0] = 1.0

    def test_mixture_weights_checked(self):
        a, b = make_coherent(2), make_coherent(3)
        MixedState(components=((0.25, a), (0.75, b)))  # cross-n allowed
        with pytest.raises(ValueError):
            MixedState(components=((0.5, a), (0.4, b)))
        with pytest.raises(ValueError):
            MixedState(components=((-0.1, a), (1.1, b)))
        with pytest.raises(ValueError):
            MixedState(components=())

    def test_equality_is_identity(self):
        # the generated __eq__ would compare the amplitude arrays and raise on their truth value
        a, b = make_coherent(2), make_coherent(2)
        assert a == a and a != b
        assert len({a, b, a}) == 2
        m1 = MixedState(components=((0.5, a), (0.5, make_coherent(3))))
        m2 = MixedState(components=((0.5, b), (0.5, make_coherent(3))))
        assert m1 == m1 and m1 != m2
        assert len({m1, m2, m1}) == 2

    def test_euler_ranges(self):
        EulerRotation(np.pi, np.pi, 0.0)
        with pytest.raises(ValueError):
            EulerRotation(0.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            EulerRotation(4.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            EulerRotation(0.0, 1.0, -np.pi)


class TestRandomPure:
    def test_deterministic_given_seed(self):
        a = random_pure(5, seed=7)
        b = random_pure(5, seed=7)
        assert np.array_equal(a.amps, b.amps)
        c = random_pure(5, seed=8)
        assert not np.array_equal(a.amps, c.amps)

    @given(n=st.integers(min_value=0, max_value=20), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_normalized(self, n, seed):
        s = random_pure(n, seed)
        assert abs(np.sum(np.abs(s.amps) ** 2) - 1) < 1e-12

    def test_n1_curve_matches_coherent_up_to_sampling(self):
        # every 1-photon pure state is a rotated coherent state, so the Lorenz
        # curves agree up to the grid sampling bound 5/n_theta
        grid = GridSpec(200, 200)
        ref = lorenz(discretize_state(make_coherent(1), grid))
        for seed in (0, 1, 2):
            cur = lorenz(discretize_state(random_pure(1, seed), grid))
            assert np.max(np.abs(cur.s - ref.s)) <= 5.0 / grid.n_theta


def _eq2_amplitudes(n, theta, phi):
    # independent oracle for the coherent-state expansion
    m = np.arange(n + 1)
    binom = np.array([math.comb(n, k) for k in m], dtype=float)
    return (np.sqrt(binom) * np.sin(theta / 2) ** (n - m) * np.cos(theta / 2) ** m
            * np.exp(-1j * m * phi))


class TestApplySU2:
    def test_identity_rotation_is_exact(self):
        s = random_pure(6, seed=3)
        r = apply_su2(s, EulerRotation(0.0, 0.0, 0.0))
        assert np.array_equal(r.amps, s.amps)

    def test_wigner_d_spin_half(self):
        beta = 0.813
        d = wigner_d_matrix(1, beta)
        expect = np.array([[np.cos(beta / 2), np.sin(beta / 2)],
                           [-np.sin(beta / 2), np.cos(beta / 2)]])
        assert np.allclose(d, expect, atol=1e-14)

    def test_wigner_d_spin_one(self):
        beta = 2.1
        c, s = np.cos(beta), np.sin(beta)
        ch2, sh2 = np.cos(beta / 2) ** 2, np.sin(beta / 2) ** 2
        expect = np.array([[ch2, s / np.sqrt(2), sh2],
                           [-s / np.sqrt(2), c, s / np.sqrt(2)],
                           [sh2, -s / np.sqrt(2), ch2]])
        assert np.allclose(wigner_d_matrix(2, beta), expect, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 41])
    def test_wigner_d_orthogonal(self, n):
        d = wigner_d_matrix(n, 1.234)
        assert np.allclose(d @ d.T, np.eye(n + 1), atol=1e-12)

    def test_beta_pi_antidiagonal(self):
        d = wigner_d_matrix(3, np.pi)
        expect = np.zeros((4, 4))
        for c in range(4):
            expect[3 - c, c] = (-1) ** (3 - c)
        assert np.allclose(d, expect, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_rotated_coherent_matches_direct_expansion(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            theta = rng.uniform(0.0, np.pi)
            phi = rng.uniform(-np.pi, np.pi)
            gamma = rng.uniform(-np.pi, np.pi)
            rotated = apply_su2(make_coherent(n), EulerRotation(phi, theta, gamma))
            target = _eq2_amplitudes(n, theta, phi)
            fidelity = abs(np.vdot(rotated.amps, target))
            assert fidelity == pytest.approx(1.0, abs=1e-12)

    @given(alpha=st.floats(-np.pi + 1e-9, np.pi), beta=st.floats(0, np.pi),
           gamma=st.floats(-np.pi + 1e-9, np.pi), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved(self, alpha, beta, gamma, seed):
        s = random_pure(6, seed)
        r = apply_su2(s, EulerRotation(alpha, beta, gamma))
        assert abs(np.sum(np.abs(r.amps) ** 2) - 1) < 1e-12

    def test_composition_matches_sequential(self):
        rng = np.random.default_rng(55)
        for _ in range(6):
            r1 = EulerRotation(rng.uniform(-3, 3), rng.uniform(0, np.pi), rng.uniform(-3, 3))
            r2 = EulerRotation(rng.uniform(-3, 3), rng.uniform(0, np.pi), rng.uniform(-3, 3))
            s = random_pure(9, rng.integers(1 << 30))
            seq = apply_su2(apply_su2(s, r1), r2)
            direct = apply_su2(s, compose_rotations(r2, r1))
            assert abs(abs(state_overlap(seq, direct)) - 1) < 1e-10

    def test_rotation_matrix_is_orthogonal(self):
        r = EulerRotation(0.4, 1.2, -2.2)
        m = rotation_matrix(r)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(m) == pytest.approx(1.0)
        # north pole maps to (beta, alpha)
        v = m @ np.array([0.0, 0.0, 1.0])
        assert np.arccos(v[2]) == pytest.approx(1.2)
        assert np.arctan2(v[1], v[0]) == pytest.approx(0.4)


class TestOverlap:
    def test_cross_photon_number_is_zero(self):
        assert state_overlap(make_coherent(2), make_coherent(3)) == 0

    def test_self_overlap_is_one(self):
        s = random_pure(4, seed=11)
        assert abs(state_overlap(s, s) - 1) < 1e-12

    def test_squeezed_noon_orthogonal_at_n2(self):
        # |1,1> has no weight on |2,0>/|0,2>
        assert state_overlap(make_squeezed(2), make_noon(2)) == 0
