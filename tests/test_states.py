import json
import math
import re

import numpy as np
import pytest

from twinbeams.criteria import quadrature_moments
from twinbeams.states import (
    GaussianTwoModeState,
    PhysicalityError,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    make_single_mode_squeezed,
    make_thermal,
    make_two_mode_squeezed,
    make_vacuum,
    uncertainty_min_eigenvalue,
)


def random_classical_state(rng):
    """Random state with cov >= identity (Gaussian-classical)."""
    b = rng.normal(scale=1.0, size=(4, 4))
    cov = np.eye(4) + b @ b.T
    return GaussianTwoModeState(mean=rng.normal(size=4), cov=cov)


class TestConstructors:
    def test_vacuum_identity_cov(self):
        v = make_vacuum()
        assert np.array_equal(v.cov, np.eye(4))
        assert np.array_equal(v.mean, np.zeros(4))

    def test_vacuum_fano_is_one(self):
        m = quadrature_moments(make_vacuum(), 0.0, 0.0)
        assert m.f1 == pytest.approx(1.0) and m.f2 == pytest.approx(1.0)

    def test_vacuum_saturates_uncertainty(self):
        assert uncertainty_min_eigenvalue(make_vacuum().cov) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_diagonal(self):
        t = make_thermal(9.0, 1.0)
        assert np.allclose(t.cov, np.diag([9.0, 9.0, 1.0, 1.0]))

    def test_thermal_unit_is_vacuum(self):
        assert np.allclose(make_thermal(1.0, 1.0).cov, np.eye(4))

    def test_thermal_physical(self):
        assert uncertainty_min_eigenvalue(make_thermal(9.0, 9.0).cov) >= -1e-9

    def test_thermal_rejects_subunit_fano(self):
        with pytest.raises(ValueError):
            make_thermal(0.5, 1.0)

    def test_tmsv_zero_is_vacuum(self):
        assert np.allclose(make_two_mode_squeezed(0.0).cov, np.eye(4))

    def test_tmsv_entries(self):
        s = make_two_mode_squeezed(0.5)
        assert s.cov[0, 0] == pytest.approx(math.cosh(1.0))
        assert s.cov[0, 2] == pytest.approx(math.sinh(1.0))
        assert s.cov[1, 3] == pytest.approx(-math.sinh(1.0))

    def test_tmsv_matches_squeezer_beamsplitter_composition(self):
        # TMSV = two orthogonally squeezed modes mixed on a 50/50 splitter
        r = 0.5
        s1 = make_single_mode_squeezed(1, -r, 0.0).cov[0:2, 0:2]
        s2 = make_single_mode_squeezed(2, r, 0.0).cov[2:4, 2:4]
        cov = np.eye(4)
        cov[0:2, 0:2] = s1
        cov[2:4, 2:4] = s2
        mixed = apply_beamsplitter(
            GaussianTwoModeState(mean=np.zeros(4), cov=cov),
            math.pi / 4,
        )
        assert np.allclose(mixed.cov, make_two_mode_squeezed(r).cov, atol=1e-12)

    def test_tmsv_rejects_negative_r(self):
        with pytest.raises(ValueError):
            make_two_mode_squeezed(-0.1)

    def test_sms_variances(self):
        s = make_single_mode_squeezed(1, 0.5, 0.0)
        assert s.cov[0, 0] == pytest.approx(math.exp(-1.0))
        assert s.cov[1, 1] == pytest.approx(math.e)
        assert np.allclose(s.cov[2:4, 2:4], np.eye(2))

    def test_sms_minimum_uncertainty_product(self):
        s = make_single_mode_squeezed(2, 0.7, 0.3)
        block = s.cov[2:4, 2:4]
        assert np.linalg.det(block) == pytest.approx(1.0)


class TestStateValidation:
    def test_rejects_asymmetric_cov(self):
        cov = np.eye(4)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            GaussianTwoModeState(mean=np.zeros(4), cov=cov)

    @pytest.mark.parametrize("build", [
        lambda: apply_beamsplitter(make_two_mode_squeezed(5.0), math.pi / 4),
        lambda: apply_beamsplitter(make_two_mode_squeezed(6.0), math.pi / 4),
        lambda: apply_beamsplitter(make_two_mode_squeezed(7.0), math.pi / 4),
        lambda: apply_loss(make_two_mode_squeezed(5.0), 0.9, 0.8),
    ], ids=["tmsv5-split", "tmsv6-split", "tmsv7-split", "tmsv5-loss"])
    def test_accepts_rounding_asymmetry_of_large_cov(self, build):
        # the maps round each entry relative to max|cov|, beyond an absolute 1e-12
        cov = build().cov
        assert np.abs(cov - cov.T).max() > 1e-12

    def test_rejects_asymmetry_relative_to_large_cov(self):
        cov = make_two_mode_squeezed(7.0).cov.copy()
        cov[0, 1] += 1e-6 * np.abs(cov).max()
        with pytest.raises(ValueError, match="symmetric"):
            GaussianTwoModeState(mean=np.zeros(4), cov=cov)

    def test_rejects_nonpositive_diagonal(self):
        cov = np.eye(4)
        cov[2, 2] = 0.0
        with pytest.raises(ValueError, match="diagonal"):
            GaussianTwoModeState(mean=np.zeros(4), cov=cov)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 2e75, 1.000000000001e75])
    @pytest.mark.parametrize("field", ["mean", "cov"])
    def test_rejects_moment_beyond_bound(self, field, value):
        moments = {"mean": np.zeros(4), "cov": np.eye(4)}
        moments[field].flat[1] = value
        with pytest.raises(ValueError, match=re.escape(
                f"at most 1e+75 in magnitude, got {abs(value)!r}")):
            GaussianTwoModeState(**moments)

    def test_map_rounding_above_moment_bound_accepted(self):
        # a rotation rounds an entry of 1e75 up by an ulp; its source passed
        peak = 0.0
        for theta in np.linspace(0.0, 3.0, 301):
            state = apply_beamsplitter(make_thermal(1e75, 1e75), float(theta), 0.2)
            peak = max(peak, np.abs(state.cov).max())
        assert peak > 1e75

    @pytest.mark.parametrize("variances, min_eig", [
        ([0.5, 0.5, 0.5, 0.5], "-5.000e-01"),
        ([1e14, 1e14, 0.5, 0.5], "-5.000e-01"),
        ([1e20, 1e20, 1e-3, 1e-3], "-9.990e-01"),
        ([1e-30, 1e-11, 1.0, 1.0], "-1.000e+00"),
    ], ids=["sub-vacuum", "beside-1e14", "beside-1e20", "tiny-variances"])
    @pytest.mark.parametrize("build", ["init", "loads"])
    def test_rejects_unphysical_cov(self, variances, min_eig, build):
        # the rounding allowed a large mode does not cover a small mode's violation
        cov = np.diag(variances)
        with pytest.raises(PhysicalityError, match=re.escape(f"= {min_eig})")):
            if build == "init":
                GaussianTwoModeState(mean=np.zeros(4), cov=cov)
            else:
                GaussianTwoModeState.loads(json.dumps({"mean": [0.0] * 4, "cov": cov.tolist()}))

    def test_physicality_tolerance_is_per_covariance(self):
        # the rounding allowed a large covariance does not cover a small one
        covs = np.array([1e70 * np.eye(4), 0.5 * np.eye(4)])
        with pytest.raises(PhysicalityError, match=re.escape("= -5.000e-01")):
            GaussianTwoModeState(mean=np.zeros((2, 4)), cov=covs)

    @pytest.mark.parametrize("theta", [None, 0.3], ids=["alone", "split"])
    def test_tmsv_builds_up_to_r12(self, theta):
        # tmsv(8) misses an absolute 1e-9 by rounding: min eigenvalue -1.96e-9
        for r in np.linspace(0.0, 12.0, 241):
            state = make_two_mode_squeezed(float(r))
            if theta is not None:
                apply_beamsplitter(state, theta)

    def test_state_is_immutable(self):
        v = make_vacuum()
        with pytest.raises(ValueError):
            v.cov[0, 0] = 5.0

    def test_json_round_trip(self):
        s = make_two_mode_squeezed(0.8)
        back = GaussianTwoModeState.loads(s.dumps())
        assert np.array_equal(back.cov, s.cov)
        assert np.array_equal(back.mean, s.mean)

    def test_json_layout(self):
        payload = json.loads(make_vacuum().dumps())
        assert set(payload) == {"mean", "cov"}
        assert len(payload["mean"]) == 4
        assert len(payload["cov"]) == 4


class TestBeamsplitter:
    def test_zero_angle_is_identity(self):
        s = make_thermal(3.0, 2.0)
        out = apply_beamsplitter(s, 0.0)
        assert np.allclose(out.cov, s.cov, atol=1e-12)

    def test_balanced_split_of_thermal(self):
        out = apply_beamsplitter(make_thermal(9.0, 1.0), math.pi / 4)
        assert out.cov[0, 0] == pytest.approx(5.0)
        assert out.cov[2, 2] == pytest.approx(5.0)
        assert out.cov[0, 2] == pytest.approx(4.0)

    def test_vacuum_fixed_point(self):
        out = apply_beamsplitter(make_vacuum(), 0.9, 0.4)
        assert np.allclose(out.cov, np.eye(4), atol=1e-12)

    def test_inverse_angle_restores_state(self):
        s = make_two_mode_squeezed(0.7)
        roundtrip = apply_beamsplitter(
            apply_beamsplitter(s, 0.6), -0.6)
        assert np.abs(roundtrip.cov - s.cov).max() <= 1e-12

    def test_output_one_matches_r_t_combination(self):
        # output 1 fluctuation must be cos(t) dX1 - sin(t) dX2
        rng = np.random.default_rng(5)
        s = random_classical_state(rng)
        theta = 0.777
        out = apply_beamsplitter(s, theta)
        c, t = math.cos(theta), math.sin(theta)
        expected = (
            c * c * s.cov[0, 0] + t * t * s.cov[2, 2] - 2 * c * t * s.cov[0, 2])
        assert out.cov[0, 0] == pytest.approx(expected, abs=1e-12)


class TestPhaseAndLoss:
    def test_phase_zero_identity(self):
        s = make_two_mode_squeezed(0.4)
        assert np.allclose(apply_phase(s, 0.0, 0.0).cov, s.cov)

    def test_quarter_turn_swaps_squeezed_variances(self):
        s = make_single_mode_squeezed(1, 0.5, 0.0)
        rotated = apply_phase(s, math.pi / 2, 0.0)
        assert rotated.cov[0, 0] == pytest.approx(s.cov[1, 1])
        assert rotated.cov[1, 1] == pytest.approx(s.cov[0, 0])

    def test_phase_preserves_determinant(self):
        s = make_two_mode_squeezed(0.9)
        rotated = apply_phase(s, 0.3, -1.2)
        assert np.linalg.det(rotated.cov) == pytest.approx(np.linalg.det(s.cov))

    def test_full_transmission_identity(self):
        s = make_two_mode_squeezed(0.6)
        assert np.allclose(apply_loss(s, 1.0, 1.0).cov, s.cov)

    def test_full_loss_gives_vacuum(self):
        s = make_two_mode_squeezed(1.5)
        out = apply_loss(s, 0.0, 0.0)
        assert np.allclose(out.cov, np.eye(4), atol=1e-12)

    def test_symmetric_loss_on_tmsv(self):
        r, eta = 0.8, 0.3
        out = apply_loss(make_two_mode_squeezed(r), eta, eta)
        assert out.cov[0, 0] == pytest.approx(eta * math.cosh(2 * r) + 1 - eta)
        assert out.cov[0, 2] == pytest.approx(eta * math.sinh(2 * r))

    def test_loss_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            apply_loss(make_vacuum(), 1.2, 0.5)
        with pytest.raises(ValueError):
            apply_loss(make_vacuum(), 0.5, -0.1)

    def test_loss_scales_mean(self):
        s = GaussianTwoModeState(mean=np.array([2.0, 0.0, 0.0, 0.0]), cov=np.eye(4))
        out = apply_loss(s, 0.25, 1.0)
        assert out.mean[0] == pytest.approx(1.0)


class TestQuadratureMoments:
    def test_vacuum_any_angles(self):
        m = quadrature_moments(make_vacuum(), 0.37, 2.1)
        assert (m.f1, m.f2, m.c12) == pytest.approx((1.0, 1.0, 0.0))

    def test_tmsv_plus_pair(self):
        m = quadrature_moments(make_two_mode_squeezed(0.5), 0.0, 0.0)
        assert m.f1 == pytest.approx(math.cosh(1.0))
        assert m.c12 == pytest.approx(math.tanh(1.0))

    def test_split_thermal_correlation(self):
        st = apply_beamsplitter(make_thermal(9.0, 1.0), math.pi / 4)
        m = quadrature_moments(st, 0.0, 0.0)
        assert m.c12 == pytest.approx(0.8, abs=1e-12)

    def test_global_rotation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_classical_state(rng)
            a1, a2, t1, t2 = rng.uniform(-math.pi, math.pi, size=4)
            rotated = quadrature_moments(apply_phase(s, a1, a2), t1, t2)
            direct = quadrature_moments(s, t1 - a1, t2 - a2)
            assert rotated.f1 == pytest.approx(direct.f1, abs=1e-12)
            assert rotated.f2 == pytest.approx(direct.f2, abs=1e-12)
            assert rotated.c12 == pytest.approx(direct.c12, abs=1e-12)


class TestPhysicalityPreservation:
    def test_passive_devices_preserve_classicality(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            s = random_classical_state(rng)
            s = apply_beamsplitter(
                s, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            s = apply_phase(s, rng.uniform(-math.pi, math.pi),
                            rng.uniform(-math.pi, math.pi))
            assert np.linalg.eigvalsh(s.cov - np.eye(4)).min() >= -1e-9

    def test_all_maps_preserve_physicality(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            s = make_two_mode_squeezed(rng.uniform(0, 2))
            s = apply_beamsplitter(s, rng.uniform(0, math.pi))
            s = apply_phase(s, rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            s = apply_loss(s, rng.uniform(0, 1), rng.uniform(0, 1))
            assert uncertainty_min_eigenvalue(s.cov) >= -1e-9
