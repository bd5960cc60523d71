import math

import numpy as np
import pytest

from twinbeams.criteria import report_scalars, state_moments
from twinbeams.sampling import (
    BatchFormatError,
    EstimationError,
    SampleBatch,
    draw_samples,
    estimate_criteria,
    read_batch,
    write_batch,
)
from twinbeams.states import make_two_mode_squeezed, make_vacuum


class TestDrawSamples:
    def test_same_seed_identical(self):
        s = make_two_mode_squeezed(0.5)
        a = draw_samples(s, 1000, seed=42)
        b = draw_samples(s, 1000, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        s = make_vacuum()
        a = draw_samples(s, 100, seed=1)
        b = draw_samples(s, 100, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_vacuum_column_variances(self):
        batch = draw_samples(make_vacuum(), 10 ** 6, seed=3)
        se = math.sqrt(2.0 / batch.n)
        for col in range(4):
            assert batch.samples[:, col].var() == pytest.approx(1.0, abs=5 * se)

    def test_tmsv_sample_covariance(self):
        r = 0.5
        batch = draw_samples(make_two_mode_squeezed(r), 10 ** 6, seed=4)
        cov = np.cov(batch.samples[:, 0], batch.samples[:, 2], ddof=0)[0, 1]
        # var of a normal covariance estimate: (s11*s22 + s12^2)/N
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        se = math.sqrt((ch * ch + sh * sh) / batch.n)
        assert cov == pytest.approx(sh, abs=5 * se)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            draw_samples(make_vacuum(), 1, seed=0)


class TestBatchRoundTrip:
    def test_round_trip(self, tmp_path):
        batch = draw_samples(make_two_mode_squeezed(0.3), 500, seed=9,
                             source_label="tmsv(0.3)")
        path = tmp_path / "batch.csv"
        write_batch(batch, path)
        back = read_batch(path)
        assert np.array_equal(back.samples, batch.samples)
        assert back.seed == 9
        assert back.source_label == "tmsv(0.3)"

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# seed: 1\n# source_label: x\n"
            "sample_index,xplus_1,xminus_1,xplus_2,xminus_2\n"
            "0,1.0,2.0,3.0\n")
        with pytest.raises(BatchFormatError, match="line 4"):
            read_batch(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sample_index,xplus_1,xminus_1,xplus_2,xminus_2\n"
            "0,1.0,abc,3.0,4.0\n0,1.0,1.0,3.0,4.0\n")
        with pytest.raises(BatchFormatError, match="line 2"):
            read_batch(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0,3.0,4.0\n")
        with pytest.raises(BatchFormatError, match="header"):
            read_batch(path)


class TestEstimateCriteria:
    def test_vacuum_gemellity_near_one(self):
        batch = draw_samples(make_vacuum(), 10 ** 5, seed=11)
        est = estimate_criteria(batch)
        g = est.estimates["gemellity"]
        assert abs(g.value - 1.0) <= 5 * g.stderr

    def test_tmsv_estimates_match_analytic(self):
        r = 1.103
        state = make_two_mode_squeezed(r)
        batch = draw_samples(state, 10 ** 5, seed=13)
        est = estimate_criteria(batch)
        targets = report_scalars(state_moments(state))
        for key in ("gemellity", "separability", "epr_product_12",
                    "conditional_variance_12"):
            e = est.estimates[key]
            assert abs(e.value - targets[key]) <= 5 * e.stderr, key

    def test_consistency_as_n_grows(self):
        state = make_two_mode_squeezed(0.7)
        target = report_scalars(state_moments(state))["gemellity"]
        errors = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            est = estimate_criteria(draw_samples(state, n, seed=17))
            errors.append(abs(est.estimates["gemellity"].value - target))
        assert errors[-1] < errors[0]

    def test_estimator_uses_closed_forms_of_criteria_module(self):
        # the estimator applied to exact sample moments must reproduce
        # the analytic layer exactly (shared closed forms)
        batch = draw_samples(make_two_mode_squeezed(0.4), 2000, seed=19)
        dm = state_moments(np.cov(batch.samples, rowvar=False, ddof=0))
        est = estimate_criteria(batch)
        analytic = report_scalars(dm)
        for key, value in analytic.items():
            assert est.estimates[key].value == pytest.approx(value, abs=1e-12)

    def test_requires_enough_samples_for_blocks(self):
        batch = draw_samples(make_vacuum(), 150, seed=23)
        with pytest.raises(ValueError):
            estimate_criteria(batch)

    def test_degenerate_column_rejected(self):
        samples = np.ones((400, 4))
        samples[:, 0] = np.linspace(0, 1, 400)
        samples[:, 1] = np.linspace(1, 0, 400)
        samples[:, 3] = np.linspace(0, 2, 400)
        batch = SampleBatch(samples=samples, seed=0)
        with pytest.raises(EstimationError):
            estimate_criteria(batch)

    def test_stderrs_nonnegative(self):
        batch = draw_samples(make_two_mode_squeezed(0.2), 5000, seed=29)
        est = estimate_criteria(batch)
        assert all(e.stderr >= 0.0 for e in est.estimates.values())

    def test_json_payload(self):
        batch = draw_samples(make_vacuum(), 1000, seed=31, source_label="vac")
        payload = estimate_criteria(batch).to_json()
        assert payload["n_samples"] == 1000
        assert payload["source_label"] == "vac"
        assert "gemellity" in payload["estimates"]
        assert set(payload["estimates"]["gemellity"]) == {"value", "stderr"}
