"""The criteria's one array path: a K x 4 x 4 covariance stack scored in
one call gives, row by row, exactly what `classify` gives for each state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeams import criteria, sampling
from twinbeams.criteria import classify, levels, report_scalars, state_moments
from twinbeams.states import (
    BeamsplitterParams,
    LossParams,
    apply_beamsplitter,
    apply_loss,
    apply_phase,
    make_single_mode_squeezed,
    make_thermal,
    make_two_mode_squeezed,
    make_vacuum,
)

from oracles import jackknife_reference

ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
UNIT = st.floats(0.0, 1.0)
FANO = st.floats(1.0, 50.0)
SOURCES = st.one_of(
    st.just(make_vacuum()),
    st.builds(make_two_mode_squeezed, st.floats(0.0, 3.0)),
    st.builds(make_thermal, FANO, FANO),
    st.builds(make_single_mode_squeezed, st.sampled_from([1, 2]), st.floats(-2.0, 2.0), ANGLE),
)
STEPS = st.one_of(
    st.builds(lambda t, p: lambda s: apply_beamsplitter(s, BeamsplitterParams(t, p)), ANGLE, ANGLE),
    st.builds(lambda p1, p2: lambda s: apply_phase(s, p1, p2), ANGLE, ANGLE),
    st.builds(lambda e1, e2: lambda s: apply_loss(s, LossParams(e1, e2)), UNIT, UNIT),
)


@st.composite
def physical_states(draw):
    state = draw(SOURCES)
    for step in draw(st.lists(STEPS, max_size=4)):
        state = step(state)
    return state


def _bits(value) -> str:
    """repr of the Python value: equal strings mean equal bits, -0.0 included."""
    return repr(np.asarray(value).item())


@settings(max_examples=150, deadline=None)
@given(st.lists(physical_states(), min_size=1, max_size=8), ANGLE, ANGLE)
def test_stack_rows_equal_classify_bit_for_bit(states, theta_plus, theta_minus):
    covs = np.array([state.cov for state in states])
    values = report_scalars(state_moments(covs, theta_plus, theta_minus))
    values.update(levels(values))
    for k, state in enumerate(states):
        expected = classify(state, theta_plus, theta_minus).to_json()
        assert {key: _bits(column[k]) for key, column in values.items()} == \
            {key: _bits(expected[key]) for key in values}


@pytest.mark.parametrize("theta", [0.3, *np.linspace(0.0, math.pi, 12, endpoint=False)])
@pytest.mark.parametrize("f", [1.0, 3.7])
def test_phase_symmetric_beams_satisfy_no_level_at_any_angle(theta, f):
    # f = 1 is the vacuum; cos^2 + sin^2 rounding used to give G = 1 - eps
    rep = classify(make_thermal(f, f), theta, theta + math.pi / 2)
    assert rep.g == f and rep.s12 == 2.0 * f
    assert not (rep.level1 or rep.level2 or rep.level3 or rep.level4)


def test_estimate_scores_the_jackknife_stack_in_one_call(monkeypatch):
    calls = []
    real = criteria.report_scalars
    monkeypatch.setattr(criteria, "report_scalars",
                        lambda dm: calls.append(dm) or real(dm))
    batch = sampling.draw_samples(make_two_mode_squeezed(0.5), 1000, seed=1)
    sampling.estimate_criteria(batch, n_blocks=20)
    assert len(calls) == 1 and np.shape(calls[0].plus.f1) == (21,)


@pytest.mark.parametrize("angles", [(0.0, math.pi / 2), (0.3, 1.9)], ids=["default", "tilted"])
def test_jackknife_matches_leave_one_block_out_reference(angles):
    state = apply_loss(
        apply_beamsplitter(make_two_mode_squeezed(0.6), BeamsplitterParams(0.5, 0.2)),
        LossParams(0.8, 0.6))
    batch = sampling.draw_samples(state, 5003, seed=41)
    est = sampling.estimate_criteria(batch, n_blocks=50, theta_plus=angles[0],
                                     theta_minus=angles[1])
    reference = jackknife_reference(batch.samples, 50, *angles)
    assert est.estimates.keys() == reference.keys()
    for key, (value, stderr) in reference.items():
        assert est.estimates[key].value == pytest.approx(value, rel=1e-9), key
        assert est.estimates[key].stderr == pytest.approx(stderr, rel=1e-9), key
