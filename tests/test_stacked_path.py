"""The one array path: a K x 4 x 4 covariance stack scored in one call
gives, row by row, exactly what `classify` gives for each state, and a
scenario built with a grid as one parameter's value gives, entry by
entry, exactly the state built at each grid point."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeams import criteria, sampling, scenario
from twinbeams.criteria import classify, report_scalars, state_moments
from twinbeams.scenario import OpCall, Scenario, ScenarioError, build_state, set_parameter
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
    st.builds(lambda t, p: lambda s: apply_beamsplitter(s, t, p), ANGLE, ANGLE),
    st.builds(lambda p1, p2: lambda s: apply_phase(s, p1, p2), ANGLE, ANGLE),
    st.builds(lambda e1, e2: lambda s: apply_loss(s, e1, e2), UNIT, UNIT),
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


@settings(max_examples=150)
@given(st.lists(physical_states(), min_size=1, max_size=8), ANGLE, ANGLE)
def test_stack_rows_equal_classify_bit_for_bit(states, theta_plus, theta_minus):
    covs = np.array([state.cov for state in states])
    table = report_scalars(state_moments(covs, theta_plus, theta_minus))
    for k, state in enumerate(states):
        expected = classify(state, theta_plus, theta_minus).to_json()
        # the table holds every report field but the constant level-5 note,
        # the Duan note as a flag
        assert table.keys() == expected.keys() - {"level5_note"}
        expected["duan_note"] = expected["duan_note"] is not None
        assert {key: _bits(column[k]) for key, column in table.items()} == \
            {key: _bits(expected[key]) for key in table}


@pytest.mark.parametrize("theta", [0.3, *np.linspace(0.0, math.pi, 12, endpoint=False)])
@pytest.mark.parametrize("f", [1.0, 3.7])
def test_phase_symmetric_beams_satisfy_no_level_at_any_angle(theta, f):
    # f = 1 is the vacuum; cos^2 + sin^2 rounding used to give G = 1 - eps
    rep = classify(make_thermal(f, f), theta, theta + math.pi / 2)
    assert rep.gemellity == f and rep.separability == 2.0 * f
    assert not (rep.level1 or rep.level2 or rep.level3 or rep.level4)


def test_estimate_scores_the_jackknife_stack_in_one_call(monkeypatch):
    calls = []
    real = criteria.report_scalars
    monkeypatch.setattr(criteria, "report_scalars",
                        lambda dm: calls.append(dm) or real(dm))
    batch = sampling.draw_samples(make_two_mode_squeezed(0.5), 1000, seed=1)
    sampling.estimate_criteria(batch)
    assert len(calls) == 1 and np.shape(calls[0].plus.f1) == (sampling.BLOCKS + 1,)


@pytest.mark.parametrize("angles", [(0.0, math.pi / 2), (0.3, 1.9)], ids=["default", "tilted"])
def test_jackknife_matches_leave_one_block_out_reference(angles):
    state = apply_loss(
        apply_beamsplitter(make_two_mode_squeezed(0.6), 0.5, 0.2), 0.8, 0.6)
    batch = sampling.draw_samples(state, 5003, seed=41)
    est = sampling.estimate_criteria(batch, theta_plus=angles[0], theta_minus=angles[1])
    reference = jackknife_reference(batch.samples, sampling.BLOCKS, *angles)
    assert est.estimates.keys() == reference.keys()
    for key, (value, stderr) in reference.items():
        assert est.estimates[key].value == pytest.approx(value, rel=1e-9), key
        assert est.estimates[key].stderr == pytest.approx(stderr, rel=1e-9), key


@pytest.mark.parametrize("offset", [1e5, 1e7])
def test_jackknife_on_displaced_batch_matches_reference(offset):
    # raw sums about 0 lose the variance to cancellation at these means
    state = apply_loss(
        apply_beamsplitter(make_two_mode_squeezed(0.6), 0.5, 0.2), 0.8, 0.6)
    samples = sampling.draw_samples(state, 5003, seed=41).samples + offset
    est = sampling.estimate_criteria(sampling.SampleBatch(samples=samples, seed=41))
    for key, (value, stderr) in jackknife_reference(samples, sampling.BLOCKS).items():
        assert est.estimates[key].value == pytest.approx(value, rel=1e-9), key
        assert est.estimates[key].stderr == pytest.approx(stderr, rel=1e-9), key


@pytest.mark.parametrize("call", [classify, lambda state: sampling.draw_samples(state, 300, 1)],
                         ids=["classify", "draw_samples"])
def test_one_state_calls_reject_a_stack(call):
    stack = apply_loss(make_two_mode_squeezed(1.0), np.array([0.5, 0.7]), 0.5)
    with pytest.raises(ValueError, match=re.escape("takes one state, got a stack of shape (2,)")):
        call(stack)


@pytest.mark.parametrize("angle", [1e308, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda state, angles: classify(state, **angles),
    lambda state, angles: state_moments(state, **angles),
    lambda state, angles: scenario.sweep(
        Scenario(source=OpCall("tmsv", {"r": 0.5}), **angles), "r", [0.1, 0.2]),
    lambda state, angles: sampling.estimate_criteria(
        sampling.draw_samples(state, 1000, 5), **angles),
    lambda state, angles: sampling.estimate_criteria(
        sampling.DrawnBatch(state, 1000, 5), **angles),
], ids=["classify", "state_moments", "sweep", "estimate-sample-batch", "estimate-drawn-batch"])
@pytest.mark.parametrize("which", ["theta_plus", "theta_minus"])
def test_angle_without_a_finite_double_rejected(call, which, angle):
    # the double of 1e308 overflows, so its cosine has no value
    with pytest.raises(ValueError, match=re.escape(
            f"measurement angle must be finite with a finite double, got {angle}")):
        call(make_two_mode_squeezed(0.5), {which: angle})


# ---------------------------------------------------------------------------
# the state path: a grid as a parameter value builds one stack

PARAM_VALUES = {"f1": FANO, "f2": FANO, "f": FANO, "r": st.floats(0.0, 3.0),
                "s": st.floats(-2.0, 2.0), "theta": ANGLE, "phi": ANGLE,
                "phi1": ANGLE, "phi2": ANGLE, "eta1": UNIT, "eta2": UNIT, "eta": UNIT}


@st.composite
def swept_scenarios(draw):
    """(scenario, sweep parameter, grid): a tmsv, thermal or sms source,
    0-3 steps, one sweepable parameter or alias, 1-20 in-domain values."""
    names = [draw(st.sampled_from(["tmsv", "thermal", "sms"]))]
    names += draw(st.lists(st.sampled_from(sorted(scenario.STEPS)), max_size=3))
    ops, choices = [], []
    for k, name in enumerate(names):
        params, aliases, _ = (scenario.STEPS if k else scenario.SOURCES)[name]
        ops.append(OpCall(name, {p: draw(st.sampled_from([1, 2]) if p == "mode"
                                         else PARAM_VALUES[p]) for p in params}))
        location = f"step{k}" if k else "source"
        choices += [(f"{location}.{p}", p) for p in (*params, *aliases) if p != "mode"]
    parameter, pname = draw(st.sampled_from(choices))
    grid = draw(st.lists(PARAM_VALUES[pname], min_size=1, max_size=20))
    return Scenario(source=ops[0], pipeline=tuple(ops[1:])), parameter, grid


@settings(max_examples=150)
@given(swept_scenarios())
def test_stacked_build_equals_per_point_build_bit_for_bit(case):
    scn, parameter, grid = case
    stacked = build_state(set_parameter(scn, parameter, np.array(grid)))
    assert stacked.cov.shape == (len(grid), 4, 4)
    for k, value in enumerate(grid):
        point = build_state(set_parameter(scn, parameter, value))
        assert stacked.mean[k].tobytes() == point.mean.tobytes()
        assert stacked.cov[k].tobytes() == point.cov.tobytes()


def test_sweep_builds_its_grid_once(monkeypatch):
    builds, constructions = [], []
    real_build, real_init = scenario.build_state, GaussianTwoModeState.__post_init__
    monkeypatch.setattr(scenario, "build_state",
                        lambda scn: builds.append(scn) or real_build(scn))
    monkeypatch.setattr(GaussianTwoModeState, "__post_init__",
                        lambda self: constructions.append(1) or real_init(self))
    scn = scenario.parse_scenario(
        "schema = twinbeams-scenario-1\nsource = tmsv(1.0)\n"
        "step = loss(0.9, 0.7)\nstep = beamsplitter(0.3, 0.2)\n")
    rows = scenario.sweep(scn, "step1.eta", np.linspace(0.0, 1.0, 201))
    assert len(rows) == 201 and len(builds) == 1
    assert len(constructions) == 3  # the source and each step, once for the whole grid


@pytest.mark.parametrize("source, step, parameter, grid, message", [
    ("tmsv(1.0)", "loss(0.5, 0.5)", "step1.eta", [0.5, 1.5, 2.0, -1.0],
     r"step loss: eta1 must lie in \[0, 1\], got 1\.5$"),
    ("tmsv(1.0)", "phase(0.1, 0.2)", "r", [0.5, -1.5, -2.0],
     r"source tmsv: squeezing parameter must be >= 0, got -1\.5$"),
    ("thermal(2.0, 3.0)", "phase(0.1, 0.2)", "f2", [2.0, 0.5, 0.25],
     r"source thermal: thermal Fano factors must be >= 1, got \(2\.0, 0\.5\)$"),
    ("tmsv(1.0)", "phase(0.1, 0.2)", "r", [1.0, 400.0, 500.0],
     r"source tmsv: squeezing parameter r = 400\.0 overflows the covariance$"),
    ("sms(1, 0.5, 0.2)", "phase(0.1, 0.2)", "s", [1.0, -400.0, 500.0],
     r"source sms: squeezing parameter s = -400\.0 overflows the covariance$"),
    ("tmsv(1.0)", "loss(0.5, 0.5)", "step9.eta", [0.5],
     r"^sweep parameter: no such step 'step9'$"),
    ("tmsv(1.0)", "loss(0.5, 0.5)", "foo.r", [0.5], r"^sweep parameter: bad location 'foo'$"),
], ids=["loss-eta", "tmsv-r", "thermal-f2", "tmsv-overflow", "sms-overflow", "no-such-step",
        "bad-location"])
def test_grid_with_invalid_point_names_first_bad_value(source, step, parameter, grid, message):
    scn = scenario.parse_scenario(
        f"schema = twinbeams-scenario-1\nsource = {source}\nstep = {step}\n")
    with pytest.raises(ScenarioError, match=message):
        scenario.sweep(scn, parameter, grid)


def test_unphysical_stack_raises_physicality_error():
    covs = np.array([np.eye(4), 0.5 * np.eye(4), 2.0 * np.eye(4)])
    with pytest.raises(PhysicalityError, match="min eigenvalue of cov"):
        GaussianTwoModeState(mean=np.zeros((3, 4)), cov=covs)


@pytest.mark.parametrize("mean, cov", [
    (np.zeros((3, 4)), np.array([np.eye(4)] * 2)),
    (np.zeros(4), np.array([np.eye(4)] * 2)),
    (np.zeros(4), np.eye(4).ravel()),
], ids=["stack-sizes", "single-mean", "flat-cov"])
def test_mismatched_shapes_rejected(mean, cov):
    shapes = f"got {mean.shape} and {cov.shape}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        GaussianTwoModeState(mean=mean, cov=cov)

