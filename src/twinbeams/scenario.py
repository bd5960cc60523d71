"""Scenario files: declarative construction and analysis of a state.

Format (flat key/value lines, '#' comments, order of `step` lines is the
pipeline order)::

    schema = twinbeams-scenario-1
    source = tmsv(1.103)
    step = beamsplitter(0.7853981633974483, 0.0)
    step = loss(0.9, 0.9)
    theta_plus = 0.0
    theta_minus = 1.5707963267948966
    sampling_n = 1000000
    sampling_seed = 42
    out = report.json

Sources: vacuum, thermal(f1, f2), tmsv(r), sms(mode, s, theta).
Steps: beamsplitter(theta, phi), phase(phi1, phi2), loss(eta1, eta2).
Angles are radians; loss parameters are intensity transmissions.
Unknown keys, operations, or parameters are errors, never warnings.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import criteria, sampling, states

SCHEMA = "twinbeams-scenario-1"
REPORT_SCHEMA = "twinbeams-report-1"

# One registry per kind: name -> (parameter names, sweep aliases, builder).
# A sweep alias is one name setting several parameters of the op at once.
# Builders look the state functions up when called, so wrappers put on
# the states module (bench/spans.py) see every call.
SOURCES = {
    "vacuum": ((), {}, lambda: states.make_vacuum()),
    "thermal": (("f1", "f2"), {"f": ("f1", "f2")},
                lambda f1, f2: states.make_thermal(f1, f2)),
    "tmsv": (("r",), {}, lambda r: states.make_two_mode_squeezed(r)),
    "sms": (("mode", "s", "theta"), {},
            lambda mode, s, theta: states.make_single_mode_squeezed(mode, s, theta)),
}
STEPS = {
    "beamsplitter": (("theta", "phi"), {},
                     lambda state, theta, phi: states.apply_beamsplitter(
                         state, states.BeamsplitterParams(theta, phi))),
    "phase": (("phi1", "phi2"), {},
              lambda state, phi1, phi2: states.apply_phase(state, phi1, phi2)),
    "loss": (("eta1", "eta2"), {"eta": ("eta1", "eta2")},
             lambda state, eta1, eta2: states.apply_loss(
                 state, states.LossParams(eta1, eta2))),
}

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")


class ScenarioError(ValueError):
    """Invalid scenario file; the message names the offending field."""


@dataclass(frozen=True)
class OpCall:
    name: str
    args: dict

    def format(self) -> str:
        inner = ", ".join(repr(v) for v in self.args.values())
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class Scenario:
    source: OpCall
    pipeline: tuple = ()
    theta_plus: float = 0.0
    theta_minus: float = math.pi / 2
    sampling_n: Optional[int] = None
    sampling_seed: Optional[int] = None
    out: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "source": self.source.format(),
            "pipeline": [step.format() for step in self.pipeline],
            "theta_plus": self.theta_plus,
            "theta_minus": self.theta_minus,
            "sampling": (None if self.sampling_n is None
                         else {"n": self.sampling_n, "seed": self.sampling_seed}),
        }


def _op(table: dict, name: str, kind: str) -> tuple:
    if name not in table:
        raise ScenarioError(f"{kind}: unknown operation {name!r}")
    return table[name]


def _parse_call(text: str, kind: str, table: dict) -> OpCall:
    match = _CALL_RE.match(text)
    if not match:
        raise ScenarioError(f"{kind}: cannot parse {text!r}")
    name, argtext = match.group(1), match.group(2)
    params = _op(table, name, kind)[0]
    raw_args = argtext.split(",") if argtext else []
    if len(raw_args) != len(params):
        raise ScenarioError(
            f"{kind}: {name} takes {len(params)} parameters {params}, got {len(raw_args)}")
    args = {}
    for pname, raw in zip(params, raw_args):
        try:
            args[pname] = int(raw) if pname == "mode" else float(raw)
        except ValueError as exc:
            raise ScenarioError(f"{kind}: parameter {pname} of {name}: bad value {raw.strip()!r}") from exc
    return OpCall(name=name, args=args)


def parse_scenario(text: str) -> Scenario:
    fields: dict = {}
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "step":
            steps.append(_parse_call(value, f"line {lineno} step", STEPS))
        elif key in ("schema", "source", "theta_plus", "theta_minus",
                     "sampling_n", "sampling_seed", "out"):
            if key in fields:
                raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
            fields[key] = value
        else:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
    if fields.get("schema") != SCHEMA:
        raise ScenarioError(f"schema: expected {SCHEMA!r}, got {fields.get('schema')!r}")
    if "source" not in fields:
        raise ScenarioError("source: missing")
    source = _parse_call(fields["source"], "source", SOURCES)

    def _number(key, convert, default=None):
        if key not in fields:
            return default
        try:
            return convert(fields[key])
        except ValueError as exc:
            raise ScenarioError(f"{key}: bad value {fields[key]!r}") from exc

    sampling_n, sampling_seed = _number("sampling_n", int), _number("sampling_seed", int)
    if (sampling_n is None) != (sampling_seed is None):
        raise ScenarioError("sampling_n and sampling_seed must be given together")
    if sampling_n is not None and sampling_n < 200:
        raise ScenarioError("sampling_n: must be >= 200")
    return Scenario(
        source=source,
        pipeline=tuple(steps),
        theta_plus=_number("theta_plus", float, 0.0),
        theta_minus=_number("theta_minus", float, math.pi / 2),
        sampling_n=sampling_n,
        sampling_seed=sampling_seed,
        out=fields.get("out"),
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


# ---------------------------------------------------------------------------
# execution


def _build(table: dict, kind: str, call: OpCall, *state) -> states.GaussianTwoModeState:
    builder = _op(table, call.name, kind)[2]
    try:
        return builder(*state, **call.args)
    except states.PhysicalityError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{kind} {call.name}: {exc}") from exc


def build_state(scenario: Scenario) -> states.GaussianTwoModeState:
    state = _build(SOURCES, "source", scenario.source)
    for step in scenario.pipeline:
        state = _build(STEPS, "step", step, state)
    return state


def run_scenario(scenario: Scenario) -> dict:
    """Build the state, evaluate the criteria analytically and (if
    requested) statistically, and return the report payload."""
    state = build_state(scenario)
    report = criteria.classify(state, scenario.theta_plus, scenario.theta_minus)
    estimated = None
    if scenario.sampling_n is not None:
        batch = sampling.draw_samples(
            state, scenario.sampling_n, scenario.sampling_seed,
            source_label=scenario.source.format())
        estimated = sampling.estimate_criteria(
            batch, theta_plus=scenario.theta_plus,
            theta_minus=scenario.theta_minus).to_json()
    analytic = report.to_json()
    classification = [
        {"level": lvl, "satisfied": analytic.get(f"level{lvl}"),
         "statement": criteria.LEVEL_STATEMENTS[lvl]}
        for lvl in range(1, 6)
    ]
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.to_json(),
        "state": state.to_json(),
        "analytic": analytic,
        "estimated": estimated,
        "classification": classification,
    }


def write_report(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# parameter sweeps


def _sweep_targets(scenario: Scenario, name: str):
    """Resolve a parameter name to (op index, parameter names); index 0
    is the source and k the k-th step.

    Accepts 'source.<p>', 'step<k>.<p>', or a bare '<p>' when unique
    across the scenario.  Aliases ('eta', 'f') address both parameters
    of a loss/thermal op at once.
    """
    labels = ["source"] + [f"step{k}" for k in range(1, len(scenario.pipeline) + 1)]
    if "." in name:
        loc, pname = name.split(".", 1)
        if loc not in labels:
            what = "no such step" if loc.startswith("step") else "bad location"
            raise ScenarioError(f"sweep parameter: {what} {loc!r}")
        indices = [labels.index(loc)]
    else:
        pname, indices = name, range(len(labels))
    matches = []
    for idx in indices:
        call = scenario.pipeline[idx - 1] if idx else scenario.source
        aliases = _op(STEPS if idx else SOURCES, call.name, labels[idx])[1]
        if pname in aliases:
            matches.append((idx, aliases[pname]))
        elif pname in call.args:
            matches.append((idx, (pname,)))
    if not matches:
        raise ScenarioError(f"sweep parameter: {name!r} not found in scenario")
    if len(matches) > 1:
        locs = [labels[idx] for idx, _ in matches]
        raise ScenarioError(f"sweep parameter: {name!r} is ambiguous (found in {locs})")
    return matches[0]


def set_parameter(scenario: Scenario, name: str, value: float) -> Scenario:
    idx, pnames = _sweep_targets(scenario, name)
    ops = [scenario.source, *scenario.pipeline]
    ops[idx] = OpCall(ops[idx].name, {**ops[idx].args, **dict.fromkeys(pnames, value)})
    return replace(scenario, source=ops[0], pipeline=tuple(ops[1:]))


SWEEP_COLUMNS = criteria.REPORT_KEYS[:10]


def sweep(scenario: Scenario, parameter: str, grid) -> list:
    """Evaluate the analytic criteria at each grid value of the named
    parameter.  Rows follow grid order.  The states are built one by
    one and scored as one covariance stack."""
    _sweep_targets(scenario, parameter)  # validate before running
    grid = [float(value) for value in grid]
    covs = np.empty((len(grid), 4, 4))
    for k, value in enumerate(grid):
        covs[k] = build_state(set_parameter(scenario, parameter, value)).cov
    values = criteria.report_scalars(
        criteria.state_moments(covs, scenario.theta_plus, scenario.theta_minus))
    values.update(criteria.levels(values))
    columns = [values[col].tolist() for col in SWEEP_COLUMNS]
    return [{parameter: value, **dict(zip(SWEEP_COLUMNS, row))}
            for value, row in zip(grid, zip(*columns))]


def write_sweep_csv(rows: list, parameter: str, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join((parameter,) + SWEEP_COLUMNS) + "\n")
        for row in rows:
            values = (row[col] for col in (parameter,) + SWEEP_COLUMNS)
            handle.write(",".join(str(int(v)) if isinstance(v, bool) else repr(v)
                                  for v in values) + "\n")
