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
Unknown keys, operations, parameters and nan/inf are errors, never warnings.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import re
import stat
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import criteria, states

SCHEMA = "twinbeams-scenario-1"
REPORT_SCHEMA = "twinbeams-report-1"

# One registry per kind: name -> (parameter names, sweep aliases, the name
# of the states function that builds it, taking the parameters in order).
# A sweep alias is one name setting several parameters of the op at once.
# The function is looked up on the states module when called, so wrappers
# put on that module (bench/spans.py) see every call.
SOURCES = {
    "vacuum": ((), {}, "make_vacuum"),
    "thermal": (("f1", "f2"), {"f": ("f1", "f2")}, "make_thermal"),
    "tmsv": (("r",), {}, "make_two_mode_squeezed"),
    "sms": (("mode", "s", "theta"), {}, "make_single_mode_squeezed"),
}
STEPS = {
    "beamsplitter": (("theta", "phi"), {}, "apply_beamsplitter"),
    "phase": (("phi1", "phi2"), {}, "apply_phase"),
    "loss": (("eta1", "eta2"), {"eta": ("eta1", "eta2")}, "apply_loss"),
}

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")


class ScenarioError(ValueError):
    """Invalid scenario file; the message names the offending field."""


def _number(text: str, field: str, convert=float):
    """text as a finite number; a ScenarioError naming the field otherwise."""
    try:
        value = convert(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ScenarioError(f"{field}: bad value {text.strip()!r}")


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
    theta_plus: float = criteria.THETA_PLUS
    theta_minus: float = criteria.THETA_MINUS
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
    return OpCall(name=name, args={
        pname: _number(raw, f"{kind}: parameter {pname} of {name}", int if pname == "mode" else float)
        for pname, raw in zip(params, raw_args)})


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

    sampling_n, sampling_seed = (_number(fields[key], key, int) if key in fields else None
                                 for key in ("sampling_n", "sampling_seed"))
    if (sampling_n is None) != (sampling_seed is None):
        raise ScenarioError("sampling_n and sampling_seed must be given together")
    if sampling_n is not None:
        from .sampling import MIN_SAMPLES  # here: an analytic scenario never loads sampling

        if sampling_n < MIN_SAMPLES:
            raise ScenarioError(f"sampling_n: must be >= {MIN_SAMPLES}")
        if sampling_seed < 0:
            raise ScenarioError("sampling_seed: must be >= 0")
    # an angle not given keeps the Scenario default
    angles = {key: _number(fields[key], key, criteria.measurement_angle)
              for key in ("theta_plus", "theta_minus") if key in fields}
    return Scenario(source=source, pipeline=tuple(steps), **angles, sampling_n=sampling_n,
                    sampling_seed=sampling_seed, out=fields.get("out"))


def load_scenario(path) -> Scenario:
    """The scenario of a UTF-8 file; every error names the file first."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as parse_scenario numbers its lines; "?" stands for the bad byte
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ScenarioError(f"{path}: line {line}: byte {data[exc.start]:#04x} "
                            "is not UTF-8") from None
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# execution


def _build(table: dict, kind: str, call: OpCall, *state) -> states.GaussianTwoModeState:
    params, _, builder = _op(table, call.name, kind)
    try:
        return getattr(states, builder)(*state, *(call.args[p] for p in params))
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
        from . import sampling

        # drawn block by block inside the jackknife, never held whole
        batch = sampling.DrawnBatch(
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
    if matches[0][1] == ("mode",):
        raise ScenarioError(f"sweep parameter: {name!r} selects a beam, it is not a sweep axis")
    return matches[0]


def set_parameter(scenario: Scenario, name: str, value) -> Scenario:
    """The scenario with the named parameter set to a float or an array."""
    idx, pnames = _sweep_targets(scenario, name)
    ops = [scenario.source, *scenario.pipeline]
    ops[idx] = OpCall(ops[idx].name, {**ops[idx].args, **dict.fromkeys(pnames, value)})
    return replace(scenario, source=ops[0], pipeline=tuple(ops[1:]))


# the criterion values and level 1-4 verdicts: the first ten report fields
SWEEP_COLUMNS = tuple(field.name for field in fields(criteria.CriteriaReport))[:10]
# one CSV row: the repr of the parameter and of each float, 0 or 1 for a verdict
_SWEEP_ROW = ",".join(["%r"] + ["%d" if col.startswith("level") else "%r"
                                for col in SWEEP_COLUMNS]) + "\n"


def sweep(scenario: Scenario, parameter: str, grid) -> np.recarray:
    """The analytic criteria at each value of a 1-D grid of the named
    parameter: one record per value, in grid order, of the parameter then
    SWEEP_COLUMNS.  The grid's states are built and scored as one stack."""
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"grid must be one-dimensional, got shape {grid.shape}")
    state = build_state(set_parameter(scenario, parameter, grid))
    table = criteria.report_scalars(
        criteria.state_moments(state, scenario.theta_plus, scenario.theta_minus))
    return np.rec.fromarrays([grid, *(table[col] for col in SWEEP_COLUMNS)],
                             names=[parameter, *SWEEP_COLUMNS])


def write_sweep_csv(rows: np.recarray, path) -> None:
    """The records as CSV, formatted in one pass before the file is opened."""
    cells = tuple(itertools.chain.from_iterable(rows.tolist()))
    data = (",".join(rows.dtype.names) + "\n" + _SWEEP_ROW * len(rows) % cells).encode("utf-8")
    with _output(path) as write:
        write(data)


@contextlib.contextmanager
def _output(path):
    """A function that writes bytes to the file at `path`, unbuffered.  An
    OSError of its own writes (a full disk, a size limit) is given `path`,
    so its message ends with the file, as an open error's does.  A write
    that fails, or is interrupted, removes the regular file it began, so
    no truncated output is left; a device or a pipe is kept."""
    def write(data) -> None:
        view = memoryview(data)
        try:
            while view:  # an unbuffered write may take part of it
                view = view[handle.write(view):]
        except OSError as exc:
            if exc.filename is None:
                exc.filename = os.fspath(path)
            raise

    with open(path, "wb", buffering=0) as handle:
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        try:
            yield write
        except BaseException:
            if regular:
                with contextlib.suppress(OSError):  # the first error is the one to report
                    os.remove(path)
            raise
