"""Seeded workload generation: scenario files and CLI command sequences.

A workload is an endless series of passes; pass ``i`` is generated from
``(workload, seed, i)`` alone, so the same seed always yields the same
scenario files byte for byte.  Every pass of a workload has the same
composition (command kinds, step kinds, sizes); the seed only draws the
sources, parameter values, swept parameters and order.  That keeps passes
of different seeds comparable in cost.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

WORKLOADS = ("sweep-grid", "sampled-run", "batch-roundtrip")

SWEEP_POINTS = 2001
SAMPLED_RUN_N = 2_000_000
BATCH_N = 1_000_000
# the untimed warm-up runs one unit of the workload at this share of its size
WARMUP_SCALE = 0.1

SCHEMA = "twinbeams-scenario-1"
STEP_KINDS = ("beamsplitter", "phase", "loss")
# A pass holds one scenario per pipeline below, in seeded order and with
# the steps of each in seeded order.  The kinds per step count are fixed
# because a beamsplitter step costs about twice a phase or loss step, and
# a free draw would make sweeps of different seeds differ by up to 40%.
PIPELINES = (("beamsplitter",), ("phase", "loss"), ("beamsplitter", "phase", "loss"))
SWEEP_RANGES = {"r": (0.0, 2.0), "eta": (0.0, 1.0), "theta": (0.0, math.pi)}
# domain-edge probes: analytic runs past the working range of the program
PROBE_R = (5.0, 10.0)
BALANCED_SPLIT = math.pi / 4


@dataclass(frozen=True)
class Spec:
    """One scenario file: a source, a pipeline of steps and an optional
    sampling block.  Ops are ``(name, ((param, value), ...))``."""

    name: str
    source: tuple
    steps: tuple = ()
    sampling: Optional[tuple] = None  # (n, seed)

    def text(self) -> str:
        lines = [f"schema = {SCHEMA}", f"source = {_format_op(self.source)}"]
        lines += [f"step = {_format_op(step)}" for step in self.steps]
        if self.sampling is not None:
            lines += [f"sampling_n = {self.sampling[0]}",
                      f"sampling_seed = {self.sampling[1]}"]
        return "\n".join(lines) + "\n"

    def with_param(self, address: str, value: float) -> "Spec":
        """The spec with the sweep parameter ``source.<p>`` or
        ``step<k>.<p>`` set to value; ``eta`` sets both transmissions."""
        loc, pname = address.split(".", 1)
        names = ("eta1", "eta2") if pname == "eta" else (pname,)

        def setp(op):
            return (op[0], tuple((k, value if k in names else v) for k, v in op[1]))

        if loc == "source":
            return replace(self, source=setp(self.source))
        k = int(loc[4:]) - 1
        steps = list(self.steps)
        steps[k] = setp(steps[k])
        return replace(self, steps=tuple(steps))


def _format_op(op) -> str:
    return f"{op[0]}({', '.join(repr(v) for _, v in op[1])})"


@dataclass(frozen=True)
class Command:
    """One CLI command.  ``kind`` is sweep, run, run-sampled, sample,
    estimate or probe; ``role`` says which end-to-end metric it feeds."""

    kind: str
    role: str  # primary, secondary or probe
    name: str
    spec: Spec
    param: Optional[str] = None
    grid: Optional[tuple] = None  # (start, stop, num)
    n: Optional[int] = None
    seed: Optional[int] = None
    batch: Optional[str] = None  # name of the sample command feeding an estimate

    def out(self, outdir: Path) -> Path:
        suffix = ".csv" if self.kind in ("sweep", "sample") else ".json"
        return outdir / f"{self.name}{suffix}"

    def argv(self, inputs: Path, outdir: Path) -> list:
        scn = str(inputs / f"{self.spec.name}.txt")
        out = str(self.out(outdir))
        if self.kind == "sweep":
            grid = ":".join(repr(x) for x in self.grid[:2]) + f":{self.grid[2]}"
            return ["sweep", "--scenario", scn, "--param", self.param,
                    "--grid", grid, "--out", out]
        if self.kind == "sample":
            return ["sample", "--scenario", scn, "--n", str(self.n),
                    "--seed", str(self.seed), "--out", out]
        if self.kind == "estimate":
            return ["estimate", "--batch", str(outdir / f"{self.batch}.csv"), "--out", out]
        return ["run", "--scenario", scn, "--out", out]

    @property
    def grid_values(self) -> list:
        """The grid exactly as the CLI expands 'start:stop:num'."""
        start, stop, num = self.grid
        step = (stop - start) / (num - 1)
        return [start + i * step for i in range(num)]


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _source(rng: random.Random) -> tuple:
    if rng.random() < 0.5:
        return ("tmsv", (("r", rng.uniform(0.0, 2.0)),))
    f1, f2 = rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)
    return ("thermal", (("f1", f1), ("f2", f2)))


def _step(rng: random.Random, kind: str) -> tuple:
    if kind == "beamsplitter":
        return (kind, (("theta", rng.uniform(0.0, math.pi)),
                       ("phi", rng.uniform(0.0, 2 * math.pi))))
    if kind == "phase":
        return (kind, (("phi1", rng.uniform(0.0, 2 * math.pi)),
                       ("phi2", rng.uniform(0.0, 2 * math.pi))))
    return (kind, (("eta1", rng.uniform(0.05, 1.0)), ("eta2", rng.uniform(0.05, 1.0))))


def _balanced_pipelines(rng: random.Random) -> list:
    pipelines = []
    for kinds in PIPELINES:
        kinds = list(kinds)
        rng.shuffle(kinds)
        pipelines.append(tuple(_step(rng, k) for k in kinds))
    rng.shuffle(pipelines)
    return pipelines


def _sweep_params(spec: Spec) -> list:
    """Sweepable parameters of a spec; every pipeline above has one."""
    choices = ["source.r"] if spec.source[0] == "tmsv" else []
    for k, (name, _) in enumerate(spec.steps, start=1):
        if name == "loss":
            choices.append(f"step{k}.eta")
        elif name == "beamsplitter":
            choices.append(f"step{k}.theta")
    return choices


def make_pass(workload: str, seed: int, index, scale: float = 1.0) -> list:
    """Pass ``index`` of a workload as a list of units; a unit is the
    list of commands on one scenario.  ``scale`` shrinks the sweep grid
    and the sample counts (used for the warm-up and by tests)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed, index)
    tag = f"p{index}"
    if workload == "batch-roundtrip":
        count = rng.choice((1, 2, 3))
        spec = Spec(f"{tag}-u0", _source(rng),
                    tuple(_step(rng, rng.choice(STEP_KINDS)) for _ in range(count)))
        n = max(200, int(BATCH_N * scale))
        sample = Command("sample", "primary", f"{tag}-u0-sample", spec,
                         n=n, seed=rng.randrange(2 ** 31))
        estimate = Command("estimate", "secondary", f"{tag}-u0-estimate", spec,
                           batch=sample.name, n=n, seed=sample.seed)
        return [[sample, estimate]]

    units = []
    for u, steps in enumerate(_balanced_pipelines(rng)):
        spec = Spec(f"{tag}-u{u}", _source(rng), steps)
        if workload == "sweep-grid":
            param = rng.choice(_sweep_params(spec))
            num = max(2, int(SWEEP_POINTS * scale))
            units.append([
                Command("sweep", "primary", f"{spec.name}-sweep", spec, param=param,
                        grid=SWEEP_RANGES[param.split(".")[1]] + (num,)),
                Command("run", "secondary", f"{spec.name}-run", spec),
            ])
        else:
            n = max(200, int(SAMPLED_RUN_N * scale))
            sampled = replace(spec, name=f"{spec.name}-sampled",
                              sampling=(n, rng.randrange(2 ** 31)))
            units.append([
                Command("run-sampled", "primary", f"{sampled.name}-run", sampled,
                        n=n, seed=sampled.sampling[1]),
                Command("run", "secondary", f"{spec.name}-run", spec),
            ])
    if workload == "sweep-grid":
        for k, split in enumerate((False, True)):
            r = rng.uniform(*PROBE_R)
            steps = ((("beamsplitter", (("theta", BALANCED_SPLIT), ("phi", 0.0))),)
                     if split else ())
            spec = Spec(f"{tag}-probe{k}", ("tmsv", (("r", r),)), steps)
            units.append([Command("probe", "probe", f"{spec.name}-run", spec)])
    return units


def write_inputs(units: list, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for unit in units:
        for command in unit:
            path = inputs / f"{command.spec.name}.txt"
            path.write_text(command.spec.text(), encoding="utf-8")
