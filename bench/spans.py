"""Spans recorded from outside the program, for the traced pass.

``install`` wraps every public function of twinbeams.scenario, .states,
.criteria and .sampling in a shim that records a span (name, start, end,
parent, command), and rebinds the shim under every name that a twinbeams
module holds for the function, so calls through ``from .states import
quadrature_moments`` are seen as well.  State constructions are counted
through ``GaussianTwoModeState.__post_init__``.  Spans stay in memory;
``layer_metrics`` reduces them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import tracemalloc

LAYERS = ("scenario", "states", "criteria", "sampling")
POST_INIT = "states.GaussianTwoModeState.__post_init__"
# peak traced memory is taken around these calls only
PEAK_SPANS = ("sampling.draw_samples", "sampling.estimate_criteria")
# the size a span handled: rows drawn, bytes written or read, sweep points
SIZERS = {
    "sampling.draw_samples": lambda args, result: args[1],
    "sampling.write_batch": lambda args, result: os.path.getsize(args[1]),
    "sampling.read_batch": lambda args, result: os.path.getsize(args[0]),
    "scenario.sweep": lambda args, result: len(result),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "size", "peak", "child_time")

    def __init__(self, name, parent, command):
        self.name, self.parent, self.command = name, parent, command
        self.size = self.peak = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Holds the spans of the traced passes.  ``command`` is the index
    of the CLI command in progress and ``kinds`` the kind of each
    command; ``last_batch`` is the last array that read_batch returned,
    ``batches`` those kept per estimate command."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = None
        self.kinds = []
        self.last_batch = None
        self.batches = {}

    def shim(self, name, fn):
        sizer = SIZERS.get(name)
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else None, self.command)
            self.spans.append(span)
            self.stack.append(span)
            if peak:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
                if peak:
                    span.peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if sizer is not None:
                span.size = sizer(args, result)
            if name == "sampling.read_batch":
                self.last_batch = result.samples
            return result

        return traced

    def top(self, name, command, fn, *args):
        """Run fn as the top-level span of command number ``command``;
        returns (result, span)."""
        self.command = command
        index = len(self.spans)
        result = self.shim(name, fn)(*args)
        return result, self.spans[index]


def install(recorder: Recorder):
    """Put shims in place; returns a function that removes them."""
    for layer in LAYERS:
        importlib.import_module(f"twinbeams.{layer}")
    modules = [m for name, m in list(sys.modules.items())
               if name == "twinbeams" or name.startswith("twinbeams.")]
    undo = []
    for layer in LAYERS:
        module = sys.modules[f"twinbeams.{layer}"]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            shim = recorder.shim(f"{layer}.{attr}", fn)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, shim)
                        undo.append((holder, key, fn))
    state_cls = sys.modules["twinbeams.states"].GaussianTwoModeState
    post_init = state_cls.__dict__["__post_init__"]
    state_cls.__post_init__ = recorder.shim(POST_INIT, post_init)
    undo.append((state_cls, "__post_init__", post_init))

    def uninstall():
        for holder, key, fn in reversed(undo):
            setattr(holder, key, fn)

    return uninstall


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list, kinds: list) -> dict:
    """Per-layer metrics of one or more traced passes.  ``kinds[i]`` is
    the kind of command i; layers a workload does not reach read 0."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name, scale=1.0, command_kinds=None):
        return [s.duration * scale for s in by_name.get(name, [])
                if command_kinds is None or kinds[s.command] in command_kinds]

    def total_rate(name, unit):
        found = by_name.get(name, [])
        busy = sum(s.duration for s in found)
        return sum(s.size for s in found) / unit / busy if busy else 0.0

    sweeps = by_name.get("scenario.sweep", [])
    points = sum(s.size for s in sweeps)
    sweep_commands = {s.command for s in sweeps}
    estimates = by_name.get("sampling.estimate_criteria", [])
    estimate_ids = {id(s) for s in estimates}

    def under_estimate(span):
        while span.parent is not None:
            span = span.parent
            if id(span) in estimate_ids:
                return True
        return False

    run_kind = {"run-sampled"} if "run-sampled" in kinds else {"run"}
    applies = [s for n in ("states.apply_beamsplitter", "states.apply_phase",
                           "states.apply_loss") for s in by_name.get(n, [])]
    return {
        "scenario.parse_scenario_us": _median(durations("scenario.parse_scenario"), 1e6),
        "scenario.build_state_us": _median(durations("scenario.build_state"), 1e6),
        "scenario.run_scenario_s": _median(durations("scenario.run_scenario",
                                                     command_kinds=run_kind)),
        "scenario.sweep_us_per_point":
            sum(s.duration for s in sweeps) * 1e6 / points if points else 0.0,
        "scenario.sweep_self_us_per_point":
            sum(s.self_time for s in sweeps) * 1e6 / points if points else 0.0,
        "scenario.write_sweep_csv_s": _median(durations("scenario.write_sweep_csv")),
        "states.constructions_per_point": sum(
            1 for s in by_name.get(POST_INIT, []) if s.command in sweep_commands
        ) / points if points else 0.0,
        "states.construct_us": _median(durations(POST_INIT), 1e6),
        "states.uncertainty_min_eigenvalue_us":
            _median(durations("states.uncertainty_min_eigenvalue"), 1e6),
        "states.apply_us": _median([s.duration for s in applies], 1e6),
        "criteria.classify_us": _median(durations("criteria.classify"), 1e6),
        "criteria.state_moments_us": _median(durations("criteria.state_moments"), 1e6),
        "criteria.report_scalars_us": _median(durations("criteria.report_scalars"), 1e6),
        "criteria.report_scalars_calls": sum(
            1 for s in by_name.get("criteria.report_scalars", []) if under_estimate(s)
        ) / len(estimates) if estimates else 0.0,
        "sampling.draw_samples_s": _median(durations("sampling.draw_samples")),
        "sampling.draw_rows_per_s": total_rate("sampling.draw_samples", 1),
        "sampling.draw_peak_mb": max([s.peak / 1e6 for s in
                                      by_name.get("sampling.draw_samples", [])], default=0.0),
        "sampling.estimate_criteria_s": _median(durations("sampling.estimate_criteria")),
        "sampling.jackknife_self_s": _median([s.self_time for s in estimates]),
        "sampling.moments_from_samples_s":
            _median(durations("sampling.moments_from_samples")),
        "sampling.estimate_peak_mb": max([s.peak / 1e6 for s in estimates], default=0.0),
        "sampling.write_batch_s": _median(durations("sampling.write_batch")),
        "sampling.write_mb_per_s": total_rate("sampling.write_batch", 1e6),
        "sampling.read_batch_s": _median(durations("sampling.read_batch")),
        "sampling.read_mb_per_s": total_rate("sampling.read_batch", 1e6),
        "sampling.batch_bytes": _median([s.size for s in by_name.get("sampling.write_batch", [])]),
    }


def parse_importtime(stderr: str) -> tuple:
    """(twinbeams cumulative s, scipy s) from ``python -X importtime``
    output.  The scipy figure is the time spent in scipy's import
    subtrees, leaving out the numpy subtrees nested in them (twinbeams
    would import numpy anyway)."""
    nodes = []  # post-order: (depth, self_us, cumulative_us, name, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cum_us, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = (depth, int(head[len("import time:"):]), int(cum_us), name.strip(), [])
        while nodes and nodes[-1][0] > depth:
            node[4].insert(0, nodes.pop())
        nodes.append(node)

    def scipy_us(node, inside):
        name = node[3]
        if name == "numpy" or name.startswith("numpy."):
            return 0
        inside = inside or name == "scipy" or name.startswith("scipy.")
        return (node[1] if inside else 0) + sum(scipy_us(c, inside) for c in node[4])

    total = sum(n[2] for n in nodes if n[3] == "twinbeams")
    return total / 1e6, sum(scipy_us(n, False) for n in nodes) / 1e6
