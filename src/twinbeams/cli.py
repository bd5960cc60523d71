"""Command-line entry point.

Subcommands:
  run       build the scenario's state and write a JSON criteria report
  sweep     vary one scenario parameter over a grid, write a CSV table
  sample    draw a homodyne sample batch from the scenario's state (CSV)
  estimate  estimate criteria with standard errors from a batch file

Exit codes: 0 success, 2 validation error, 3 a state outside the uncertainty bound.

`entry` is the process entry (`python -m twinbeams.cli` and the installed
`twinbeams` script); `main` is the command itself and sets no process policy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PHYSICALITY = 3


def _parse_grid(text: str) -> list:
    """Grid syntax: 'start:stop:num' (inclusive linspace) or a comma list."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            grid = [float(cell) for cell in text.split(",")]
        else:
            start, stop, num = parts
            start, stop, num = float(start), float(stop), int(num)
    except ValueError:
        raise ValueError("--grid: expected start:stop:num with an integer num, "
                         f"or numbers separated by commas; got {text!r}") from None
    if len(parts) > 1:
        if num < 2:
            raise ValueError("--grid: range needs num >= 2")
        step = (stop - start) / (num - 1)
        try:
            grid = [start + i * step for i in range(num)]
        except MemoryError:
            raise _grid_too_large(num) from None
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"--grid: values must be finite, got {text!r}")
    return grid


def _grid_too_large(points: int) -> ValueError:
    return ValueError(f"--grid: {points} points are more than memory holds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeams",
        description="Two-mode Gaussian states and quantum-correlation criteria.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="Run a scenario and write a JSON report")
    run_cmd.add_argument("--scenario", required=True, help="Scenario file path")
    run_cmd.add_argument("--out", default=None, help="Report path (default: scenario 'out' key or stdout)")

    sweep_cmd = sub.add_parser("sweep", help="Sweep one scenario parameter over a grid")
    sweep_cmd.add_argument("--scenario", required=True)
    sweep_cmd.add_argument("--param", required=True,
                           help="Parameter name, e.g. source.r, step1.eta, theta")
    sweep_cmd.add_argument("--grid", required=True,
                           help="start:stop:num or comma-separated values")
    sweep_cmd.add_argument("--out", required=True, help="Output CSV path")

    sample_cmd = sub.add_parser("sample", help="Draw a sample batch and write it as CSV")
    sample_cmd.add_argument("--scenario", required=True)
    sample_cmd.add_argument("--n", type=int, required=True, help="Number of samples")
    sample_cmd.add_argument("--seed", type=int, required=True)
    sample_cmd.add_argument("--out", required=True, help="Output CSV path")

    est_cmd = sub.add_parser("estimate", help="Estimate criteria from a batch file")
    est_cmd.add_argument("--batch", required=True, help="Batch CSV path")
    est_cmd.add_argument("--out", default=None, help="JSON output path (default stdout)")
    return parser


def _write_json(payload: dict, out) -> None:
    """Indented JSON with sorted keys, to the path out or to stdout.  A
    failed write to stdout is named `<stdout>`, and stdout's descriptor
    is pointed at os.devnull first, so the flush at exit cannot fail too."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        from . import scenario

        with scenario._output(out) as write:
            write(text.encode("utf-8"))
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, stdout)
            finally:
                os.close(devnull)
        exc.filename = "<stdout>"
        raise


def _cmd_run(args) -> int:
    from . import scenario

    scn = scenario.load_scenario(args.scenario)
    payload = scenario.run_scenario(scn)
    _write_json(payload, args.out or scn.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import scenario

    scn = scenario.load_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    try:
        scenario.write_sweep_csv(scenario.sweep(scn, args.param, grid), args.out)
    except MemoryError:  # numpy's allocation failures included; no file is opened
        raise _grid_too_large(len(grid)) from None
    return EXIT_OK


def _cmd_sample(args) -> int:
    from . import sampling, scenario  # here: an analytic command never loads sampling

    scn = scenario.load_scenario(args.scenario)
    state = scenario.build_state(scn)
    batch = sampling.DrawnBatch(state, args.n, args.seed, source_label=scn.source.format())
    sampling.write_batch(batch, args.out)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    from . import sampling

    try:
        estimated = sampling.estimate_criteria(sampling.read_batch(args.batch))
    except ValueError as exc:
        raise ValueError(f"{args.batch}: {exc}") from None
    _write_json(estimated.to_json(), args.out)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "sample": _cmd_sample,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    return _run(build_parser().parse_args(argv))


def _run(args) -> int:
    from .states import PhysicalityError

    try:
        return _COMMANDS[args.command](args)
    except PhysicalityError as exc:
        print(f"physicality error: {exc}", file=sys.stderr)
        return EXIT_PHYSICALITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


class _Terminated(BaseException):
    """SIGTERM, raised where the command is, as Ctrl-C raises KeyboardInterrupt."""


def _terminate(signum, frame):
    raise _Terminated


def entry() -> int:
    """Parse the command line once and run its command as a whole process.
    `--help` and a usage error exit at the parse, before numpy loads; a
    command line that parses loads numpy and the analytic layers, then
    freezes what is loaded out of the collector's reach:
    the collections of the command, of its forked CSV workers and of
    interpreter shutdown no longer walk numpy's and the package's import
    graph.  An interrupt (Ctrl-C) or a SIGTERM (kill's default) ends the
    process by that signal, as a shell expects, with no traceback, also
    while numpy loads; by then the output file it began is removed.
    SIGTERM is handled only while this function runs, and not at all where
    this process was started ignoring it."""
    import signal

    handled = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    if handled:
        signal.signal(signal.SIGTERM, _terminate)
    try:
        args = build_parser().parse_args(sys.argv[1:])  # --help or a usage error exits here
        from . import scenario  # numpy, states and criteria: loaded here, then frozen
        gc.freeze()
        return _run(args)
    except (KeyboardInterrupt, _Terminated) as exc:
        signum = signal.SIGINT if isinstance(exc, KeyboardInterrupt) else signal.SIGTERM
        signal.signal(signum, signal.SIG_DFL)
        signal.raise_signal(signum)
        raise  # where the signal does not end a process
    finally:
        if handled:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


if __name__ == "__main__":
    sys.exit(entry())
