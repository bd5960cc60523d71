"""End-to-end benchmark of the twinbeams CLI.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and uses the package in
``src/``.  Each CLI command runs as a user runs it: a fresh interpreter,
import included, one command at a time (a closed loop with one client).
Every output is checked against bench/reference.py outside the timed
commands.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` the same passes are also
run in this process through ``twinbeams.cli.main``, once plain and once
with the shims of bench/spans.py, and the per-layer metrics are printed
instead.  See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

# One BLAS thread in every process: the benchmark is one client on a
# small machine, and equal thread counts keep the in-process reference
# draws bit-identical to the CLI's.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import filecmp  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tomllib  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WARMUP_SCALE, WORKLOADS, make_pass, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

@dataclass
class Result:
    """One timed CLI command and what the checks found in its output."""

    command: object
    wall: float
    code: int
    rss_mb: float
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("TWINBEAMS_LOG", None)
    return env


def run_child(args: list, env: dict, stderr_path: Path) -> tuple:
    """Run ``python <args>``; returns (wall s, exit code, peak RSS MB of
    that child, from its own rusage)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def run_cli(command, inputs: Path, outdir: Path, env: dict) -> Result:
    argv = ["-m", "twinbeams.cli", *command.argv(inputs, outdir)]
    wall, code, rss = run_child(argv, env, outdir / f"{command.name}.stderr")
    return Result(command, wall, code, rss)


def check(result: Result, outdir: Path, tb) -> None:
    """Check one command's output; problems go on the result."""
    command, out = result.command, result.command.out(outdir)
    if result.code != 0:
        err = (outdir / f"{command.name}.stderr").read_text(errors="replace").strip()
        last = err.splitlines()[-1] if err else ""
        result.problems.append(f"{command.name}: exit {result.code}: {last[-300:]}")
        return
    if command.kind == "sweep":
        result.problems += reference.check_sweep(command, out)
    elif command.kind in ("run", "run-sampled"):
        result.problems += reference.check_report(command, out)
    elif command.kind == "probe":
        result.problems += reference.check_probe(command, out)
    elif command.kind == "sample":
        result.problems += reference.check_batch_file(command, out)
    else:
        batch = tb.sampling.draw_samples(library_state(tb, command.spec), command.n,
                                         command.seed)
        expected = tb.sampling.estimate_criteria(batch).to_json()
        result.problems += reference.check_estimate(command, out, expected)


def library_state(tb, spec):
    return tb.scenario.build_state(tb.scenario.parse_scenario(spec.text()))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def import_twinbeams():
    sys.path.insert(0, str(SRC))
    import twinbeams.cli
    import twinbeams.sampling
    import twinbeams.scenario

    if Path(twinbeams.__file__).resolve().parent != SRC / "twinbeams":
        raise SystemExit(f"error: twinbeams imported from {twinbeams.__file__}, not {SRC}")
    return twinbeams


def run_inprocess(tb, commands: list, inputs: Path, outdir: Path, recorder=None) -> list:
    """Each command through ``twinbeams.cli.main`` in this process;
    returns [(exit code, seconds)], the time from the top-level span
    when a recorder is given."""
    outcomes = []
    for command in commands:
        argv = command.argv(inputs, outdir)
        span = None
        start = time.perf_counter()
        try:
            if recorder is None:
                code = tb.cli.main(argv)
            else:
                recorder.kinds.append(command.kind)
                code, span = recorder.top("cli.main", len(recorder.kinds) - 1,
                                          tb.cli.main, argv)
                if command.kind == "estimate":
                    recorder.batches[command.name] = recorder.last_batch
        except Exception:  # the CLI let it escape: report it as a failed command
            traceback.print_exc()
            code = -1
        outcomes.append((code, span.duration if span else time.perf_counter() - start))
    return outcomes


def inprocess_passes(tb, commands, results, inputs: Path, work: Path, index: int,
                recorder, timings: dict) -> None:
    """The in-process passes of one timed pass: plain, then traced.
    Their outputs must equal the CLI's byte for byte, and every batch
    read back must equal draw_samples bit for bit."""
    plain_dir, traced_dir = work / f"plain-{index}", work / f"traced-{index}"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = run_inprocess(tb, commands, inputs, plain_dir)
    uninstall = spans.install(recorder)
    try:
        traced = run_inprocess(tb, commands, inputs, traced_dir, recorder)
    finally:
        uninstall()
    gc.freeze()  # keep the spans out of later collections, which would slow the plain pass
    timings["plain"].append(sum(t for _, t in plain))
    timings["traced"].append(sum(t for _, t in traced))
    cli_dir = work / f"cli-{index}"
    for result, (plain_code, plain_s), (traced_code, _) in zip(results, plain, traced):
        command = result.command
        # the top-level call without shims, so tracing overhead stays out
        timings["residual"].append(result.wall - timings["setup"] - plain_s)
        if {plain_code, traced_code} != {result.code}:
            result.problems.append(f"{command.name}: in-process exit codes "
                                   f"{plain_code}/{traced_code}, CLI {result.code}")
            continue
        if result.code == 0 and not all(
                filecmp.cmp(command.out(cli_dir), command.out(d), shallow=False)
                for d in (plain_dir, traced_dir)):
            result.problems.append(f"{command.name}: in-process output differs from the CLI's")
        if command.kind == "estimate":
            got = recorder.batches.pop(command.name)
            drawn = tb.sampling.draw_samples(library_state(tb, command.spec),
                                             command.n, command.seed).samples
            if got is None or got.tobytes() != drawn.tobytes():
                result.problems.append(f"{command.name}: read_batch differs from draw_samples")
    shutil.rmtree(plain_dir)
    shutil.rmtree(traced_dir)


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, tb) -> tuple:
    env = child_env()
    inputs = work / "inputs"
    warm_dir = work / "warmup"
    warm_dir.mkdir(parents=True)
    warmup = make_pass(workload, seed, "warmup", WARMUP_SCALE)[0]
    write_inputs([warmup], inputs)
    for command in warmup:
        run_cli(command, inputs, warm_dir, env)
    if trace:
        run_inprocess(tb, warmup, inputs, warm_dir)
    shutil.rmtree(warm_dir)

    import_args = ["-c", "import twinbeams"]
    setup = [run_child(import_args, env, work / "import.stderr")[0]
             for _ in range(SETUP_REPEATS)]
    timings = {"setup": median(setup), "plain": [], "traced": [], "residual": []}
    layers = {}
    if trace:
        profiles = []
        for _ in range(IMPORTTIME_REPEATS):
            done = subprocess.run([sys.executable, "-X", "importtime", *import_args],
                                  env=env, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            profiles.append(spans.parse_importtime(done.stderr))
        layers["cli.import_s"] = median([p[0] for p in profiles])
        layers["cli.import_scipy_s"] = median([p[1] for p in profiles])
        recorder = spans.Recorder()

    passes, results = [], []
    start = time.perf_counter()
    # start another pass while at least half of one of average length fits
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) <= seconds:
        index = len(passes)
        units = make_pass(workload, seed, index)
        write_inputs(units, inputs)
        commands = [c for unit in units for c in unit]
        cli_dir = work / f"cli-{index}"
        cli_dir.mkdir()
        begin = time.perf_counter()
        done = [run_cli(c, inputs, cli_dir, env) for c in commands]
        passes.append((time.perf_counter() - begin, max(r.rss_mb for r in done)))
        for result in done:
            check(result, cli_dir, tb)
        if trace:
            inprocess_passes(tb, commands, done, inputs, work, index, recorder, timings)
        shutil.rmtree(cli_dir)
        results += done

    if trace:
        layers.update(spans.layer_metrics(recorder.spans, recorder.kinds))
        layers["cli.residual_s"] = median(timings["residual"])
        layers["trace.overhead_pct"] = 100.0 * (sum(timings["traced"])
                                                / sum(timings["plain"]) - 1.0)
    return timings["setup"], setup, passes, results, layers


def end_to_end(setup_s: float, passes: list, results: list) -> dict:
    timed = [r for r in results if r.command.role != "probe"]
    primary = [r for r in timed if r.command.role == "primary"]
    secondary = [r for r in timed if r.command.role == "secondary"]
    # work carried: sweep points, or samples from draw to estimate
    items = sum(r.command.grid[2] if r.command.kind == "sweep" else r.command.n
                for r in primary)
    busy = sum(r.wall for r in primary) + sum(
        r.wall for r in secondary if r.command.kind == "estimate")
    return {
        "setup_s": setup_s,
        "wall_s": median([wall for wall, _ in passes]),
        "primary_cmd_s": median([r.wall for r in primary]),
        "secondary_cmd_s": median([r.wall for r in secondary]),
        "items_per_s": items / busy,
        "peak_rss_mb": median([rss for _, rss in passes]),
    }


def provenance(workload: str, seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    with open(ROOT / "pyproject.toml", "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    return {
        "machine": {"nproc": nproc, "cpu": cpu,
                    "memory_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy, "twinbeams": version},
        "blas": {"name": blas, "threads": {v: os.environ[v] for v in THREAD_VARS}},
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "twinbeams" / "__init__.py").is_file():
        print(f"error: no twinbeams sources under {SRC}", file=sys.stderr)
        return 2
    tb = import_twinbeams()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, setups, passes, results, layers = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work, tb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    timed = [r for r in results if r.command.role != "probe"]
    probes = [r for r in results if r.command.role == "probe"]
    failed = [r for r in timed if not r.ok]
    layers["cli.edge_probe_error_rate"] = (
        sum(not r.ok for r in probes) / len(probes) if probes else 0.0)
    for result in failed + [r for r in probes if not r.ok]:
        for problem in result.problems[:3]:
            print(("probe: " if result.command.role == "probe" else "FAILED: ") + problem,
                  file=sys.stderr)
    counts = {"setup": len(setups), "passes": len(passes)}
    for role in ("primary", "secondary", "probe"):
        counts[role] = sum(r.command.role == role for r in results)
    print(json.dumps({"provenance": provenance(args.workload, args.seed),
                      "samples": counts,
                      "edge_probes": {"run": len(probes),
                                      "failed": sum(not r.ok for r in probes)}}))
    # names and units come from BENCHMARK.json, the list the result must match
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = layers if args.trace else end_to_end(setup_s, passes, results)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": not failed, "attempted": len(timed),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
