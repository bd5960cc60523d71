"""Plain-numpy reference for the CLI's outputs, and the output checks.

The reference follows the README conventions only: quadratures ordered
(X+_1, X-_1, X+_2, X-_2), vacuum covariance = identity, a beamsplitter
sends mode 1 to cos(theta) dX1 - sin(theta) dX2 after a phase on mode 2,
loss mixes each mode with vacuum at intensity transmission eta.  The
criteria are computed from the covariance by routes other than the
program's closed forms: G as the smaller eigenvalue of the X+ block
[[F1, C], [C, F2]], conditional variances as Schur complements, S12 as
the variances of the fixed 50/50 combinations.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Analytic values must match the reference to this relative precision.
RTOL = 1e-9
# Sampled estimates must lie within this many jackknife standard errors.
N_SIGMA = 5.0
VALUE_KEYS = ("gemellity", "conditional_variance_12", "conditional_variance_21",
              "separability", "epr_product_12", "epr_product_21")
LEVEL_BOUNDS = {"level1": ("gemellity",), "level2": ("conditional_variance_12",
                "conditional_variance_21"), "level3": ("separability",),
                "level4": ("epr_product_12", "epr_product_21")}
LEVEL_LIMITS = {"level1": 1.0, "level2": 1.0, "level3": 2.0, "level4": 1.0}
MOMENT_KEYS = ("fplus_1", "fplus_2", "cplus", "fminus_1", "fminus_2", "cminus")


def _rot(phi: float) -> np.ndarray:
    return np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])


def covariance(spec) -> np.ndarray:
    """Covariance of the state a workload spec describes."""
    name, args = spec.source[0], dict(spec.source[1])
    if name == "tmsv":
        ch, sh = math.cosh(2 * args["r"]), math.sinh(2 * args["r"])
        cov = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
    else:
        cov = np.diag([args["f1"], args["f1"], args["f2"], args["f2"]])
    for name, params in spec.steps:
        p = dict(params)
        if name == "loss":
            t = np.sqrt(np.repeat([p["eta1"], p["eta2"]], 2))
            cov = t[:, None] * cov * t[None, :] + np.diag(1 - t ** 2)
            continue
        if name == "phase":
            s = np.zeros((4, 4))
            s[:2, :2], s[2:, 2:] = _rot(p["phi1"]), _rot(p["phi2"])
        else:
            c, sn = math.cos(p["theta"]), math.sin(p["theta"])
            phase2 = np.eye(4)
            phase2[2:, 2:] = _rot(p["phi"])
            s = np.kron(np.array([[c, -sn], [sn, c]]), np.eye(2)) @ phase2
        cov = s @ cov @ s.T
    return cov


def criteria(covs: np.ndarray) -> dict:
    """Criterion values for a stack of covariances (K x 4 x 4) measured
    at theta_plus = 0, theta_minus = pi/2."""
    plus = covs[:, [0, 2]][:, :, [0, 2]]
    minus = covs[:, [1, 3]][:, :, [1, 3]]

    def schur(block, a, b):
        return block[:, a, a] - block[:, 0, 1] ** 2 / block[:, b, b]

    vp12, vp21 = schur(plus, 0, 1), schur(plus, 1, 0)
    vm12, vm21 = schur(minus, 0, 1), schur(minus, 1, 0)
    u = np.array([1.0, -1.0]) / math.sqrt(2)
    w = np.array([1.0, 1.0]) / math.sqrt(2)
    out = {
        "gemellity": np.linalg.eigvalsh(plus)[:, 0],
        "conditional_variance_12": vp12,
        "conditional_variance_21": vp21,
        "separability": np.einsum("i,kij,j->k", u, plus, u)
        + np.einsum("i,kij,j->k", w, minus, w),
        "epr_product_12": vp12 * vm12,
        "epr_product_21": vp21 * vm21,
        "fplus_1": plus[:, 0, 0], "fplus_2": plus[:, 1, 1],
        "cplus": plus[:, 0, 1] / np.sqrt(plus[:, 0, 0] * plus[:, 1, 1]),
        "fminus_1": minus[:, 0, 0], "fminus_2": minus[:, 1, 1],
        "cminus": minus[:, 0, 1] / np.sqrt(minus[:, 0, 0] * minus[:, 1, 1]),
    }
    return out


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= RTOL * abs(ref)


def _check_row(values: dict, levels: dict, ref: dict, k: int, where: str) -> list:
    problems = []
    for key in VALUE_KEYS:
        if not _close(values[key], float(ref[key][k])):
            problems.append(f"{where}: {key} = {values[key]!r}, reference {float(ref[key][k])!r}")
    for level, keys in LEVEL_BOUNDS.items():
        limit = LEVEL_LIMITS[level]
        refs = [float(ref[key][k]) for key in keys]
        if any(abs(r - limit) <= RTOL * limit for r in refs):
            continue  # on the strict boundary within rounding: either verdict holds
        if bool(levels[level]) != any(r < limit for r in refs):
            problems.append(f"{where}: {level} = {levels[level]}, reference disagrees")
    return problems


def check_sweep(command, path) -> list:
    """Every row of a sweep CSV against the reference at its grid value."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    grid = command.grid_values
    if len(rows) != len(grid):
        return [f"{command.name}: {len(rows)} rows, expected {len(grid)}"]
    ref = criteria(np.array([covariance(command.spec.with_param(command.param, x))
                             for x in grid]))
    problems = []
    for k, (row, x) in enumerate(zip(rows, grid)):
        if float(row[command.param]) != x:
            problems.append(f"{command.name} row {k}: grid value {row[command.param]}")
        values = {key: float(row[key]) for key in VALUE_KEYS}
        levels = {key: row[key] == "1" for key in LEVEL_BOUNDS}
        problems += _check_row(values, levels, ref, k, f"{command.name} row {k}")
        if len(problems) > 5:
            break
    return problems


def check_estimates(estimated: dict, ref: dict, where: str) -> list:
    """Each sampled estimate within N_SIGMA standard errors of the
    analytic reference value."""
    problems = []
    for key in VALUE_KEYS + MOMENT_KEYS:
        est = estimated["estimates"][key]
        if not abs(est["value"] - float(ref[key][0])) <= N_SIGMA * est["stderr"]:
            problems.append(f"{where}: estimate {key} = {est['value']!r} +- {est['stderr']!r},"
                            f" analytic {float(ref[key][0])!r}")
    return problems


def check_report(command, path) -> list:
    """A run report: resolved state, analytic block, and the estimated
    block when the scenario samples."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    cov = covariance(command.spec)
    ref = criteria(cov[None])
    problems = []
    got = np.array(report["state"]["cov"])
    if np.abs(got - cov).max() > RTOL * np.abs(cov).max() or any(report["state"]["mean"]):
        problems.append(f"{command.name}: resolved state differs from the reference")
    problems += _check_row(report["analytic"], report["analytic"], ref, 0, command.name)
    if command.spec.sampling is None:
        if report["estimated"] is not None:
            problems.append(f"{command.name}: unexpected estimated block")
        return problems
    est = report["estimated"]
    if est is None or (est["n_samples"], est["seed"]) != command.spec.sampling:
        return problems + [f"{command.name}: estimated block missing or mislabelled"]
    return problems + check_estimates(est, ref, command.name)


def check_probe(command, path) -> list:
    """A domain-edge probe: tmsv(r), optionally through a 50/50
    beamsplitter, has G = exp(-2r) exactly; the check uses that closed
    form because the covariance route cancels at large r."""
    with open(path, encoding="utf-8") as handle:
        got = json.load(handle)["analytic"]["gemellity"]
    expected = math.exp(-2 * dict(command.spec.source[1])["r"])
    if _close(got, expected):
        return []
    return [f"{command.name}: gemellity {got!r}, closed form {expected!r}"]


def check_batch_file(command, path) -> list:
    """Metadata and row count of a sample CSV; the values themselves are
    checked through the estimate that reads the file back."""
    with open(path, "rb") as handle:
        head = [handle.readline() for _ in range(3)]
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 24), b""))
    if head[0] != f"# seed: {command.seed}\n".encode() or rows != command.n:
        return [f"{command.name}: batch file has seed line {head[0]!r} and {rows} rows"]
    return []


def check_estimate(command, path, expected: dict) -> list:
    """An estimate JSON: equal to the library's estimate on
    draw_samples(state, n, seed) value for value (so the batch survived
    the CSV round trip bit for bit), and within N_SIGMA of the reference."""
    with open(path, encoding="utf-8") as handle:
        got = json.load(handle)
    problems = []
    for key in ("estimates", "n_samples", "n_blocks", "seed"):
        if got[key] != expected[key]:
            problems.append(f"{command.name}: {key} differs from the estimate of the drawn batch")
    ref = criteria(covariance(command.spec)[None])
    return problems + check_estimates(got, ref, command.name)
