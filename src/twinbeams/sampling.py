"""Seeded homodyne sampling and statistical estimation of the criteria.

Samples are i.i.d. draws from the 4-variate normal defined by a state's
mean and covariance (legitimate because Gaussian Wigner functions are
true probability densities).  Criteria are estimated by plugging sample
moments into the same closed forms used analytically; standard errors
come from a delete-one-block jackknife.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import criteria
from .moments import DuanEprMoments, MomentPair
from .states import GaussianTwoModeState, PhysicalityError

CSV_HEADER = "sample_index,xplus_1,xminus_1,xplus_2,xminus_2"
DEFAULT_BLOCKS = 100


class BatchFormatError(ValueError):
    """Malformed sample file; the message names the offending line."""


class EstimationError(ValueError):
    """Degenerate batch (e.g. a zero-variance column)."""


class Estimate(NamedTuple):
    value: float
    stderr: float


@dataclass(frozen=True)
class SampleBatch:
    """N x 4 homodyne record in (X+_1, X-_1, X+_2, X-_2) ordering."""

    samples: np.ndarray
    seed: int
    source_label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 4:
            raise ValueError(f"samples must be N x 4, got shape {samples.shape}")
        if samples.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class EstimatedCriteria:
    """Plug-in criterion estimates with jackknife standard errors."""

    estimates: dict
    n_samples: int
    n_blocks: int
    seed: int
    source_label: str

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_blocks": self.n_blocks,
            "seed": self.seed,
            "source_label": self.source_label,
            "estimates": {
                key: {"value": est.value, "stderr": est.stderr}
                for key, est in self.estimates.items()
            },
        }


def draw_samples(state: GaussianTwoModeState, n: int, seed: int,
                 source_label: str = "") -> SampleBatch:
    """Draw n i.i.d. quadrature samples from the state.

    The stream is the numpy PCG64 generator seeded with `seed`;
    identical (state, n, seed) reproduce the batch bit-for-bit.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    try:
        chol = np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError as exc:
        raise PhysicalityError("covariance matrix is not positive definite") from exc
    rng = np.random.Generator(np.random.PCG64(seed))
    normals = rng.standard_normal((n, 4))
    return SampleBatch(samples=normals @ chol.T + state.mean,
                       seed=seed, source_label=source_label)


# ---------------------------------------------------------------------------
# persistence


def write_batch(batch: SampleBatch, path) -> None:
    """CSV with '#' metadata lines, a fixed header, and full-precision
    decimal values (round-trippable IEEE doubles)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# seed: {batch.seed}\n")
        handle.write(f"# source_label: {batch.source_label}\n")
        handle.write(CSV_HEADER + "\n")
        for i, row in enumerate(batch.samples.tolist()):
            handle.write(f"{i},{row[0]!r},{row[1]!r},{row[2]!r},{row[3]!r}\n")


def read_batch(path) -> SampleBatch:
    seed = 0
    source_label = ""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        header_seen = False
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header_seen:
                    raise BatchFormatError(f"line {lineno}: comment after header")
                body = line[1:].strip()
                if body.startswith("seed:"):
                    try:
                        seed = int(body.split(":", 1)[1].strip())
                    except ValueError as exc:
                        raise BatchFormatError(f"line {lineno}: bad seed value") from exc
                elif body.startswith("source_label:"):
                    source_label = body.split(":", 1)[1].strip()
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise BatchFormatError(
                        f"line {lineno}: expected header {CSV_HEADER!r}, got {line!r}")
                header_seen = True
                continue
            cells = line.split(",")
            if len(cells) != 5:
                raise BatchFormatError(
                    f"line {lineno}: expected 5 columns, got {len(cells)}")
            try:
                rows.append([float(c) for c in cells[1:]])
            except ValueError as exc:
                raise BatchFormatError(f"line {lineno}: non-numeric cell") from exc
        if not header_seen:
            raise BatchFormatError("missing header row")
    if len(rows) < 2:
        raise BatchFormatError("batch holds fewer than 2 samples")
    return SampleBatch(samples=np.array(rows), seed=seed, source_label=source_label)


# ---------------------------------------------------------------------------
# estimation


def _moments_from_sums(sum_x: np.ndarray, sum_xx: np.ndarray, n: int) -> DuanEprMoments:
    mean = sum_x / n
    cov = sum_xx / n - np.outer(mean, mean)
    variances = np.diag(cov)
    if np.any(variances <= 0.0):
        raise EstimationError("zero-variance column in batch")
    plus = MomentPair(
        f1=float(cov[0, 0]), f2=float(cov[2, 2]),
        c12=_clip_corr(cov[0, 2] / math.sqrt(cov[0, 0] * cov[2, 2])))
    minus = MomentPair(
        f1=float(cov[1, 1]), f2=float(cov[3, 3]),
        c12=_clip_corr(cov[1, 3] / math.sqrt(cov[1, 1] * cov[3, 3])))
    return DuanEprMoments(plus=plus, minus=minus)


def _clip_corr(c: float) -> float:
    return float(min(1.0, max(-1.0, c)))


def _scalars(dm: DuanEprMoments) -> dict:
    out = dict(criteria.report_scalars(dm))
    out.update({
        "fplus_1": dm.plus.f1, "fplus_2": dm.plus.f2, "cplus": dm.plus.c12,
        "fminus_1": dm.minus.f1, "fminus_2": dm.minus.f2, "cminus": dm.minus.c12,
    })
    return out


def moments_from_samples(samples: np.ndarray) -> DuanEprMoments:
    """Plug-in (population) second moments of a batch."""
    samples = np.asarray(samples, dtype=float)
    return _moments_from_sums(samples.sum(axis=0),
                              samples.T @ samples, samples.shape[0])


def estimate_criteria(batch: SampleBatch, n_blocks: int = DEFAULT_BLOCKS) -> EstimatedCriteria:
    """Point estimates from the full batch; standard errors from a
    delete-one-block jackknife over `n_blocks` near-equal blocks."""
    n = batch.n
    if n < 2 * n_blocks:
        raise ValueError(f"need at least {2 * n_blocks} samples for {n_blocks} blocks")
    total_x = batch.samples.sum(axis=0)
    total_xx = batch.samples.T @ batch.samples
    full = _scalars(_moments_from_sums(total_x, total_xx, n))
    deleted = []
    for block in np.array_split(batch.samples, n_blocks):
        sum_x = total_x - block.sum(axis=0)
        sum_xx = total_xx - block.T @ block
        deleted.append(_scalars(_moments_from_sums(sum_x, sum_xx, n - block.shape[0])))

    factor = (n_blocks - 1) / n_blocks
    estimates = {}
    for key, value in full.items():
        reps = np.array([d[key] for d in deleted])
        stderr = math.sqrt(factor * float(np.sum((reps - reps.mean()) ** 2)))
        estimates[key] = Estimate(value=float(value), stderr=stderr)
    return EstimatedCriteria(estimates=estimates, n_samples=n, n_blocks=n_blocks,
                             seed=batch.seed, source_label=batch.source_label)
