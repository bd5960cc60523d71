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


def _covariances(sums: np.ndarray, grams: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Plug-in (population) covariances of a stack of batches, each
    given by its row count, column sums and Gram matrix."""
    means = sums / counts[:, None]
    covs = grams / counts[:, None, None] - means[:, :, None] * means[:, None, :]
    if np.any(np.diagonal(covs, axis1=1, axis2=2) <= 0.0):
        raise EstimationError("zero-variance column in batch")
    return covs


def estimate_criteria(batch: SampleBatch, n_blocks: int = DEFAULT_BLOCKS,
                      theta_plus: float = 0.0,
                      theta_minus: float = math.pi / 2) -> EstimatedCriteria:
    """Point estimates from the full batch at the measurement angles of
    `criteria.classify`; standard errors from a delete-one-block jackknife
    over `n_blocks` near-equal blocks, all scored as one covariance stack."""
    n = batch.n
    if n < 2 * n_blocks:
        raise ValueError(f"need at least {2 * n_blocks} samples for {n_blocks} blocks")
    blocks = np.array_split(batch.samples, n_blocks)
    total_x = batch.samples.sum(axis=0)
    total_xx = batch.samples.T @ batch.samples
    covs = _covariances(
        np.array([total_x] + [total_x - block.sum(axis=0) for block in blocks]),
        np.array([total_xx] + [total_xx - block.T @ block for block in blocks]),
        np.array([n] + [n - block.shape[0] for block in blocks], dtype=float))
    dm = criteria.state_moments(covs, theta_plus, theta_minus)
    values = criteria.report_scalars(dm)
    values.update(fplus_1=dm.plus.f1, fplus_2=dm.plus.f2, cplus=dm.plus.c12,
                  fminus_1=dm.minus.f1, fminus_2=dm.minus.f2, cminus=dm.minus.c12)

    # entry 0 of each column is the full batch, the rest its replicates
    factor = (n_blocks - 1) / n_blocks
    estimates = {}
    for key, column in values.items():
        reps = column[1:]
        stderr = math.sqrt(factor * float(np.sum((reps - reps.mean()) ** 2)))
        estimates[key] = Estimate(value=float(column[0]), stderr=stderr)
    return EstimatedCriteria(estimates=estimates, n_samples=n, n_blocks=n_blocks,
                             seed=batch.seed, source_label=batch.source_label)
