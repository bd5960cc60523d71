"""Independent oracles for the closed forms in twinbeams.criteria, the
jackknife in twinbeams.sampling, the sweep and sample CSV writers, and
the paper's classical bounds and Fock-pair counterexample, with the
seeded random inputs that the criteria tests share.

Each oracle reaches the same number by a different route (the least
eigenvalue of the recombination matrix, the residual variance at the
optimal gain, the correlation form of a criterion, or a jackknife that
recomputes every replicate from its rows), so the tests can hold the
program to them.  Like the program, they need numpy only.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from twinbeams.criteria import (DuanEprMoments, MomentPair, conditional_variance, gemellity,
                                report_scalars, state_moments)
from twinbeams.states import GaussianTwoModeState, apply_loss, make_two_mode_squeezed


def random_moment_pair(rng, balanced=False, c_min=-1.0) -> MomentPair:
    f1 = rng.uniform(0.05, 20.0)
    f2 = f1 if balanced else rng.uniform(0.05, 20.0)
    return MomentPair(f1=f1, f2=f2, c12=rng.uniform(c_min, 1.0))


def random_twin_family_state(rng) -> GaussianTwoModeState:
    """Symmetric twin-beam family: two-mode squeezing with symmetric
    loss and symmetric classical excess noise, measured in the aligned
    quadrature basis.  This is the family the criteria ladder orders
    strictly; asymmetric states can be EPR-correlated while the fixed
    50/50 separability combination misses them."""
    s = make_two_mode_squeezed(rng.uniform(0.0, 2.5))
    eta = rng.uniform(0.0, 1.0)
    s = apply_loss(s, eta, eta)
    excess = rng.uniform(0.0, 3.0) * (rng.random() < 0.5)
    return GaussianTwoModeState(mean=np.zeros(4), cov=s.cov + excess * np.eye(4))


def gemellity_operational(m: MomentPair) -> float:
    """Gemellity as the least eigenvalue of [[F1, -b], [-b, F2]], b the
    covariance: that matrix's quadratic form at (cos t, sin t) is the
    variance of the recombined beam cos(t) dX1 - sin(t) dX2."""
    b = m.covariance
    return float(np.linalg.eigvalsh([[m.f1, -b], [-b, m.f2]])[0])


def conditional_variance_operational(m: MomentPair, direction: int) -> float:
    """Conditional variance as the variance F_a - 2 g b + g^2 F_b of
    X_a - g X_b, b the covariance, at its minimizing gain g = b / F_b."""
    if direction == 1:
        f_a, f_b = m.f1, m.f2
    elif direction == 2:
        f_a, f_b = m.f2, m.f1
    else:
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    b = m.covariance
    g = b / f_b
    return float(f_a - 2.0 * g * b + g * g * f_b)


def epr_correlation_diagnostic(dm: DuanEprMoments, direction: int = 1) -> bool:
    """Correlation form of the EPR criterion:
    (1 - C+^2)(1 - C-^2) < 1 / (F+ F-) with the inferred beam's
    variances.  Equivalent to epr_product < 1 by construction."""
    if direction == 1:
        f_plus, f_minus = dm.plus.f1, dm.minus.f1
    else:
        f_plus, f_minus = dm.plus.f2, dm.minus.f2
    lhs = (1.0 - dm.plus.c12 ** 2) * (1.0 - dm.minus.c12 ** 2)
    return lhs < 1.0 / (f_plus * f_minus)


def _estimates(rows: np.ndarray, theta_plus: float, theta_minus: float) -> dict:
    dm = state_moments(np.cov(rows, rowvar=False, bias=True), theta_plus, theta_minus)
    values = {key: value for key, value in report_scalars(dm).items() if value.dtype != bool}
    values.update(fplus_1=dm.plus.f1, fplus_2=dm.plus.f2, cplus=dm.plus.c12,
                  fminus_1=dm.minus.f1, fminus_2=dm.minus.f2, cminus=dm.minus.c12)
    return values


def jackknife_reference(samples: np.ndarray, n_blocks: int, theta_plus: float = 0.0,
                        theta_minus: float = math.pi / 2) -> dict:
    """key -> (estimate, jackknife stderr) the long way: each
    leave-one-block-out replicate takes the covariance of the rows that
    remain (two-pass, by np.cov) and is scored on its own."""
    full = _estimates(samples, theta_plus, theta_minus)
    reps = [_estimates(np.delete(samples, block, axis=0), theta_plus, theta_minus)
            for block in np.array_split(np.arange(len(samples)), n_blocks)]
    factor = (n_blocks - 1) / n_blocks
    out = {}
    for key, value in full.items():
        column = [float(rep[key]) for rep in reps]
        mean = sum(column) / n_blocks
        out[key] = (float(value), math.sqrt(factor * sum((x - mean) ** 2 for x in column)))
    return out


def write_sweep_csv_per_row(rows: np.recarray, path) -> None:
    """The sweep CSV one cell at a time: a header of the field names, then
    0 or 1 for a verdict and the repr of the float of anything else."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(rows.dtype.names) + "\n")
        for row in rows:
            handle.write(",".join(str(int(v)) if isinstance(v, np.bool_) else repr(float(v))
                                  for v in row) + "\n")


def format_rows_repr(start: int, rows: np.ndarray) -> bytes:
    """The sample CSV lines of a block of rows one value at a time: the
    index counted from `start`, then the repr of each value."""
    return "".join([f"{i},{a!r},{b!r},{c!r},{d!r}\n"
                    for i, (a, b, c, d) in enumerate(rows.tolist(), start)]).encode("utf-8")


def classical_split_correlation(f_in: float) -> float:
    """Correlation of the two outputs of a 50/50 split of a classical
    beam with Fano factor f_in >= 1: (f_in - 1) / (f_in + 1)."""
    if f_in < 1.0:
        raise ValueError(f"input Fano factor must be >= 1, got {f_in}")
    return (f_in - 1.0) / (f_in + 1.0)


def classical_unbalanced_correlation(f1: float, f2: float) -> float:
    """Largest correlation reachable classically between beams of Fano
    factors f1, f2 >= 1: sqrt((1 - 1/f1)(1 - 1/f2))."""
    return math.sqrt((1.0 - 1.0 / f1) * (1.0 - 1.0 / f2))


def photon_statistics(weights) -> SimpleNamespace:
    """Photon-number statistics of the separable mixture sum_n p_n |n,n><n,n|
    (p_n = weights[n]), the paper's counterexample of perfect intensity
    correlation without entanglement.  Both beams carry the same n: C12 = 1
    when Var(n) > 0 (None when it is 0), and the intensity gemellity and
    conditional variances are the package's closed forms at C12 = 1 and
    F1 = F2 = Var(n) / <n> (0 when Var(n) = 0, as n1 - n2 vanishes)."""
    mean_n = sum(n * p for n, p in enumerate(weights))
    if mean_n == 0.0:
        raise ValueError("all weight on n = 0: intensity statistics undefined")
    var_n = sum(n * n * p for n, p in enumerate(weights)) - mean_n * mean_n
    stats = SimpleNamespace(mean_n=mean_n, var_n=var_n, fano=var_n / mean_n, c12=None,
                            intensity_gemellity=0.0, v12=0.0, v21=0.0)
    if var_n > 0.0:
        stats.c12 = 1.0
        stats.intensity_gemellity = gemellity(MomentPair(stats.fano, stats.fano, 1.0)).value
        stats.v12 = stats.v21 = conditional_variance(stats.fano, stats.fano, 1.0).value
    return stats
