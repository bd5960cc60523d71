"""Independent oracles for the closed forms in twinbeams.criteria and
the jackknife in twinbeams.sampling, and the paper's classical bounds
and Fock-pair counterexample.

Each one reaches the same number by a different route (an angular scan
or a gain scan refined by bounded minimization, the correlation form of
a criterion, or a jackknife that recomputes every replicate from its
rows), so the tests can hold the program to them.  They are test-only:
scipy is a test dependency, not a runtime one.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.optimize import minimize_scalar

from twinbeams.criteria import (DuanEprMoments, MomentPair, conditional_variance, gemellity,
                                report_scalars, state_moments)

ORACLE_XTOL = 1e-11


def _recombination_variance(m: MomentPair, theta: float) -> float:
    c, s = math.cos(theta), math.sin(theta)
    return c * c * m.f1 + s * s * m.f2 - 2.0 * c * s * m.covariance


def gemellity_operational(m: MomentPair, grid_size: int = 181) -> float:
    """Gemellity by direct minimization of the recombined-beam variance:
    coarse angular grid then bounded refinement.  Agrees with the closed
    form to better than 1e-9."""
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    thetas = [k * math.pi / grid_size for k in range(grid_size)]
    best = min(thetas, key=lambda t: _recombination_variance(m, t))
    h = math.pi / grid_size
    res = minimize_scalar(
        lambda t: _recombination_variance(m, t),
        bounds=(best - h, best + h),
        method="bounded",
        options={"xatol": ORACLE_XTOL},
    )
    return float(min(res.fun, _recombination_variance(m, best)))


def _gain_variance(f_a: float, f_b: float, cov: float, g: float) -> float:
    return f_a - 2.0 * g * cov + g * g * f_b


def conditional_variance_operational(m: MomentPair, direction: int) -> float:
    """Conditional variance by scanning the gain of X_a - g X_b and
    keeping the minimum; matches the closed form to better than 1e-9."""
    if direction == 1:
        f_a, f_b = m.f1, m.f2
    elif direction == 2:
        f_a, f_b = m.f2, m.f1
    else:
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    bound = 2.0 * math.sqrt(f_a / f_b) + 1.0
    res = minimize_scalar(
        lambda g: _gain_variance(f_a, f_b, m.covariance, g),
        bounds=(-bound, bound),
        method="bounded",
        options={"xatol": ORACLE_XTOL},
    )
    return float(res.fun)


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
