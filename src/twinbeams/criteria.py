"""The five-level ladder of quantum-correlation criteria.

Level 1  gemellity G < 1          -- no classical-field description
Level 2  conditional variance V < 1 -- QND-grade correlation
Level 3  separability S12 < 2     -- entangled (non-separable) state
Level 4  V+ * V- < 1              -- EPR correlation by inference
Level 5  Bell                     -- never reachable with Gaussian states

Levels 1-2 need a single quadrature pair; levels 3-4 need moments on
both conjugate quadratures.  All inequalities are strict: a state
sitting exactly on a boundary (e.g. vacuum) does NOT satisfy the level.

The closed forms are elementwise: on the moments of a K x 4 x 4
covariance stack they return arrays, entry k equal to the K = 1 result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .moments import DuanEprMoments, MomentPair
from .states import GaussianTwoModeState, quadrature_moments

LEVEL5_NOTE = "not evaluable for Gaussian states (positive Wigner function)"

LEVEL_STATEMENTS = {
    1: "twin beams: the correlation admits no description in terms of "
       "classical fluctuating fields",
    2: "QND correlation: measuring one beam yields a quantum non-demolition "
       "readout of the other",
    3: "inseparable beams: the joint state cannot be written as a mixture of "
       "factorizable states",
    4: "EPR beams: cross-beam inference produces an apparent violation of "
       "the Heisenberg inequality",
    5: "Bell level: " + LEVEL5_NOTE,
}


class GemellityResult(NamedTuple):
    value: float
    theta: float


class ConditionalVarianceResult(NamedTuple):
    value: float
    gain: float


# ---------------------------------------------------------------------------
# classical reference correlations


def classical_split_correlation(f_in: float) -> float:
    """Correlation of the two outputs of a 50/50 split of a classical
    beam with Fano factor f_in: (f_in - 1) / (f_in + 1)."""
    if f_in < 1.0:
        raise ValueError(f"input Fano factor must be >= 1, got {f_in}")
    return (f_in - 1.0) / (f_in + 1.0)


def classical_unbalanced_correlation(f1: float, f2: float) -> float:
    """Largest correlation reachable classically between beams of Fano
    factors f1, f2: sqrt((1 - 1/f1)(1 - 1/f2))."""
    if f1 < 1.0 or f2 < 1.0:
        raise ValueError(f"Fano factors must be >= 1, got ({f1}, {f2})")
    return math.sqrt((1.0 - 1.0 / f1) * (1.0 - 1.0 / f2))


# ---------------------------------------------------------------------------
# level 1: gemellity


def gemellity(m: MomentPair) -> GemellityResult:
    """Minimum shot-normalized noise of cos(t) dX1 - sin(t) dX2 over the
    recombination angle t, with the minimizing angle.

    Closed form: (F1+F2)/2 - sqrt(C^2 F1 F2 + ((F1-F2)/2)^2).
    """
    a = 0.5 * (m.f1 - m.f2)
    b = m.covariance
    value = 0.5 * (m.f1 + m.f2) - np.hypot(a, b)
    theta = 0.5 * (math.pi - np.arctan2(b, a))
    return GemellityResult(value=np.maximum(value, 0.0), theta=theta)


# ---------------------------------------------------------------------------
# level 2: conditional variance


def conditional_variance(f_a: float, f_b: float, c: float) -> ConditionalVarianceResult:
    """Residual variance of beam a after optimal linear inference from
    beam b: F_a (1 - C^2), reached at gain g = C sqrt(F_a F_b) / F_b."""
    if np.any(f_a <= 0.0) or np.any(f_b <= 0.0):
        raise ValueError("variances must be positive")
    if np.any(np.abs(c) > 1.0):
        raise ValueError("correlation must lie in [-1, 1]")
    value = f_a * (1.0 - c * c)
    gain = c * np.sqrt(f_a * f_b) / f_b
    return ConditionalVarianceResult(value=value, gain=gain)


# ---------------------------------------------------------------------------
# levels 3-4: separability and EPR


def _balanced_combinations(dm: DuanEprMoments) -> tuple:
    """(g_plus, g_minus): the two fixed balanced 50/50 combinations
    whose sum is S12."""
    return (0.5 * (dm.plus.f1 + dm.plus.f2) - dm.plus.covariance,
            0.5 * (dm.minus.f1 + dm.minus.f2) + dm.minus.covariance)


def duan_separability(dm: DuanEprMoments) -> float:
    """S12 = Var(X+_1 - X+_2)/2 + Var(X-_1 + X-_2)/2.

    Uses the fixed balanced 50/50 combinations, not the minimized
    gemellity; S12 < 2 certifies a non-separable Gaussian state.
    """
    g_plus, g_minus = _balanced_combinations(dm)
    return g_plus + g_minus


def epr_product(dm: DuanEprMoments, direction: int) -> float:
    """Product of the two conditional variances inferring one beam's
    conjugate quadratures from the other; < 1 certifies EPR beams."""
    if direction not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    pairs = [(m.f1, m.f2, m.c12) if direction == 1 else (m.f2, m.f1, m.c12)
             for m in (dm.plus, dm.minus)]
    v_plus, v_minus = (conditional_variance(*pair).value for pair in pairs)
    return v_plus * v_minus


# ---------------------------------------------------------------------------
# the full report


# JSON key of each CriteriaReport field, in field order
REPORT_KEYS = (
    "gemellity", "conditional_variance_12", "conditional_variance_21",
    "separability", "epr_product_12", "epr_product_21",
    "level1", "level2", "level3", "level4", "level5_note",
    "optimal_theta", "optimal_gain_12", "optimal_gain_21", "duan_note",
)

DUAN_NOTE = ("the minimized gemellities are lower than the fixed 50/50 "
             "combinations entering S12")


@dataclass(frozen=True)
class CriteriaReport:
    """All criterion values for one state, with per-level verdicts."""

    g: float
    v12: float
    v21: float
    s12: float
    epr12: float
    epr21: float
    level1: bool
    level2: bool
    level3: bool
    level4: bool
    level5_note: str
    optimal_theta: float
    optimal_g12: float
    optimal_g21: float
    duan_note: Optional[str] = None

    def to_json(self) -> dict:
        return dict(zip(REPORT_KEYS, vars(self).values()))


def report_scalars(dm: DuanEprMoments) -> dict:
    """Criterion values as a flat dict; shared by the analytic and the
    sample-estimate paths so both use identical closed forms."""
    gem = gemellity(dm.plus)
    v12 = conditional_variance(dm.plus.f1, dm.plus.f2, dm.plus.c12)
    v21 = conditional_variance(dm.plus.f2, dm.plus.f1, dm.plus.c12)
    return {
        "gemellity": gem.value,
        "conditional_variance_12": v12.value,
        "conditional_variance_21": v21.value,
        "separability": duan_separability(dm),
        "epr_product_12": epr_product(dm, 1),
        "epr_product_21": epr_product(dm, 2),
        "optimal_theta": gem.theta,
        "optimal_gain_12": v12.gain,
        "optimal_gain_21": v21.gain,
    }


def levels(values: dict) -> dict:
    """Verdicts of levels 1-4 on report_scalars values, elementwise."""
    return {
        "level1": values["gemellity"] < 1.0,
        "level2": ((values["conditional_variance_12"] < 1.0)
                   | (values["conditional_variance_21"] < 1.0)),
        "level3": values["separability"] < 2.0,
        "level4": (values["epr_product_12"] < 1.0) | (values["epr_product_21"] < 1.0),
    }


def report_from_moments(dm: DuanEprMoments) -> CriteriaReport:
    values = report_scalars(dm)
    values.update(levels(values))
    g_plus, g_minus = _balanced_combinations(dm)
    slack = 1e-12
    lower = (values["gemellity"] < g_plus - slack
             or gemellity(dm.minus).value < g_minus - slack)
    values.update(level5_note=LEVEL5_NOTE, duan_note=DUAN_NOTE if lower else None)
    # .item() gives Python floats and bools, whose repr and JSON are plain
    return CriteriaReport(*(np.asarray(values[key]).item() for key in REPORT_KEYS))


def state_moments(source,
                  theta_plus: float = 0.0,
                  theta_minus: float = math.pi / 2) -> DuanEprMoments:
    """Moments of the conjugate quadrature pair selected by the two
    measurement angles (same angle on both modes per pair), of a state
    or of each covariance in a ...x4x4 stack."""
    return DuanEprMoments(
        plus=quadrature_moments(source, theta_plus, theta_plus),
        minus=quadrature_moments(source, theta_minus, theta_minus),
    )


def classify(state: GaussianTwoModeState,
             theta_plus: float = 0.0,
             theta_minus: float = math.pi / 2) -> CriteriaReport:
    """Evaluate all five levels on a state.  Levels 1-2 use the `plus`
    quadrature pair; levels 3-4 use both conjugate pairs."""
    if state.cov.ndim != 2:
        raise ValueError(f"classify takes one state, got a stack of shape {state.cov.shape[:-2]}")
    return report_from_moments(state_moments(state, theta_plus, theta_minus))
