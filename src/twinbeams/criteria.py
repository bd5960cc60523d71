"""Measured quadrature moments and the five-level ladder of
quantum-correlation criteria computed from them.

Level 1  gemellity G < 1          -- no classical-field description
Level 2  conditional variance V < 1 -- QND-grade correlation
Level 3  separability S12 < 2     -- entangled (non-separable) state
Level 4  V+ * V- < 1              -- EPR correlation by inference
Level 5  Bell                     -- never reachable with Gaussian states

Levels 1-2 need a single quadrature pair; levels 3-4 need moments on
both conjugate quadratures.  All inequalities are strict: a state
sitting exactly on a boundary (e.g. vacuum) does NOT satisfy the level.

All variances are normalized to the shot-noise (coherent-state) level,
so a vacuum or coherent beam has unit variance on every quadrature.

The closed forms are elementwise: on the moments of a K x 4 x 4
covariance stack they return arrays, entry k equal to the K = 1 result.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .states import GaussianTwoModeState, _check, _rounding_tol

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


THETA_PLUS, THETA_MINUS = 0.0, math.pi / 2  # default angles: X+ and X- on both modes


class GemellityResult(NamedTuple):
    value: float
    theta: float


class ConditionalVarianceResult(NamedTuple):
    value: float
    gain: float


# ---------------------------------------------------------------------------
# measured moments: the input of every criterion


@dataclass(frozen=True)
class MomentPair:
    """Noise moments of one quadrature measured on each of two beams.

    f1, f2 are the shot-normalized variances (Fano factors), c12 the
    normalized correlation coefficient between the two fluctuations.
    Fields are floats, or equal-shape arrays holding one pair per entry.
    """

    f1: float
    f2: float
    c12: float

    def __post_init__(self):
        _check_variances(self.f1, self.f2)
        _check(abs(self.c12) <= 1.0, "correlation must lie in [-1, 1], got {}", self.c12)

    @property
    def covariance(self) -> float:
        """Unnormalized covariance <dX1 dX2>."""
        return self.c12 * np.sqrt(self.f1 * self.f2)


@dataclass(frozen=True)
class DuanEprMoments:
    """Moments on both conjugate quadratures, the input of the
    separability and EPR criteria.

    `plus` holds the moments of (X+_1, X+_2), `minus` those of
    (X-_1, X-_2).  Values may come from a state or directly from
    measured numbers; joint physicality is not enforced here.
    """

    plus: MomentPair
    minus: MomentPair


def _check_variances(f1, f2) -> None:
    """Raise ValueError naming the first pair of variances that is not
    positive (nan fails too)."""
    _check((f1 > 0.0) & (f2 > 0.0), "variances must be positive, got F1={}, F2={}", f1, f2)


def measurement_angle(value) -> float:
    """value as an angle whose double (the measured variance's argument) is finite."""
    angle = float(value)
    if not math.isfinite(2.0 * angle):  # nan and inf fail too
        raise ValueError(f"measurement angle must be finite with a finite double, got {value}")
    return angle


def _measured_variance(cov: np.ndarray, i: int, theta: float):
    """Variance of cos(theta) X+ + sin(theta) X- on the mode whose X+ is
    coordinate i; the double-angle form is exact on a phase-symmetric mode."""
    a, b, v = cov[..., i, i], cov[..., i + 1, i + 1], cov[..., i, i + 1]
    return 0.5 * (a + b) + 0.5 * (a - b) * math.cos(2.0 * theta) + v * math.sin(2.0 * theta)


def quadrature_moments(source, theta1: float, theta2: float) -> MomentPair:
    """Variances and correlation of the quadratures
    cos(theta_i) X+_i + sin(theta_i) X-_i measured on each mode, for a
    state or, as arrays, for each covariance of a ...x4x4 stack."""
    theta1, theta2 = measurement_angle(theta1), measurement_angle(theta2)
    cov = np.asarray(getattr(source, "cov", source), dtype=float)
    f1, f2 = _measured_variance(cov, 0, theta1), _measured_variance(cov, 2, theta2)
    _check_variances(f1, f2)  # before the square root below
    u1, u2 = (math.cos(theta1), math.sin(theta1)), (math.cos(theta2), math.sin(theta2))
    cross = sum(u1[i] * u2[j] * cov[..., i, 2 + j] for i in (0, 1) for j in (0, 1))
    c12 = cross / np.sqrt(f1 * f2)
    if np.any(abs(c12) > 1.0):  # clip a rounding overshoot, reject a larger one
        if np.any(abs(c12) > 1.0 + 1e-12):
            raise ValueError(f"correlation overshoot beyond rounding: {np.abs(c12).max()}")
        c12 = np.clip(c12, -1.0, 1.0)
    return MomentPair(f1=f1, f2=f2, c12=c12)


def state_moments(source, theta_plus: float = THETA_PLUS,
                  theta_minus: float = THETA_MINUS) -> DuanEprMoments:
    """Moments of the conjugate quadrature pair selected by the two
    measurement angles (same angle on both modes per pair), of a state
    or of each covariance in a ...x4x4 stack."""
    return DuanEprMoments(
        plus=quadrature_moments(source, theta_plus, theta_plus),
        minus=quadrature_moments(source, theta_minus, theta_minus),
    )


# ---------------------------------------------------------------------------
# the closed forms: computed once per quadrature pair, combined in one table


def _pair_forms(m: MomentPair) -> SimpleNamespace:
    """Every closed form of one quadrature pair, elementwise: s = (F1 +
    F2)/2, the covariance b, the gemellity s - hypot((F1 - F2)/2, b) with
    its angle theta, and V12 = F1 (1 - C^2), the residual variance of
    beam 1 after optimal linear inference from beam 2 at gain
    C sqrt(F1 F2) / F2 = b / F2 (V21 and gain21 with the beams swapped).
    """
    s, a, b = 0.5 * (m.f1 + m.f2), 0.5 * (m.f1 - m.f2), m.covariance
    one_minus_c2 = 1.0 - m.c12 * m.c12
    return SimpleNamespace(s=s, b=b, gemellity=np.maximum(s - np.hypot(a, b), 0.0),
                           theta=0.5 * (math.pi - np.arctan2(b, a)),
                           v12=m.f1 * one_minus_c2, v21=m.f2 * one_minus_c2,
                           gain12=b / m.f2, gain21=b / m.f1)


DUAN_NOTE = ("the minimized gemellities are lower than the fixed 50/50 "
             "combinations entering S12")
DUAN_SLACK = 1e-12


def report_scalars(dm: DuanEprMoments) -> dict:
    """The criteria table of the moments dm, keyed by CriteriaReport
    field name: every criterion value, the optimal angle and gains, the
    level 1-4 verdicts and the Duan-note flag, elementwise.  Levels 1-2
    use the `plus` pair.  S12 sums the fixed balanced 50/50 combinations
    Var(X+_1 - X+_2)/2 and Var(X-_1 + X-_2)/2; the Duan note flags a
    minimized gemellity below its fixed combination on either pair by
    more than the rounding of the pair's s = (F1 + F2)/2.
    """
    plus, minus = _pair_forms(dm.plus), _pair_forms(dm.minus)
    balanced_plus, balanced_minus = plus.s - plus.b, minus.s + minus.b
    separability = balanced_plus + balanced_minus
    epr12, epr21 = plus.v12 * minus.v12, plus.v21 * minus.v21
    return {
        "gemellity": plus.gemellity,
        "conditional_variance_12": plus.v12,
        "conditional_variance_21": plus.v21,
        "separability": separability,
        "epr_product_12": epr12,
        "epr_product_21": epr21,
        "level1": plus.gemellity < 1.0,
        "level2": (plus.v12 < 1.0) | (plus.v21 < 1.0),
        "level3": separability < 2.0,
        "level4": (epr12 < 1.0) | (epr21 < 1.0),
        "optimal_theta": plus.theta,
        "optimal_gain_12": plus.gain12,
        "optimal_gain_21": plus.gain21,
        "duan_note": ((plus.gemellity < balanced_plus - _rounding_tol(DUAN_SLACK, plus.s))
                      | (minus.gemellity < balanced_minus - _rounding_tol(DUAN_SLACK, minus.s))),
    }


# ---------------------------------------------------------------------------
# moment-level entry points, read from the table's closed forms


def gemellity(m: MomentPair) -> GemellityResult:
    """Minimum shot-normalized noise of cos(t) dX1 - sin(t) dX2 over the
    recombination angle t, with the minimizing angle.

    Closed form: (F1+F2)/2 - sqrt(C^2 F1 F2 + ((F1-F2)/2)^2).
    """
    forms = _pair_forms(m)
    return GemellityResult(value=forms.gemellity, theta=forms.theta)


def conditional_variance(f_a: float, f_b: float, c: float) -> ConditionalVarianceResult:
    """Residual variance of beam a after optimal linear inference from
    beam b: F_a (1 - C^2), reached at gain g = C sqrt(F_a F_b) / F_b."""
    forms = _pair_forms(MomentPair(f1=f_a, f2=f_b, c12=c))
    return ConditionalVarianceResult(value=forms.v12, gain=forms.gain12)


def duan_separability(dm: DuanEprMoments) -> float:
    """S12 = Var(X+_1 - X+_2)/2 + Var(X-_1 + X-_2)/2; S12 < 2 certifies
    a non-separable Gaussian state."""
    return report_scalars(dm)["separability"]


def epr_product(dm: DuanEprMoments, direction: int) -> float:
    """Product of the two conditional variances inferring one beam's
    conjugate quadratures from the other; < 1 certifies EPR beams."""
    if direction not in (1, 2):
        raise ValueError(f"direction must be 1 or 2, got {direction}")
    return report_scalars(dm)[f"epr_product_{direction}{3 - direction}"]


# ---------------------------------------------------------------------------
# the full report


@dataclass(frozen=True)
class CriteriaReport:
    """All criterion values for one state, with per-level verdicts;
    the fields are the keys of the criteria table and of the JSON report."""

    gemellity: float
    conditional_variance_12: float
    conditional_variance_21: float
    separability: float
    epr_product_12: float
    epr_product_21: float
    level1: bool
    level2: bool
    level3: bool
    level4: bool
    level5_note: str
    optimal_theta: float
    optimal_gain_12: float
    optimal_gain_21: float
    duan_note: Optional[str] = None

    def to_json(self) -> dict:
        return asdict(self)


def report_from_moments(dm: DuanEprMoments) -> CriteriaReport:
    # .item() gives Python floats and bools, whose repr and JSON are plain
    values = {key: np.asarray(value).item() for key, value in report_scalars(dm).items()}
    values["duan_note"] = DUAN_NOTE if values["duan_note"] else None
    return CriteriaReport(level5_note=LEVEL5_NOTE, **values)


def classify(state: GaussianTwoModeState, theta_plus: float = THETA_PLUS,
             theta_minus: float = THETA_MINUS) -> CriteriaReport:
    """Evaluate all five levels on a state.  Levels 1-2 use the `plus`
    quadrature pair; levels 3-4 use both conjugate pairs."""
    if state.cov.ndim != 2:
        raise ValueError(f"classify takes one state, got a stack of shape {state.cov.shape[:-2]}")
    return report_from_moments(state_moments(state, theta_plus, theta_minus))
