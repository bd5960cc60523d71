"""Two-mode Gaussian states and linear-optical maps.

Conventions
-----------
Quadrature coordinates are ordered (X+_1, X-_1, X+_2, X-_2) everywhere.
The vacuum covariance matrix is the identity, so all variances are in
shot-noise units.  A phase shift by ``phi`` rotates a mode's (X+, X-)
plane by the standard rotation matrix; a beamsplitter of mixing angle
``theta`` sends the mode-1 fluctuation to
``cos(theta) dX1 - sin(theta) dX2`` on both quadratures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentPair

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9

# Symplectic form for the (X+_1, X-_1, X+_2, X-_2) ordering.
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


class PhysicalityError(ValueError):
    """Raised when a covariance matrix violates the uncertainty bound."""


def uncertainty_min_eigenvalue(cov: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix cov + i*Omega.

    Non-negative (within tolerance) for every physical state; exactly
    zero for the two-mode vacuum, which saturates the bound.
    """
    return float(np.linalg.eigvalsh(cov + 1j * OMEGA).min())


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Mean vector and 4x4 covariance matrix of a two-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(4).copy()
        cov = np.asarray(self.cov, dtype=float).reshape(4, 4).copy()
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("state moments must be finite")
        if np.abs(cov - cov.T).max() > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        if np.any(np.diag(cov) <= 0.0):
            raise ValueError("covariance diagonal entries must be positive")
        min_eig = uncertainty_min_eigenvalue(cov)
        if min_eig < -PHYSICALITY_TOL:
            raise PhysicalityError(
                "covariance matrix violates the uncertainty bound "
                f"(min eigenvalue of cov + i*Omega = {min_eig:.3e})"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def to_json(self) -> dict:
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "GaussianTwoModeState":
        payload = json.loads(text)
        return cls(mean=payload["mean"], cov=payload["cov"])


@dataclass(frozen=True)
class BeamsplitterParams:
    """Mixing angle (amplitude coefficients r = cos, t = sin) and the
    phase applied to mode 2 before mixing."""

    mixing_angle: float
    phase: float = 0.0


@dataclass(frozen=True)
class LossParams:
    """Intensity transmissions of the per-mode attenuation channels."""

    eta1: float
    eta2: float

    def __post_init__(self):
        for name, eta in (("eta1", self.eta1), ("eta2", self.eta2)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {eta}")


# ---------------------------------------------------------------------------
# constructors


def make_vacuum() -> GaussianTwoModeState:
    """Two-mode vacuum: zero mean, identity covariance."""
    return GaussianTwoModeState(mean=np.zeros(4), cov=np.eye(4))


def make_thermal(f1: float, f2: float) -> GaussianTwoModeState:
    """Phase-symmetric noisy beams with Fano factors f1, f2 >= 1."""
    if f1 < 1.0 or f2 < 1.0:
        raise ValueError(f"thermal Fano factors must be >= 1, got ({f1}, {f2})")
    return GaussianTwoModeState(mean=np.zeros(4), cov=np.diag([f1, f1, f2, f2]))


def make_two_mode_squeezed(r: float) -> GaussianTwoModeState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    X+ quadratures are correlated, X- anti-correlated; the difference
    X+_1 - X+_2 has variance 2*exp(-2r).
    """
    if r < 0.0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    try:
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise ValueError(f"squeezing parameter r = {r} overflows the covariance") from None
    cov = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    return GaussianTwoModeState(mean=np.zeros(4), cov=cov)


def make_single_mode_squeezed(mode: int, s: float, theta_sq: float = 0.0) -> GaussianTwoModeState:
    """One mode squeezed by s along the quadrature at angle theta_sq,
    the other mode in vacuum."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    rot = _rotation(theta_sq)
    try:
        squeezed = np.diag([math.exp(-2.0 * s), math.exp(2.0 * s)])
    except OverflowError:
        raise ValueError(f"squeezing parameter s = {s} overflows the covariance") from None
    block = rot @ squeezed @ rot.T
    cov = np.eye(4)
    i = 0 if mode == 1 else 2
    cov[i : i + 2, i : i + 2] = block
    return GaussianTwoModeState(mean=np.zeros(4), cov=cov)


# ---------------------------------------------------------------------------
# linear-optical maps


def _rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _apply_symplectic(state: GaussianTwoModeState, s_mat: np.ndarray) -> GaussianTwoModeState:
    return GaussianTwoModeState(mean=s_mat @ state.mean, cov=s_mat @ state.cov @ s_mat.T)


def beamsplitter_matrix(params: BeamsplitterParams) -> np.ndarray:
    """Orthogonal symplectic matrix of the beamsplitter.

    Output mode 1 carries cos(theta) dX1 - sin(theta) dX2 on both
    quadratures (after the phase on mode 2); output mode 2 is the
    orthogonal combination.
    """
    phase2 = np.eye(4)
    phase2[2:, 2:] = _rotation(params.phase)
    return np.kron(_rotation(params.mixing_angle), np.eye(2)) @ phase2


def apply_beamsplitter(state: GaussianTwoModeState, params: BeamsplitterParams) -> GaussianTwoModeState:
    return _apply_symplectic(state, beamsplitter_matrix(params))


def apply_phase(state: GaussianTwoModeState, phi1: float, phi2: float) -> GaussianTwoModeState:
    """Rotate each mode's (X+, X-) plane by phi1, phi2."""
    s_mat = np.zeros((4, 4))
    s_mat[0:2, 0:2] = _rotation(phi1)
    s_mat[2:4, 2:4] = _rotation(phi2)
    return _apply_symplectic(state, s_mat)


def apply_loss(state: GaussianTwoModeState, params: LossParams) -> GaussianTwoModeState:
    """Gaussian attenuation: each mode is mixed with vacuum at
    intensity transmission eta."""
    x = np.diag([math.sqrt(params.eta1)] * 2 + [math.sqrt(params.eta2)] * 2)
    y = np.diag([1.0 - params.eta1] * 2 + [1.0 - params.eta2] * 2)
    return GaussianTwoModeState(mean=x @ state.mean, cov=x @ state.cov @ x.T + y)


# ---------------------------------------------------------------------------
# measurement moments


def _measured_variance(cov: np.ndarray, i: int, theta: float):
    """Variance of cos(theta) X+ + sin(theta) X- on the mode whose X+ is
    coordinate i; the double-angle form is exact on a phase-symmetric mode."""
    a, b, v = cov[..., i, i], cov[..., i + 1, i + 1], cov[..., i, i + 1]
    return 0.5 * (a + b) + 0.5 * (a - b) * math.cos(2.0 * theta) + v * math.sin(2.0 * theta)


def quadrature_moments(source, theta1: float, theta2: float) -> MomentPair:
    """Variances and correlation of the quadratures
    cos(theta_i) X+_i + sin(theta_i) X-_i measured on each mode, for a
    state or, as arrays, for each covariance of a ...x4x4 stack."""
    cov = np.asarray(getattr(source, "cov", source), dtype=float)
    f1, f2 = _measured_variance(cov, 0, theta1), _measured_variance(cov, 2, theta2)
    u1, u2 = (math.cos(theta1), math.sin(theta1)), (math.cos(theta2), math.sin(theta2))
    cross = sum(u1[i] * u2[j] * cov[..., i, 2 + j] for i in (0, 1) for j in (0, 1))
    c12 = cross / np.sqrt(f1 * f2)
    if np.any(np.abs(c12) > 1.0 + 1e-12):
        raise ValueError(f"correlation overshoot beyond rounding: {np.abs(c12).max()}")
    return MomentPair(f1=f1, f2=f2, c12=np.clip(c12, -1.0, 1.0))
