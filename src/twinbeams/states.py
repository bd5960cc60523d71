"""Two-mode Gaussian states and linear-optical maps.

Conventions
-----------
Quadrature coordinates are ordered (X+_1, X-_1, X+_2, X-_2) everywhere.
The vacuum covariance matrix is the identity, so all variances are in
shot-noise units.  A phase shift by ``phi`` rotates a mode's (X+, X-)
plane by the standard rotation matrix; a beamsplitter of mixing angle
``theta`` sends the mode-1 fluctuation to
``cos(theta) dX1 - sin(theta) dX2`` on both quadratures.

A state holds a ``...x4`` mean and a ``...x4x4`` covariance.  Each
parameter of a constructor or map may be a float or an array (arrays of
one shape); each entry of the resulting stack equals, bit for bit, the
single state built from that entry's floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Each check allows the rounding of the maps: max(floor, ROUNDING_EPS * eps
# * scale), scale the largest |entry| of the covariance for the symmetry
# check, its smallest variance for the uncertainty bound (so a large mode's
# rounding cannot cover a small mode's violation), the bound itself for
# the moment bound.
ROUNDING_EPS = 64
SYMMETRY_TOL = 1e-12  # floor on the asymmetry of a covariance
PHYSICALITY_TOL = 1e-9  # floor on -(min eigenvalue of cov + i*Omega)


def _rounding_tol(floor, scale):
    """max(floor, ROUNDING_EPS * eps * scale), elementwise."""
    return np.maximum(floor, ROUNDING_EPS * np.finfo(float).eps * scale)


# Bound on |entry| of mean and cov.  The jackknife squares deviations of
# EPR products, which scale as cov^2, so cov^4 (summed over ~100 blocks)
# must stay below float64's max of ~1.8e308: |cov| well under 1e77.
MAX_MOMENT = 1e75
_MAX_MOMENT_ROUNDED = MAX_MOMENT + _rounding_tol(0.0, MAX_MOMENT)

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


def uncertainty_min_eigenvalue(cov: np.ndarray):
    """Smallest eigenvalue of the Hermitian matrix cov + i*Omega: a float
    for one covariance, an array with one per covariance of a ...x4x4 stack.

    Non-negative (within tolerance) for every physical state; exactly
    zero for the two-mode vacuum, which saturates the bound.
    """
    return np.linalg.eigvalsh(cov + 1j * OMEGA).min(axis=-1)


@dataclass(frozen=True)
class GaussianTwoModeState:
    """Mean vectors (...x4) and covariance matrices (...x4x4) of two-mode
    Gaussian states; one state has shapes (4,) and (4, 4)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.shape[-1:] != (4,) or cov.shape != mean.shape + (4,):
            raise ValueError("mean and cov must have shapes ...x4 and ...x4x4, "
                             f"got {mean.shape} and {cov.shape}")
        scale = np.abs(cov).max(axis=(-2, -1), initial=0.0)
        peak = np.maximum(np.abs(mean).max(initial=0.0), scale.max(initial=0.0))
        if not peak <= _MAX_MOMENT_ROUNDED:  # nan fails too
            raise ValueError(f"state moments must be finite and at most {MAX_MOMENT:g} "
                             f"in magnitude, got {float(peak)!r}")
        tol = _rounding_tol(SYMMETRY_TOL, scale)
        if np.any(np.abs(cov - np.swapaxes(cov, -1, -2)) > tol[..., None, None]):
            raise ValueError("covariance matrix is not symmetric")
        variances = np.diagonal(cov, axis1=-2, axis2=-1)
        if np.any(variances <= 0.0):
            raise ValueError("covariance diagonal entries must be positive")
        min_eig = uncertainty_min_eigenvalue(cov)
        unphysical = min_eig < -_rounding_tol(PHYSICALITY_TOL, variances.min(axis=-1))
        if np.any(unphysical):
            raise PhysicalityError(
                "covariance matrix violates the uncertainty bound "
                f"(min eigenvalue of cov + i*Omega = {min_eig[unphysical].min():.3e})"
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


# ---------------------------------------------------------------------------
# building blocks: every entry may be a float or an array


def _check(ok, message: str, *values) -> None:
    """Raise ValueError(message) filled with the values where ok first fails."""
    ok = np.asarray(ok)
    if not ok.all():
        first = [np.broadcast_to(v, ok.shape).flat[np.argmin(ok)] for v in values]
        raise ValueError(message.format(*first))


def _squeezing(fn, x, name: str) -> np.ndarray:
    """fn of each entry of the squeezing parameter x (name in errors); fn
    calls math's cosh, sinh or exp, since numpy's differ in the last bit,
    on a Python float, whose `2.0 * v` overflows to inf without raising."""
    def entry(v):
        v = float(v)
        try:
            value = fn(v)
        except OverflowError:
            value = math.inf
        if math.isinf(value):  # inf from inf; a nan parameter fails the state's check
            raise ValueError(f"squeezing parameter {name} = {v} overflows the covariance")
        return value
    return np.reshape([entry(v) for v in np.ravel(x).tolist()], np.shape(x))


def _matrix(rows) -> np.ndarray:
    """Square matrix of the rows, a ...xNxN stack when entries are arrays."""
    entries = np.broadcast_arrays(*(np.asarray(e, dtype=float) for row in rows for e in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (len(rows), len(rows)))


def _diag(a, b) -> np.ndarray:
    """diag(a, a, b, b)."""
    return _matrix([[a, 0.0, 0.0, 0.0], [0.0, a, 0.0, 0.0],
                    [0.0, 0.0, b, 0.0], [0.0, 0.0, 0.0, b]])


def _zero_mean(cov: np.ndarray) -> GaussianTwoModeState:
    return GaussianTwoModeState(mean=np.zeros(cov.shape[:-1]), cov=cov)


# ---------------------------------------------------------------------------
# constructors


def make_vacuum() -> GaussianTwoModeState:
    """Two-mode vacuum: zero mean, identity covariance."""
    return GaussianTwoModeState(mean=np.zeros(4), cov=np.eye(4))


def make_thermal(f1, f2) -> GaussianTwoModeState:
    """Phase-symmetric noisy beams with Fano factors f1, f2 >= 1."""
    _check((f1 >= 1.0) & (f2 >= 1.0), "thermal Fano factors must be >= 1, got ({}, {})", f1, f2)
    return _zero_mean(_diag(f1, f2))


def make_two_mode_squeezed(r) -> GaussianTwoModeState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    X+ quadratures are correlated, X- anti-correlated; the difference
    X+_1 - X+_2 has variance 2*exp(-2r).
    """
    _check(r >= 0.0, "squeezing parameter must be >= 0, got {}", r)
    ch = _squeezing(lambda v: math.cosh(2.0 * v), r, "r")
    sh = _squeezing(lambda v: math.sinh(2.0 * v), r, "r")
    return _zero_mean(_matrix([[ch, 0.0, sh, 0.0], [0.0, ch, 0.0, -sh],
                               [sh, 0.0, ch, 0.0], [0.0, -sh, 0.0, ch]]))


def make_single_mode_squeezed(mode: int, s, theta_sq=0.0) -> GaussianTwoModeState:
    """One mode squeezed by s along the quadrature at angle theta_sq,
    the other mode in vacuum."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    c, sn = np.cos(theta_sq), np.sin(theta_sq)
    rot = _matrix([[c, -sn], [sn, c]])
    squeezed = _matrix([[_squeezing(lambda v: math.exp(-2.0 * v), s, "s"), 0.0],
                        [0.0, _squeezing(lambda v: math.exp(2.0 * v), s, "s")]])
    block = rot @ squeezed @ np.swapaxes(rot, -1, -2)
    cov = np.broadcast_to(np.eye(4), block.shape[:-2] + (4, 4)).copy()
    i = 0 if mode == 1 else 2
    cov[..., i : i + 2, i : i + 2] = block
    return _zero_mean(cov)


# ---------------------------------------------------------------------------
# linear-optical maps


def _apply(state: GaussianTwoModeState, x: np.ndarray, y=-0.0) -> GaussianTwoModeState:
    """The state after mean -> x mean, cov -> x cov x^T + y.  Adding the
    default y = -0.0 changes no value, the sign of a zero included."""
    return GaussianTwoModeState(mean=(x @ state.mean[..., None])[..., 0],
                                cov=x @ state.cov @ np.swapaxes(x, -1, -2) + y)


def beamsplitter_matrix(theta, phi=0.0) -> np.ndarray:
    """Orthogonal symplectic matrix of the beamsplitter.

    Output mode 1 carries cos(theta) dX1 - sin(theta) dX2 on both
    quadratures (after the phase phi on mode 2); output mode 2 is the
    orthogonal combination.
    """
    c, s, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    return _matrix([[c, 0.0, -s * cp, s * sp], [0.0, c, -s * sp, -s * cp],
                    [s, 0.0, c * cp, -c * sp], [0.0, s, c * sp, c * cp]])


def apply_beamsplitter(state: GaussianTwoModeState, theta, phi=0.0) -> GaussianTwoModeState:
    return _apply(state, beamsplitter_matrix(theta, phi))


def apply_phase(state: GaussianTwoModeState, phi1, phi2) -> GaussianTwoModeState:
    """Rotate each mode's (X+, X-) plane by phi1, phi2."""
    c1, s1, c2, s2 = np.cos(phi1), np.sin(phi1), np.cos(phi2), np.sin(phi2)
    return _apply(state, _matrix([[c1, -s1, 0.0, 0.0], [s1, c1, 0.0, 0.0],
                                  [0.0, 0.0, c2, -s2], [0.0, 0.0, s2, c2]]))


def apply_loss(state: GaussianTwoModeState, eta1, eta2) -> GaussianTwoModeState:
    """Gaussian attenuation: each mode is mixed with vacuum at
    intensity transmission eta in [0, 1]."""
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        _check((eta >= 0.0) & (eta <= 1.0), name + " must lie in [0, 1], got {}", eta)
    return _apply(state, _diag(np.sqrt(eta1), np.sqrt(eta2)), _diag(1.0 - eta1, 1.0 - eta2))
