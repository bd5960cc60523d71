"""Photon-number statistics of mixtures of equal-photon-number Fock pairs.

The mixture sum_n p_n |n,n><n,n| is separable by construction, yet its
photon numbers are perfectly correlated: the counterexample showing that
perfect correlation (levels 1-2) does not imply entanglement (level 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class FockMixture:
    """Probability weights p_0 .. p_N over the pair states |n, n>."""

    weights: tuple

    def __init__(self, weights: Sequence[float]):
        ws = tuple(float(w) for w in weights)
        if not ws:
            raise ValueError("weights must be non-empty")
        if any(w < 0.0 for w in ws):
            raise ValueError("weights must be non-negative")
        if abs(sum(ws) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {sum(ws)}")
        object.__setattr__(self, "weights", ws)


@dataclass(frozen=True)
class PhotonStatistics:
    mean_n: float
    var_n: float
    fano: float
    c12: Optional[float]  # None when Var(n) = 0 (correlation undefined)
    intensity_gemellity: float
    v12: float
    v21: float


def photon_statistics(m: FockMixture) -> PhotonStatistics:
    """Intensity moments of the mixture.

    Both modes always carry the same photon number, so n1 - n2 vanishes
    identically: the intensity gemellity and both conditional variances
    are exactly zero, and C12 = 1 whenever Var(n) > 0.
    """
    mean_n = sum(n * p for n, p in enumerate(m.weights))
    if mean_n == 0.0:
        raise ValueError("all weight on n = 0: intensity statistics undefined")
    second = sum(n * n * p for n, p in enumerate(m.weights))
    var_n = second - mean_n * mean_n
    c12 = 1.0 if var_n > 0.0 else None
    return PhotonStatistics(
        mean_n=mean_n,
        var_n=var_n,
        fano=var_n / mean_n,
        c12=c12,
        intensity_gemellity=0.0,
        v12=0.0,
        v21=0.0,
    )

