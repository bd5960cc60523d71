"""Second-moment containers shared by the state and criteria layers.

All variances are normalized to the shot-noise (coherent-state) level,
so a vacuum or coherent beam has unit variance on every quadrature.
"""

from dataclasses import dataclass

import numpy as np


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
        if not np.all((self.f1 > 0.0) & (self.f2 > 0.0)):
            raise ValueError(f"variances must be positive, got F1={self.f1}, F2={self.f2}")
        if np.any(abs(self.c12) > 1.0):
            raise ValueError(f"correlation must lie in [-1, 1], got {self.c12}")

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
