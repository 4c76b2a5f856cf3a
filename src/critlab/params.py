"""Problem parameters for the mass-critical singular-weight functional."""
from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class GNParams:
    """Dimension, singularity strength and interaction strength.

    The critical exponent ``beta_sq = (2 - b) / N`` is derived, never set by
    the caller: it is the unique power for which kinetic and interaction
    energy scale identically under mass-preserving dilations.
    """

    N: int
    b: float
    a: float = 0.0
    beta_sq: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not 0.0 < self.b < min(2.0, float(self.N)):
            raise ValueError(
                f"b must satisfy 0 < b < min(2, N) = {min(2.0, float(self.N))}, got {self.b}"
            )
        if self.a < 0.0:
            raise ValueError(f"interaction strength a must be nonnegative, got {self.a}")
        object.__setattr__(self, "beta_sq", (2.0 - self.b) / self.N)

    @property
    def nonlinear_power(self) -> float:
        """Power 2 + 2*beta_sq appearing in the interaction integral."""
        return 2.0 + 2.0 * self.beta_sq

    def with_a(self, a: float) -> "GNParams":
        """Same (N, b) with a different interaction strength."""
        return GNParams(self.N, self.b, a)


def surface_area(N: int) -> float:
    """Area of the unit sphere S^{N-1}; equals 2 for N = 1."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
