"""Physical constants of the two-state gas-radiation model.

Units follow the model's nondimensionalization: molecule mass 1, Boltzmann
constant 1/2, photon energy epsilon0.  The Maxwellian normalization c0 is
pi**(-3/2) so that number densities integrate exactly; the level-curve
computations conventionally reset it to 1.  The printed L they draw does not
contain c0; the calibrated L scales as 1/c0^2 (see `collision_reduction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Boltzmann constant of the model, fixed once and for all.
K_BOLTZMANN = 0.5

#: Physical Maxwellian normalization, (integral of exp(-|xi|^2) d^3xi)^-1.
C0_MAXWELLIAN = math.pi ** -1.5


@dataclass(frozen=True)
class PhysConsts:
    """Scalar parameters every module shares.

    epsilon0   -- internal excitation energy quantum (> 0)
    sigma      -- nonelastic-to-radiative collision scale ratio (> 0)
    c0         -- Maxwellian normalization, pi**(-3/2) unless overridden
    C0_kernel  -- hard-sphere cross-section constant (> 0)
    """

    epsilon0: float = 1.0
    sigma: float = 1.0
    c0: float = C0_MAXWELLIAN
    C0_kernel: float = 2.0

    def __post_init__(self):
        if not self.epsilon0 > 0:
            raise ValueError(f"epsilon0 must be > 0, got {self.epsilon0}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not self.c0 > 0:
            raise ValueError(f"c0 must be > 0, got {self.c0}")
        if not math.isfinite(self.c0 * self.c0):  # the collision rates carry c0^2
            raise ValueError(f"c0 must have a finite square, got {self.c0}")
        if not self.C0_kernel > 0:
            raise ValueError(f"C0_kernel must be > 0, got {self.C0_kernel}")

    @property
    def maxwellian_mass(self) -> float:
        """Mass of c0 * exp(-|v|^2/T) / T^(3/2): equals 1 for the physical c0."""
        return self.c0 * math.pi ** 1.5
