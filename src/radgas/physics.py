"""Closed-form physics of the two-state gas: Maxwellian states, equilibrium
ratios and thermodynamic densities.

Everything here is an exact formula evaluated in double precision; the
quadrature and solver modules build on these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysConsts

__all__ = [
    "MaxwellianState",
    "boltzmann_ratio",
    "pseudo_planck",
    "energy_density",
    "entropy_lambda",
]


@dataclass(frozen=True)
class MaxwellianState:
    """One species' local equilibrium: number density, bulk velocity, temperature."""

    rho: float
    u: np.ndarray
    T: float

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(3))
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if not math.isfinite(self.rho * self.rho):  # collision rates are quadratic in rho
            raise ValueError(f"rho must have a finite square, got {self.rho}")
        # the Monte Carlo squares weighted samples w*D, w ~ sqrt(T) and D ~ T
        # times powers of the drawn normals: T <= 2^320 keeps T^3 <= 2^960,
        # which leaves 2^64 for those powers and the sum over the samples
        if not 0 < self.T <= 2.0**320:
            raise ValueError(f"T must be > 0 and <= 2^320 (about 2.1e96), got {self.T}")


def boltzmann_ratio(T, consts: PhysConsts):
    """Equilibrium excited/ground population ratio exp(-2*eps0/T), in (0, 1)."""
    T = np.asarray(T, dtype=float)
    return np.exp(-2.0 * consts.epsilon0 / T)


def pseudo_planck(T, consts: PhysConsts):
    """Single-frequency radiative equilibrium intensity q/(1-q), q = exp(-2*eps0/T)."""
    q = boltzmann_ratio(T, consts)
    return q / (1.0 - q)


def energy_density(T, consts: PhysConsts):
    """Energy per molecule: (3/4)T + eps0*q/(1+q) with q = exp(-2*eps0/T).

    T may be complex (the complex-step derivative of `kinetic`)."""
    T = np.asarray(T)
    q = np.exp(-2.0 * consts.epsilon0 / T)
    return 0.75 * T + consts.epsilon0 * q / (1.0 + q)


def entropy_lambda(T, consts: PhysConsts):
    """Temperature part of the entropy density, s = -log(rho_total) + lambda(T).

    lambda(T) = log(T^(3/2)*(1+q)) + (2*eps0/T)*q/(1+q) - log(c0) + 3/2,
    with q = exp(-2*eps0/T).  This is the variant satisfying the identity
    T*lambda'(T) = 2*e'(T), which `kinetic.entropy_identity_check` checks
    by complex step, so T may be complex.
    """
    T = np.asarray(T)
    x = 2.0 * consts.epsilon0 / T
    q = np.exp(-x)
    return 1.5 * np.log(T) + np.log1p(q) + x * q / (1.0 + q) - math.log(consts.c0) + 1.5
