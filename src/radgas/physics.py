"""Closed-form physics of the two-state gas: Maxwellians, equilibrium ratios,
thermodynamic densities, and binary collision kinematics.

Everything here is an exact formula evaluated in double precision; the
quadrature and solver modules build on these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysConsts
from .errors import BelowThreshold

__all__ = [
    "MaxwellianState",
    "CollisionTuple",
    "maxwellian",
    "boltzmann_ratio",
    "pseudo_planck",
    "energy_density",
    "entropy_lambda",
    "nonelastic_post_velocities",
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
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")


def maxwellian(state: MaxwellianState, excited: bool, consts: PhysConsts, v) -> np.ndarray:
    """Evaluate c0*rho*T^(-3/2) * exp(-(|v-u|^2 + 2*eps0*[excited]) / T).

    `v` may be a single 3-vector or an (..., 3) array; the result broadcasts.
    """
    v = np.asarray(v, dtype=float)
    dv2 = np.sum((v - state.u) ** 2, axis=-1)
    shift = 2.0 * consts.epsilon0 if excited else 0.0
    return consts.c0 * state.rho * state.T ** -1.5 * np.exp(-(dv2 + shift) / state.T)


def boltzmann_ratio(T, consts: PhysConsts):
    """Equilibrium excited/ground population ratio exp(-2*eps0/T), in (0, 1)."""
    T = np.asarray(T, dtype=float)
    return np.exp(-2.0 * consts.epsilon0 / T)


def pseudo_planck(T, consts: PhysConsts):
    """Single-frequency radiative equilibrium intensity q/(1-q), q = exp(-2*eps0/T)."""
    q = boltzmann_ratio(T, consts)
    return q / (1.0 - q)


def energy_density(T, consts: PhysConsts):
    """Energy per molecule: (3/4)T + eps0*q/(1+q) with q = exp(-2*eps0/T)."""
    T = np.asarray(T, dtype=float)
    q = np.exp(-2.0 * consts.epsilon0 / T)
    return 0.75 * T + consts.epsilon0 * q / (1.0 + q)


def entropy_lambda(T, consts: PhysConsts):
    """Temperature part of the entropy density, s = -log(rho_total) + lambda(T).

    lambda(T) = log(T^(3/2)*(1+q)) + (2*eps0/T)*q/(1+q) - log(c0) + 3/2,
    with q = exp(-2*eps0/T).  This is the variant satisfying the identity
    T*lambda'(T) = 2*e'(T), which the finite-difference tests enforce.
    """
    T = np.asarray(T, dtype=float)
    x = 2.0 * consts.epsilon0 / T
    q = np.exp(-x)
    return 1.5 * np.log(T) + np.log1p(q) + x * q / (1.0 + q) - math.log(consts.c0) + 1.5


def _check_unit(omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    norms = np.sqrt(np.sum(omega**2, axis=-1))
    if not np.allclose(norms, 1.0, rtol=0, atol=1e-10):
        raise ValueError("omega must be a unit vector")
    return omega


def nonelastic_post_velocities(v1, v2, omega, consts: PhysConsts):
    """Post-collision velocities of the excitation channel A+A -> A+A*.

    v3,4 = (v1+v2)/2 +- omega*sqrt(|v1-v2|^2/4 - eps0); v3 carries the
    excitation.  Raises BelowThreshold when the relative kinetic energy cannot
    pay the quantum, i.e. |v1-v2|^2 < 4*eps0.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    omega = _check_unit(omega)
    rel2 = np.sum((v1 - v2) ** 2, axis=-1)
    arg = 0.25 * rel2 - consts.epsilon0
    if np.any(arg < 0):
        raise BelowThreshold(
            f"|v1-v2|^2 = {np.min(rel2):.6g} < 4*epsilon0 = {4 * consts.epsilon0:.6g}"
        )
    center = 0.5 * (v1 + v2)
    k = np.sqrt(arg)[..., None]
    return center + k * omega, center - k * omega


@dataclass(frozen=True)
class CollisionTuple:
    """A kinematically valid binary collision (v1, v2) -> (v3, v4)."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray

    def __post_init__(self):
        for name in ("v1", "v2", "v3", "v4"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def nonelastic(cls, v1, v2, omega, consts: PhysConsts) -> "CollisionTuple":
        v3, v4 = nonelastic_post_velocities(v1, v2, omega, consts)
        return cls(v1, v2, v3, v4)
