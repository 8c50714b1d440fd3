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
    "entropy_density",
    "elastic_post_velocities",
    "nonelastic_post_velocities",
    "w_plus",
    "w_minus",
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


def entropy_density(rho_total, T, consts: PhysConsts):
    """Entropy per molecule of the two-state gas at total density rho_total."""
    return -np.log(np.asarray(rho_total, dtype=float)) + entropy_lambda(T, consts)


def _check_unit(omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    norms = np.sqrt(np.sum(omega**2, axis=-1))
    if not np.allclose(norms, 1.0, rtol=0, atol=1e-10):
        raise ValueError("omega must be a unit vector")
    return omega


def elastic_post_velocities(v1, v2, omega):
    """Post-collision velocities of an elastic binary collision.

    v3,4 = (v1+v2)/2 +- (|v1-v2|/2) * omega.  Momentum and kinetic energy are
    conserved identically.  Broadcasts over leading axes.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    omega = _check_unit(omega)
    center = 0.5 * (v1 + v2)
    half_rel = 0.5 * np.sqrt(np.sum((v1 - v2) ** 2, axis=-1))[..., None]
    return center + half_rel * omega, center - half_rel * omega


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


def _hard_sphere_b(rel_speed, omega, rel_vec, consts: PhysConsts, kernel_kind: str):
    """Hard-sphere cross section: C0*|v-v'| (simplified) or C0*|omega.(v-v')|."""
    if kernel_kind == "simplified":
        return consts.C0_kernel * rel_speed
    if kernel_kind == "angular":
        if omega is None:
            raise ValueError("angular kernel requires omega")
        return consts.C0_kernel * np.abs(np.sum(np.asarray(omega) * rel_vec, axis=-1))
    raise ValueError(f"unknown kernel_kind {kernel_kind!r}")


def w_plus(v3, v4, consts: PhysConsts, omega=None, kernel_kind: str = "simplified"):
    """Gain-side rate factor sqrt(|v3-v4|^2 + 4*eps0)/(2|v3-v4|) * B(|v3-v4|).

    With the simplified hard-sphere kernel this is
    (C0/2)*sqrt(|v3-v4|^2 + 4*eps0); C0 = 2 gives sqrt(|v3-v4|^2 + 4*eps0).
    """
    v3 = np.asarray(v3, dtype=float)
    v4 = np.asarray(v4, dtype=float)
    rel_vec = v3 - v4
    rel2 = np.sum(rel_vec**2, axis=-1)
    rel = np.sqrt(rel2)
    b = _hard_sphere_b(rel, omega, rel_vec, consts, kernel_kind)
    return np.sqrt(rel2 + 4.0 * consts.epsilon0) / (2.0 * rel) * b


def w_minus(v1, v2, consts: PhysConsts, omega=None, kernel_kind: str = "simplified"):
    """Loss-side rate factor sqrt(|v1-v2|^2 - 4*eps0)/(2|v1-v2|) * B(|v1-v2|).

    Raises BelowThreshold below the endothermic threshold |v1-v2|^2 = 4*eps0.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    rel_vec = v1 - v2
    rel2 = np.sum(rel_vec**2, axis=-1)
    if np.any(rel2 < 4.0 * consts.epsilon0):
        raise BelowThreshold(
            f"|v1-v2|^2 = {np.min(rel2):.6g} < 4*epsilon0 = {4 * consts.epsilon0:.6g}"
        )
    rel = np.sqrt(rel2)
    b = _hard_sphere_b(rel, omega, rel_vec, consts, kernel_kind)
    return np.sqrt(rel2 - 4.0 * consts.epsilon0) / (2.0 * rel) * b


@dataclass(frozen=True)
class CollisionTuple:
    """A kinematically valid binary collision (v1, v2) -> (v3, v4)."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray
    kind: str  # "elastic" | "nonelastic"

    _ATOL = 1e-9

    def __post_init__(self):
        for name in ("v1", "v2", "v3", "v4"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.kind not in ("elastic", "nonelastic"):
            raise ValueError(f"kind must be elastic|nonelastic, got {self.kind!r}")

    @classmethod
    def elastic(cls, v1, v2, omega) -> "CollisionTuple":
        v3, v4 = elastic_post_velocities(v1, v2, omega)
        return cls(v1, v2, v3, v4, "elastic")

    @classmethod
    def nonelastic(cls, v1, v2, omega, consts: PhysConsts) -> "CollisionTuple":
        v3, v4 = nonelastic_post_velocities(v1, v2, omega, consts)
        return cls(v1, v2, v3, v4, "nonelastic")

    def momentum_residual(self) -> np.ndarray:
        return (self.v1 + self.v2) - (self.v3 + self.v4)

    def energy_residual(self, consts: PhysConsts) -> np.ndarray:
        """Total-energy defect; includes the quantum eps0 for nonelastic tuples."""
        kin_in = 0.5 * (np.sum(self.v1**2, axis=-1) + np.sum(self.v2**2, axis=-1))
        kin_out = 0.5 * (np.sum(self.v3**2, axis=-1) + np.sum(self.v4**2, axis=-1))
        shift = consts.epsilon0 if self.kind == "nonelastic" else 0.0
        return kin_in - (kin_out + shift)
