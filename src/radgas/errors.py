"""Exception types shared across the solvers.

Every failure mode a caller is expected to handle gets its own class, so that
`except radgas.SingularDenominator:` style handling never has to string-match.
"""


class RadgasError(Exception):
    """Base class for all library-specific errors."""


class SingularDenominator(RadgasError):
    """A denominator vanished within tolerance, or what it divides is not finite:
    H/S/L at this (T1, T2), where a reduced functional may also be non-finite
    or not positive, or the slab coupling alpha0, whose G0 = q/(1 - q)
    divides by 0 when q = exp(-2*eps0/T0) rounds to 1."""


class EmptyLevel(RadgasError):
    """A requested contour level intersects no grid cell."""


class NonContraction(RadgasError):
    """Discretized integral operator has norm >= 1 (misconfigured quadrature, or escape below rounding)."""


class NonPositiveW(RadgasError):
    """Converged exponential-limit solution dipped below zero."""


class NotInterior(RadgasError):
    """Query point lies on or outside the domain boundary."""


class SingularSystem(RadgasError):
    """Node-local linear system is rank deficient beyond tolerance."""


class ConfigError(RadgasError):
    """Malformed, unknown, or out-of-range configuration input."""
