"""Exception types shared across the solvers.

Every failure mode a caller is expected to handle gets its own class, so that
`except radgas.SingularDenominator:` style handling never has to string-match.
"""


class RadgasError(Exception):
    """Base class for all library-specific errors."""


class SingularDenominator(RadgasError):
    """H/S/L cannot be evaluated at this (T1, T2): a denominator vanished within
    tolerance, or a reduced functional is non-finite or not positive."""


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
