"""Shared exception types."""


class IpmLabError(Exception):
    """Base class for all package errors."""


class OutOfSupport(IpmLabError):
    """Value lies outside the distribution's support."""


class OutOfRange(IpmLabError):
    """Target value outside the range of the inverted function."""


class NonMonotone(IpmLabError):
    """Bracketing detected a sign inconsistency in a supposedly monotone map."""


class DomainError(IpmLabError):
    """Argument outside the mathematical domain of the function."""


class QuadratureFailure(IpmLabError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class NonIntegrable(IpmLabError):
    """Requested expectation diverges."""


class InfeasibleClaim(IpmLabError):
    """Analytic optimum violates the program's box constraints."""


class ParseError(IpmLabError):
    """Malformed descriptor string or config file."""
