"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract: parameter/input/unsupported
errors are usage failures (exit 1), numerical failures are runtime failures
(exit 2), and certification failures exit 3.
"""


class GainRegError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(GainRegError):
    """A configuration value or function parameter is out of its domain."""


class InvalidInputError(GainRegError):
    """Data passed to an operation is malformed (shape, finiteness, range)."""


class UnsupportedOperationError(GainRegError):
    """The operation is undefined for this gain or model kind."""


class PrecisionFailureError(GainRegError):
    """A quadrature did not converge under node doubling."""


class DegenerateIterateError(GainRegError):
    """Every observation fell outside the gain support at some iterate."""


class SingularSystemError(GainRegError):
    """A weighted least-squares system is singular and no ridge was allowed."""


class NonFiniteResultError(GainRegError):
    """Finite inputs gave a non-finite result: the arithmetic overflowed a double."""


class CertificationFailureError(GainRegError):
    """A certification run could not be completed (e.g. non-finite integrand)."""
