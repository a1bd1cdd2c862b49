"""Exception taxonomy shared across the package, and the CLI's exit-code contract.

Each class states the exit code the CLI returns for it and the label that starts
its stderr line: parameter, input and unsupported-operation errors are invalid
requests (exit 1), numerical failures are runtime failures (exit 2), and
certification failures exit 3.  Any other package error exits 2.  Beside these,
the CLI's usage error exits 1, an i/o failure 2, a certify run with a failing
row 3, and success 0.
"""


class GainRegError(Exception):
    """Base class for all package errors."""
    exit_code, label = 2, "error"


class InvalidParameterError(GainRegError):
    """A configuration value or function parameter is out of its domain."""
    exit_code, label = 1, "invalid request"


class InvalidInputError(GainRegError):
    """Data passed to an operation is malformed (shape, finiteness, range)."""
    exit_code, label = 1, "invalid request"


class UnsupportedOperationError(GainRegError):
    """The operation is undefined for this gain or model kind."""
    exit_code, label = 1, "invalid request"


class PrecisionFailureError(GainRegError):
    """A quadrature did not converge under node doubling."""
    exit_code, label = 2, "runtime failure"


class DegenerateIterateError(GainRegError):
    """Every observation fell outside the gain support at some iterate."""
    exit_code, label = 2, "runtime failure"


class SingularSystemError(GainRegError):
    """A weighted least-squares system is singular and no ridge was allowed."""
    exit_code, label = 2, "runtime failure"


class NonFiniteResultError(GainRegError):
    """Finite inputs gave a non-finite result: the arithmetic overflowed a double."""
    exit_code, label = 2, "runtime failure"


class CertificationFailureError(GainRegError):
    """A certification run could not be completed (e.g. non-finite integrand)."""
    exit_code, label = 3, "certification failure"
