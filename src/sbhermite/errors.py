"""Exception types raised by the construction and verification pipeline.

Each class names the violated condition so callers (and tests) can react to
a specific failure instead of parsing messages.
"""


class NonSymmetricA(ValueError):
    """The first matrix of the defining triple is not complex symmetric."""


class NonSymmetricC(ValueError):
    """The third matrix of the defining triple is not complex symmetric."""


class SingularB(ValueError):
    """The middle matrix of the defining triple is numerically singular."""


class NonPositiveCI(ValueError):
    """The imaginary part of C is not positive definite."""


class EigFailure(RuntimeError):
    """A Hermitian eigendecomposition failed or produced nonpositive values."""


class RhoOutOfRange(ValueError):
    """rho must satisfy 0 < rho < lambda_0 strictly."""


class IntertwinerInvalid(ValueError):
    """X is not a valid intertwiner for the given weight data and rho."""


class SymmetryViolation(RuntimeError):
    """A constructed matrix that must be complex symmetric is not."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class MExponentMismatch(ValueError):
    """A Gaussian-polynomial argument carries the wrong exponent matrix."""


class DegreeCapExceeded(ValueError):
    """Requested Gaussian moment exceeds the configured total-degree cap."""


class NonIntegrableWeight(ValueError):
    """The combined Gaussian exponent is not positive definite."""


class IncompleteFamily(ValueError):
    """The supplied family lacks members required for the expansion."""


class QuadratureUnderflow(RuntimeError):
    """The Gaussian center of an integrand lies outside the node window."""


class ConfigError(ValueError):
    """A run configuration violates the schema."""
