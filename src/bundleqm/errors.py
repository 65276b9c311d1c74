"""Exception types raised by the numerical contracts of this package."""


class BundleqmError(ValueError):
    """Base class for all contract violations in bundleqm."""


class ZeroCrossingError(BundleqmError):
    """A curve sample (or loop point) came within tolerance of the origin."""


class UndersampledError(BundleqmError):
    """Consecutive angular steps of a sampled curve reached pi."""


class OpenCurveError(BundleqmError):
    """Endpoints of a supposedly closed curve differ beyond tolerance."""


class ZeroPointError(BundleqmError):
    """The excluded point z = 0 of the punctured phase space was passed in."""


class GridTooSmallError(BundleqmError):
    """Fewer than 3 samples along an axis; central differences undefined."""


class DivisionNearZeroError(BundleqmError):
    """A probe section vanishes (within tolerance) where a ratio is needed."""


class WrongPolarizationError(BundleqmError):
    """Section depends on the conjugate variable for the requested representation."""


class ChargeMismatchError(BundleqmError):
    """Operands carry different quantum charges."""


class QuadratureUnderResolvedError(BundleqmError):
    """Quadrature order below the 2N+2 floor for the requested truncation."""


class DecayViolationError(BundleqmError):
    """Section amplitude at the grid boundary exceeds the decay threshold."""


class NonMonotoneError(BundleqmError):
    """A parameter sequence required to be strictly monotone is not."""


class NotNormalizedError(BundleqmError):
    """State norm differs from 1 beyond tolerance."""


class BranchOutOfRangeError(BundleqmError):
    """Root-branch index outside 0..n-1."""


class OriginSingularError(BundleqmError):
    """Cone metric evaluated at the orbifold point for n >= 2."""


class GridFormatError(BundleqmError):
    """A grid file is truncated, has a bad header, or its rows are malformed;
    or sampled axes are not uniform, or values do not match the axes."""


class InvalidChargeError(BundleqmError):
    """A quantum charge other than the integer +1 or -1."""


class NonFiniteError(BundleqmError):
    """Sampled values or coefficients hold NaN or infinity."""


class ResolutionInsufficientError(BundleqmError):
    """Grid too coarse: measured eigenvalue off by more than 5%."""
