"""Exception and warning types shared across the package, and the argument check."""

import math
import numbers


class EmlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(EmlabError, ValueError):
    """An argument outside its domain, rejected before any work is done."""


def check(value, ok, name: str, what: str):
    """InvalidArgument saying that ``name`` must be ``what``, unless ok(value)
    holds (ok raising TypeError or ValueError counts as not holding)."""
    try:
        good = bool(ok(value))
    except (TypeError, ValueError):
        good = False
    if not good:
        raise InvalidArgument(f"{name} must be {what}, got {value!r}")


def is_count(value, minimum: int = 0) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# -- model / initial data -----------------------------------------------------

class DensityNonpositive(EmlabError):
    """The transformed density leaves the admissible range 1 + mu*n > 0."""


class AmplitudeTooLarge(EmlabError):
    """Requested perturbation amplitude violates pointwise positivity."""


class ClosureShiftNotConverged(EmlabError):
    """The zero-mean closure shift of the initial density did not converge."""


# -- dynamics -----------------------------------------------------------------

class CflViolation(UserWarning):
    """Time step exceeds the advisory CFL bound (warning, not fatal)."""


class SimulationDiverged(EmlabError):
    """NaN or Inf detected in the evolved state."""


# -- linear analyzer ----------------------------------------------------------

class QuadratureNotConverged(EmlabError):
    """Doubling the quadrature nodes moved a reported value by too much."""


class NotRealForm(EmlabError):
    """The similarity D A(xi) D^-1 meant to make the generator real is not real."""


# -- energetics ---------------------------------------------------------------

class DerivativeOrderExceedsResolution(UserWarning):
    """High-order derivative weights are dominated by the top of the resolved band."""


class EquivalenceViolated(EmlabError):
    """An equivalence certificate failed; indicates an implementation bug."""


# -- analysis -----------------------------------------------------------------

class InsufficientSamples(EmlabError):
    """Too few samples inside the fit window."""


class NonpositiveValue(EmlabError):
    """Log-log fit requires strictly positive values."""


class RequiresBInftyZero(EmlabError):
    """Requested quantity is only defined for zero background magnetic field."""


class SOutOfRange(InvalidArgument):
    """Negative-regularity index outside the admissible range."""


class POutOfRange(InvalidArgument):
    """Lebesgue exponent outside [1, 2]."""


# -- inequality oracles -------------------------------------------------------

class ThetaOutOfRange(EmlabError):
    """Interpolation exponent implied by the index relation is inadmissible."""


class ExponentMismatch(EmlabError):
    """Embedding indices do not satisfy the required scaling relation."""


class ExactViolated(EmlabError):
    """A constant-free discrete inequality failed; indicates an implementation bug."""


# -- cli ----------------------------------------------------------------------

class ConfigError(EmlabError):
    """Invalid or unknown configuration content."""
