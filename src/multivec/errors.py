"""Exception types shared across the package.

All structural-input failures derive from ValueError so callers that do not
care about the fine-grained type can catch the usual builtin.  A density
argument outside a support that the law itself bounds (a unit ball, the
(0,1) cube, the s0 > 0 half-line) does not raise: the log density is -inf
there.  An argument that a density declares positive up front (the v of
log-elliptical and mixed-ell-logell, the u of mv-gengamma and
gamma-loggamma, the f of mv-beta2) raises NonPositiveInput when it is not
finite and > 0.
"""


class MultivecError(ValueError):
    """Base class for all package-specific errors."""


class DimensionMismatch(MultivecError):
    """Vector length or block structure does not match the declared partition."""


class NotPositiveDefinite(MultivecError):
    """A scale matrix has a nonpositive Cholesky pivot (or is not symmetric)."""


class ParameterOutOfDomain(MultivecError):
    """A generator or family parameter violates its admissibility constraint."""


class NonPositiveInput(MultivecError):
    """An argument that must be strictly positive is zero or negative."""


class FlatParamsError(MultivecError):
    """A flat name -> value params map lacks a key or holds a non-number."""


class NonFiniteLikelihood(MultivecError):
    """A likelihood evaluation produced NaN or +inf at valid parameters."""


class DegenerateSample(MultivecError):
    """Sample has no usable variation (e.g. constant data in gamma_init)."""


class EmptySample(MultivecError):
    """An operation received zero observations."""


class QuadratureFailure(RuntimeError):
    """Numerical integration did not converge to the requested tolerance."""


class DegenerateWeights(RuntimeError):
    """Importance-sampling weights collapsed (effective sample size too small)."""
