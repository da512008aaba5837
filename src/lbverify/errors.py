"""Exception types shared across the toolkit.

All of them derive from ValueError so that callers who do not care about
the fine-grained kind can catch a single base class.
"""


class LBVerifyError(ValueError):
    """Base class for all toolkit errors."""


class ParameterDomainError(LBVerifyError):
    """A physical parameter is outside its admissible domain (e.g. lambda <= 0)."""


class RangeError(LBVerifyError):
    """A radius past its overflow bound, or a 2F1 argument z outside its branch.

    The message names the bound.
    """


class DomainError(LBVerifyError):
    """A mathematical expression was evaluated outside its real domain."""


class ForbiddenRegionError(DomainError):
    """A congruence was evaluated where the radial velocity is imaginary (w > E^2)."""


class PoleError(DomainError):
    """An expression was evaluated at a pole of its denominator."""


class ResolutionError(LBVerifyError):
    """A numerical routine was configured too coarsely (e.g. too few ODE steps)."""


class NumericalError(LBVerifyError):
    """A numerical method failed on accepted input (non-convergence, a non-finite result)."""


class SpecialFunctionError(NumericalError):
    """A special-function evaluation failed to converge."""
