"""Exception types shared across the toolkit, one per kind of failure.

An input outside a computation's domain raises ParameterDomainError (the
CLI exits 2); a numerical method that fails on accepted input raises
NumericalError (the CLI exits 3).  All of them derive from ValueError.
"""


class LBVerifyError(ValueError):
    """Base class for all toolkit errors."""


class ParameterDomainError(LBVerifyError):
    """An input is outside its computation's domain (e.g. lambda <= 0).

    The message names the bound.
    """


class NumericalError(LBVerifyError):
    """A numerical method failed on accepted input (non-convergence, a non-finite result)."""


class SpecialFunctionError(NumericalError):
    """A special-function evaluation failed to converge."""
