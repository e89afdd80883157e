"""Exception types shared across the toolkit."""


class FraccertError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(FraccertError):
    """Inconsistent or out-of-contract inputs (bad radii, mismatched grids, ...)."""


class DomainError(FraccertError, ValueError):
    """Parameter outside its mathematical domain (e.g. order s outside (0,1))."""


class DivergenceError(FraccertError):
    """The singular integral does not converge for the supplied function."""


class EvaluationPointError(FraccertError):
    """Evaluation requested too close to a kink or jump of the integrand."""


class DegenerateInputError(FraccertError):
    """Input makes the requested quantity ill-defined (e.g. zero forcing)."""


class PositivityViolation(FraccertError):
    """A nonlinearity sampled nonpositive where positivity is required."""


class NumericalError(FraccertError):
    """A computed result failed its own accuracy check (e.g. a solve residual)."""
