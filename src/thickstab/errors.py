"""Exception taxonomy shared across the toolkit.

Two broad classes matter to callers: bad inputs (rejected before any real
computation starts) and numerical failures (an iteration that did not
converge, a state that blew up mid-run). The CLI maps them to distinct
exit codes.
"""


class ValidationError(ValueError):
    """Invalid argument, config key, or violated precondition."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class MomentDivergenceError(ValidationError):
    """The moment supremum is infinite: the symbol grows too slowly for this k."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its budget without converging."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegrationError(NumericalError):
    """A quadrature panel's value is not finite or missed its error gate;
    step is the left edge of the failing panel."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
