"""Exception hierarchy shared by all steadypop modules."""


class SteadypopError(Exception):
    """Base class for all steadypop errors."""


class ParameterError(SteadypopError, ValueError):
    """An argument is outside its documented domain; ``field`` names it when known."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class GridMismatchError(SteadypopError, ValueError):
    """Samples do not belong to the grid they are combined with."""


class BoundsViolationError(SteadypopError, ValueError):
    """A vital rate evaluated outside its declared bounds (model misconfiguration)."""


class ConvergenceError(SteadypopError, RuntimeError):
    """An iterative scheme failed to reach its tolerance."""

    def __init__(self, message, last_residual=None, iterations=None):
        super().__init__(message)
        self.last_residual = last_residual
        self.iterations = iterations


class ConfigError(SteadypopError, ValueError):
    """A run configuration file is malformed; ``key`` names the offender."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
