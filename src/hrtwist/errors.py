"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument the operation does not accept."""


class OracleConvergenceError(RuntimeError):
    """A reference computation failed to reach its accuracy target."""
