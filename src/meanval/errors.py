"""Exception hierarchy shared by the library and the command line front end.

Each class carries the exit code and the stderr label under which the CLI
reports it, so the exit-code contract is stated here alone: configuration
problems exit with 2, resource-budget violations with 3, and a failed rigor
gate with 4: an internal check, such as the per-prime derivative gate, that
rejects a result, or an exact sum handed an inf, a nan or a term of
magnitude 2**998 or more.
"""


class MeanvalError(Exception):
    """Base class for all errors raised by this package (exit code 2)."""

    exit_code = 2
    label = "error"


class ConfigError(MeanvalError, ValueError):
    """Invalid parameters or options (exit code 2)."""


class InsufficientDataError(ConfigError):
    """Not enough data points to run a requested estimation."""


class ResourceError(MeanvalError):
    """A computation would exceed the configured memory budget (exit code 3)."""

    exit_code = 3
    label = "resource error"


class ToleranceError(MeanvalError):
    """An internal rigor check failed (exit code 4)."""

    exit_code = 4
    label = "tolerance failure"
