"""Exception hierarchy shared by the library and the command line front end.

The CLI maps these onto its stable exit codes: configuration problems exit
with 2, resource-budget violations with 3, and a failed rigor gate with 4:
an internal check, such as the per-prime derivative gate, that rejects a
result, or an exact sum handed an inf, a nan or a term of magnitude 2**998
or more.
"""


class MeanvalError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MeanvalError, ValueError):
    """Invalid parameters or options (CLI exit code 2)."""


class InsufficientDataError(ConfigError):
    """Not enough data points to run a requested estimation."""


class ResourceError(MeanvalError):
    """A computation would exceed the configured memory budget (exit code 3)."""


class ToleranceError(MeanvalError):
    """An internal rigor check failed (exit code 4)."""
