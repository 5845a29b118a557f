"""Mean values of weighted divisor functions of minimal powers.

The studied arithmetic function assigns to n the divisor count of the least m
with n | m**r, damped by k**omega(n). This package evaluates it exactly,
sums it exactly to large x, computes the Euler-product constants of its
asymptotic mean value C*x*ln(x) + K*x, verifies the generating-function
identities behind that formula, and estimates the empirical error exponent.

``import meanval`` loads only the error classes and zeta, which need no
NumPy. Every other name in ``__all__`` is imported from its module on first
use (PEP 562), so a program pays for NumPy only once it reaches for a name
that needs it. ``zeta`` stays eager: the function shares its name with the
submodule, and binding it here first keeps ``meanval.zeta`` the function
after any module imports ``meanval.zeta``.
"""

import importlib

from .errors import (
    ConfigError,
    InsufficientDataError,
    MeanvalError,
    ResourceError,
    ToleranceError,
)
from .zeta import EULER_GAMMA, ZetaValue, zeta, zeta_prime

__version__ = "0.1.0"

# the names imported on first use, by module
_LAZY = {
    "arith": (
        "ArithParams",
        "ExactValue",
        "PrimeFactorization",
        "composite_weighted_divisor",
        "divisor_count",
        "factorize",
        "minimal_power",
        "omega",
        "weighted_divisor",
    ),
    "coeffs": ("ConstantsBundle", "bundle", "cofactor_value"),
    "fit": ("FitReport", "fit_exponent", "residuals"),
    "sieve": ("SummatoryTable", "geometric_checkpoints", "summatory"),
    "verify": (
        "VerifyReport",
        "global_factorization_check",
        "power_series_check",
        "local_factor",
        "numerator_identity_check",
        "run_battery",
    ),
}

__all__ = [
    "ConfigError",
    "InsufficientDataError",
    "MeanvalError",
    "ResourceError",
    "ToleranceError",
    "EULER_GAMMA",
    "ZetaValue",
    "zeta",
    "zeta_prime",
    *(name for names in _LAZY.values() for name in names),
]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
