"""Mean values of weighted divisor functions of minimal powers.

The studied arithmetic function assigns to n the divisor count of the least m
with n | m**r, damped by k**omega(n). This package evaluates it exactly,
sums it exactly to large x, computes the Euler-product constants of its
asymptotic mean value C*x*ln(x) + K*x, verifies the generating-function
identities behind that formula, and estimates the empirical error exponent.
"""

from .arith import (
    ArithParams,
    ExactValue,
    PrimeFactorization,
    composite_weighted_divisor,
    divisor_count,
    factorize,
    minimal_power,
    omega,
    weighted_divisor,
)
from .coeffs import ConstantsBundle, bundle, cofactor_value
from .errors import (
    ConfigError,
    InsufficientDataError,
    MeanvalError,
    ResourceError,
    ToleranceError,
)
from .fit import FitReport, fit_exponent, residuals
from .sieve import SummatoryTable, geometric_checkpoints, summatory
from .verify import (
    VerifyReport,
    global_factorization_check,
    power_series_check,
    local_factor,
    numerator_identity_check,
    run_battery,
)
from .zeta import EULER_GAMMA, ZetaValue, zeta, zeta_prime

__version__ = "0.1.0"
