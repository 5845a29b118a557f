"""Numerical verification of the generating-function identities.

Each check produces a ``VerifyReport`` whose ``bound`` is a rigorous
tolerance: the analytic truncation tail of whatever was cut off, plus an
explicit allowance for double-precision evaluation. ``passed`` is computed
from the report's own numbers: |lhs - rhs| <= bound, nothing else. Where an
identity is known to be parameter-dependent the verifier does not take sides:
it reports the observed gap on both routes and lets the reader decide (see
``global_factorization_check``, which compares the truncated Dirichlet series
against the truncated local product and, separately, against the closed-form
factorization).

Verified identities:

* the power-series evaluation sum_{a>=1} (ceil(a/r)+1) z^a
  = z*(2-z^r) / ((1-z)*(1-z^r)) for |z| < 1;
* the per-prime local factor 1 + (1/k) * that series at z = p**-s;
* the exact polynomial comparison of the two candidate local-factor
  numerators, P1 = k*(1-z)*(1-z^r) + z*(2-z^r) versus P2 = k*(1+z) - z^r
  (these agree identically only at k = 1 -- the report carries the
  coefficient difference vector). P1 comes from ``arith.local_factor_times``,
  which also gives ``hyperbola.h_numerators``, and P2 from the constants'
  ``coeffs.cofactor_numerator``;
* the Euler-product factorization: Dirichlet series == Euler product
  == zeta(s)**2 * closed-form cofactor.

The closed forms take a scalar or an array: ``euler_product_truncated`` runs
``local_factor_excess`` (the function ``local_factor_check`` validates) over
each piece of ``primes.prime_blocks``, so the check covers the code that forms
the product.

One partial-sum check serves both series identities: it sums
offset + (1/k) * sum_{a<=A} (ceil(a/r)+1) z^a and bounds its tail and
round-off, at offset 0 and k = 1 for the power series and at offset 1 for the
local factor.

The truncated series and the log of the truncated product are each one call
of ``xsum.split_sums``, which rounds the exact sum of the float terms once, so
each round-off allowance needs one rounding for the sum on top of those of
the terms. The series is formed and summed one piece of ``sieve.value_blocks``
at a time, and the product one piece of ``primes.prime_blocks`` at a time, so
their memory grows with neither the series length nor the prime cutoff. A
long walk is split into interleaved parts over processes; the exact sums
merge into the serial walk's bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import zip_longest

import numpy as np

from .arith import ArithParams, local_factor_times, max_omega, minpow_divisor_counts
from .coeffs import cofactor_numerator, cofactor_value
from .errors import ConfigError
from .primes import prime_blocks
from .sieve import _require_budget, value_blocks
from .xsum import split_sums
from .zeta import EPS, expm1_or_inf, power_tails, zeta

__all__ = [
    "VerifyReport",
    "dirichlet_series_truncated",
    "euler_product_truncated",
    "global_factorization_check",
    "power_series_closed_form",
    "power_series_check",
    "local_factor",
    "local_factor_check",
    "local_factor_excess",
    "numerator_identity_check",
    "run_battery",
]

BATTERY_Z = (0.1, 0.3, 0.5, 0.9)  # power-series arguments z in the battery
BATTERY_PRIMES = (2, 3, 5, 101)  # primes whose local factor the battery checks
BATTERY_SIZE = 10**5  # default series length and prime cutoff of the factorization check
NUMERATOR_BYTES = 560  # per numerator coefficient: `verify --format json` peaks at 526 MiB at r = 1e6


@dataclass(frozen=True)
class VerifyReport:
    """One identity comparison: passed is exactly |lhs - rhs| <= bound."""

    identity: str
    params: dict
    lhs: float
    rhs: float
    bound: float
    notes: str = ""
    details: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.gap <= self.bound


# ---------------------------------------------------------------------------
# power-series identity


def power_series_closed_form(r: int, z):
    """z*(2 - z**r) / ((1 - z) * (1 - z**r)) for |z| < 1, r >= 1.

    ``z`` is a float or an array of floats; a float gives a float.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.abs(z) < 1.0):
        raise ConfigError(f"|z| must be < 1, got z={z}")
    if r < 1:
        raise ConfigError(f"r must be >= 1, got {r}")
    zr = z**r
    value = z * (2.0 - zr) / ((1.0 - z) * (1.0 - zr))
    return value if value.ndim else float(value)


def _partial_sum(r: int, z: float, k: float, offset: float, rhs: float,
                 terms: int) -> tuple[float, float]:
    """offset + (1/k) * sum_{a <= terms} (ceil(a/r)+1) z^a, and its bound against ``rhs``.

    The bound is the series tail past ``terms`` plus a round-off allowance. At
    k = 1 and offset 0 the division and the added offset are exact.
    """
    if terms < 1:
        raise ConfigError(f"terms must be >= 1, got {terms}")
    c = minpow_divisor_counts(r, terms + 1)
    parts = [c[a] * z**a / k for a in range(1, terms + 1)]
    fp = 4.0 * EPS * (offset + math.fsum(abs(t) for t in parts) + abs(rhs))
    # sum_{a > A} (a+1) |z|^a = |z|^(A+1) * ((A+2) - (A+1)|z|) / (1-|z|)^2,
    # and every coefficient ceil(a/r)+1 is at most a+1
    a = abs(z)
    m = terms + 1
    tail = a**m * ((m + 1) - m * a) / (1.0 - a) ** 2
    return offset + math.fsum(parts), tail / k + fp


def power_series_check(r: int, z: float, terms: int = 200) -> VerifyReport:
    """Partial sum of (ceil(a/r)+1) z^a against the closed form."""
    rhs = power_series_closed_form(r, z)
    lhs, bound = _partial_sum(r, z, k=1.0, offset=0.0, rhs=rhs, terms=terms)
    return VerifyReport(
        "power_series_closed_form",
        {"r": r, "z": z, "terms": terms},
        lhs,
        rhs,
        bound,
        notes=f"{terms}-term partial sum vs rational closed form",
    )


# ---------------------------------------------------------------------------
# local factor


def local_factor_excess(p, s: float, params: ArithParams):
    """L_p(s) - 1 evaluated without cancellation: (1/k) * z(2-z^r)/((1-z)(1-z^r)).

    ``p`` is a prime or an array of primes, with z = p**-s; a scalar gives a float.
    """
    if not s > 0:
        raise ConfigError(f"s must be positive, got {s}")
    z = np.asarray(p, dtype=np.float64) ** -s
    return power_series_closed_form(params.r, z) / float(params.k)


def local_factor(p: float, s: float, params: ArithParams) -> float:
    """The per-prime factor of the generating Dirichlet series."""
    return 1.0 + local_factor_excess(p, s, params)


def local_factor_check(p: float, s: float, params: ArithParams, terms: int = 200) -> VerifyReport:
    """Closed-form local factor against its defining partial sum."""
    rhs = local_factor(p, s, params)  # rejects s <= 0 before p**-s can overflow
    z = float(p) ** -s
    lhs, bound = _partial_sum(params.r, z, k=float(params.k), offset=1.0, rhs=rhs, terms=terms)
    return VerifyReport(
        "local_factor_series",
        {"r": params.r, "k": params.k, "p": p, "s": s, "terms": terms},
        lhs,
        rhs,
        bound,
    )


# ---------------------------------------------------------------------------
# numerator polynomial comparison (exact arithmetic)


def numerator_identity_check(params: ArithParams) -> VerifyReport:
    """Exact coefficient comparison of the two candidate numerators.

    P1 is the true local factor's numerator over (1-z)(1-z^r): that kernel
    times k * F_p(z), a polynomial of degree r+1. P2 is the numerator of the
    cofactor's local factor. The report carries the per-degree difference
    vector; no tolerance is involved. A gap past the double range reads inf.
    An r past the memory budget, at NUMERATOR_BYTES each, raises ResourceError.
    """
    r = params.r
    _require_budget((r + 2) * NUMERATOR_BYTES, f"the numerator check at r = {r}",
                    f"{NUMERATOR_BYTES} B per coefficient, its document included")
    k = Fraction(params.k)  # exact for integer k and for any binary float
    p1 = local_factor_times((1, -1, *[0] * (r - 2), -1, 1), r, k, r + 2)
    p2 = cofactor_numerator(r, k)
    diff = [a - b for a, b in zip_longest(p1, p2, fillvalue=0)]
    max_gap = max(abs(c) for c in diff)  # about 2k, which can pass the double range
    details = {
        "direct_numerator": p1,
        "factored_numerator": p2,
        "coefficient_diff": diff,
    }
    return VerifyReport(
        "numerator_identity",
        {"r": r, "k": params.k},
        float(max_gap) if max_gap <= sys.float_info.max else math.inf,
        0.0,
        0.0,
        notes="exact coefficient expansion; lhs is the largest |difference|",
        details=details,
    )


# ---------------------------------------------------------------------------
# Euler-product factorization


def dirichlet_series_truncated(params: ArithParams, s: float, limit: int) -> tuple[float, float]:
    """sum_{n <= N} value(n) * n**-s and a rigorous tail bound.

    The tail uses value(n) <= d(n) and sum_{n <= x} d(n) <= x*(ln x + 1),
    which after partial summation gives tail <= s * (I0 + I1), with I0 and
    I1 the integrals of ``power_tails`` at N and s. Each piece's n**-s is a
    new array of its length. Past 2 * ``xsum.MIN_PART`` integers the
    segments of ``value_blocks`` are split over processes, and the sum keeps
    the bits of one walk.
    """
    if not s > 1.0:
        raise ConfigError(f"series tail bound needs s > 1, got {s}")
    k_pows = np.power(float(params.k), -np.arange(max_omega(limit) + 1.0))

    def term(piece: tuple[int, np.ndarray, np.ndarray]) -> np.ndarray:
        # (counts * k**-omega) * n**-s
        lo, counts, omegas = piece
        n_s = np.arange(lo, lo + counts.size, dtype=np.float64)
        terms = k_pows[omegas.astype(np.intp)]  # an intp index gathers in half the time of int8
        terms *= counts
        terms *= np.power(n_s, -s, out=n_s)
        return terms

    (value,) = split_sums(partial(value_blocks, params, limit), limit, term)
    fp = 8.0 * EPS * value
    return value, s * sum(power_tails(limit, s)) + fp


def euler_product_truncated(params: ArithParams, s: float, cutoff: int) -> tuple[float, float]:
    """prod_{p <= P} L_p(s) and a rigorous bound for the dropped factors.

    ln L_p <= (2/k) * p**-s / ((1-2**-s)(1-2**(-r*s))) = c * p**-s, so the
    dropped log-mass is at most c times I0 of ``power_tails`` at P and s.
    Past 2 * ``xsum.MIN_PART`` odd slots the walk over ``prime_blocks`` is
    split over processes, and the log-sum keeps the bits of one walk.
    """
    if not s > 1.0:
        raise ConfigError(f"product tail bound needs s > 1, got {s}")
    r, k = params.r, float(params.k)
    (log_sum,) = split_sums(partial(prime_blocks, cutoff), cutoff // 2,
                            lambda ps: np.log1p(local_factor_excess(ps, s, params)))
    value = math.exp(log_sum)
    c = (2.0 / k) / ((1.0 - 2.0**-s) * (1.0 - 2.0 ** (-r * s)))
    tail_log = c * power_tails(cutoff, s)[0]
    fp = 16.0 * EPS * abs(value)
    return value, abs(value) * expm1_or_inf(tail_log) + fp


def _check_factorization_inputs(s: float, limit: int, cutoff: int) -> None:
    """ConfigError unless 1.5 <= s < inf and the series length and the prime cutoff are >= 1000."""
    if not 1.5 <= s < math.inf:
        raise ConfigError(f"s must be finite and >= 1.5 for controllable tails, got {s}")
    if limit < 10**3 or cutoff < 10**3:
        raise ConfigError("series length and prime cutoff must both be >= 1000")


def global_factorization_check(s: float, params: ArithParams, limit: int, cutoff: int) -> VerifyReport:
    """Three-way comparison: series vs local product vs closed-form factorization.

    lhs/rhs/bound and ``passed`` cover series-vs-product (the definitional
    route). The closed-form route zeta(s)**2 * H(s) is reported alongside in
    ``details`` with its own combined bound; the verifier records the gap
    without asserting which side is right when they disagree.
    """
    _check_factorization_inputs(s, limit, cutoff)
    series, series_tail = dirichlet_series_truncated(params, s, limit)
    product, product_tail = euler_product_truncated(params, s, cutoff)
    zs = zeta(s)
    h, h_tail = cofactor_value(s, params, cutoff)
    closed = zs.value**2 * h
    closed_bound = closed * (2.0 * zs.error_radius / zs.value + h_tail / abs(h) + 8.0 * EPS)
    gap_closed = series - closed
    bound_closed = series_tail + closed_bound
    details = {
        "series": series,
        "series_tail": series_tail,
        "euler_product": product,
        "product_tail": product_tail,
        "closed_form": closed,
        "closed_form_bound": closed_bound,
        "closed_form_gap": gap_closed,
        "closed_form_combined_bound": bound_closed,
        "closed_form_within_bound": bool(abs(gap_closed) <= bound_closed),
    }
    return VerifyReport(
        "global_factorization",
        {"r": params.r, "k": params.k, "s": s, "N": limit, "P": cutoff},
        series,
        product,
        series_tail + product_tail,
        notes="lhs: truncated Dirichlet series; rhs: truncated local product; "
        "closed-form route recorded in details",
        details=details,
    )


# ---------------------------------------------------------------------------
# battery


def run_battery(
    params: ArithParams,
    s: float = 2.0,
    limit: int = BATTERY_SIZE,
    cutoff: int = BATTERY_SIZE,
) -> list[VerifyReport]:
    """The standard identity battery for one parameter pair, in a fixed order."""
    _check_factorization_inputs(s, limit, cutoff)
    numerator = numerator_identity_check(params)  # before the walks: it refuses an r past the budget
    glob = global_factorization_check(s, params, limit=limit, cutoff=cutoff)
    reports = [power_series_check(params.r, z) for z in BATTERY_Z]
    reports += [local_factor_check(p, s, params) for p in BATTERY_PRIMES]
    return reports + [numerator, glob]

