"""Exact evaluation of multiplicative arithmetic functions on factored integers.

Everything here works on explicit prime factorizations, so each function is a
finite product over prime powers:

* ``divisor_count`` -- number of positive divisors, prod (a_i + 1).
* ``omega`` -- number of distinct prime factors.
* ``minimal_power`` -- the least m with n | m**r; at a prime power p**a this
  is p**ceil(a/r), and the function is multiplicative.
* ``weighted_divisor`` -- d(n) / k**omega(n), damping integers with many
  distinct prime factors.
* ``composite_weighted_divisor`` -- the weighted divisor count of the minimal
  power, the arithmetic function whose mean value the rest of the package
  studies.
* ``local_factor_times`` -- the exact power-series coefficients of the
  studied function's local factor times a polynomial kernel.

Values are exact ``Fraction``s whenever the weight k is an integer (their
denominators divide k**omega(n)); for non-integer k a float is returned,
formed from one pow and one division.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import ConfigError

__all__ = [
    "MAX_FACTOR_INPUT",
    "ArithParams",
    "ExactValue",
    "PrimeFactorization",
    "composite_weighted_divisor",
    "divisor_count",
    "factorize",
    "local_factor_times",
    "max_omega",
    "minimal_power",
    "minpow_divisor_counts",
    "omega",
    "weighted_divisor",
]

MAX_FACTOR_INPUT = 2**63 - 1

#: Exact rational when the weight is an integer, float otherwise.
ExactValue = Union[Fraction, float]


@dataclass(frozen=True)
class PrimeFactorization:
    """A positive integer as an ordered tuple of (prime, exponent) pairs.

    The empty tuple represents 1. Primes must be strictly increasing and
    exponents at least 1; primality itself is guaranteed by ``factorize``,
    which is the intended constructor.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 1
        for p, a in self.factors:
            if p <= last:
                raise ValueError(f"primes not strictly increasing at {p}")
            if a < 1:
                raise ValueError(f"exponent {a} < 1 for prime {p}")
            last = p

    @property
    def value(self) -> int:
        """The represented integer."""
        n = 1
        for p, a in self.factors:
            n *= p**a
        return n

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


def _check_weight(k) -> None:
    """Reject a divisor weight k that is below 1 or not finite."""
    if not k >= 1:
        raise ConfigError(f"k must be >= 1, got {k!r}")
    if not math.isfinite(k):
        raise ConfigError(f"k must be finite, got {k!r}")


@dataclass(frozen=True)
class ArithParams:
    """The (r, k) pair: power order r >= 2, whose float is finite, and finite divisor weight k >= 1."""

    r: int
    k: float

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or self.r < 2:
            raise ConfigError(f"r must be an integer >= 2, got {self.r!r}")
        try:
            float(self.r)  # the constants take r as a float
        except OverflowError:
            raise ConfigError(f"r must have a finite float, got an r of {self.r.bit_length()} bits") from None
        _check_weight(self.k)

    @property
    def exact(self) -> bool:
        """True when k is an integer, enabling exact rational arithmetic."""
        return float(self.k).is_integer()


def factorize(n: int) -> PrimeFactorization:
    """Factor n by deterministic trial division.

    Accepts 1 <= n <= 2**63 - 1. Divides by 2 and then by the odd numbers,
    so a factor near 1e6 takes about half a million trial divisions and
    worst-case inputs (products of two ~31-bit primes) are slow but correct.
    """
    if not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {type(n).__name__}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n > MAX_FACTOR_INPUT:
        raise ValueError(f"n={n} exceeds the supported range 2**63 - 1")

    m = n
    out: list[tuple[int, int]] = []
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > m:
            break
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
    if m > 1:
        out.append((m, 1))
    return PrimeFactorization(tuple(out))


def max_omega(limit: int) -> int:
    """The largest omega(n) over 1 <= n <= limit: the w with 2 * 3 * ... * p_w <= limit."""
    w, primorial = 0, 1
    for p in itertools.count(2):
        if factorize(p).factors != ((p, 1),):
            continue  # not a prime
        if primorial * p > limit:
            return w
        w, primorial = w + 1, primorial * p


def divisor_count(f: PrimeFactorization) -> int:
    """Number of positive divisors: prod of (exponent + 1)."""
    d = 1
    for _, a in f:
        d *= a + 1
    return d


def omega(f: PrimeFactorization) -> int:
    """Number of distinct prime factors."""
    return len(f.factors)


def minimal_power(f: PrimeFactorization, r: int) -> PrimeFactorization:
    """Factorization of the least m such that the represented n divides m**r.

    Each exponent a becomes ceil(a/r). Multiplicative in n. r = 1 is allowed
    (identity map) so oracle comparisons can include it, even though the
    asymptotic theory elsewhere requires r >= 2.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"r must be an integer >= 1, got {r!r}")
    return PrimeFactorization(tuple((p, -(-a // r)) for p, a in f))


def minpow_divisor_counts(r: int, size: int) -> list[int]:
    """d(minimal power of p**a) = ceil(a/r) + 1 for a = 0, 1, ..., size - 1.

    These are the prime-power values of the studied function before the
    weight, and the coefficients of the local factor's power series in p**-s.
    """
    return [-(-a // r) + 1 for a in range(size)]


def local_factor_times(kernel: Sequence, r: int, k, size: int) -> list:
    """Coefficients of z**0 .. z**(size - 1) in kernel(z) * k * F_p(z), exactly.

    k * F_p(z) = k + sum_{a >= 1} (ceil(a/r) + 1) * z**a is the scaled local
    factor at z = p**-s; ``kernel`` lists a polynomial's coefficients from
    degree 0. An int or Fraction k and kernel give ints or Fractions. The
    work is size times the count of the kernel's nonzero coefficients.
    """
    series = [k, *minpow_divisor_counts(r, size)[1:]]
    nonzero = [(j, c) for j, c in enumerate(kernel) if c]
    return [sum(c * series[a - j] for j, c in nonzero if j <= a) for a in range(size)]


def weighted_divisor(f: PrimeFactorization, k: float) -> ExactValue:
    """d(n) / k**omega(n); exact Fraction for integer k, float otherwise."""
    _check_weight(k)
    d = divisor_count(f)
    w = omega(f)
    if float(k).is_integer():
        return Fraction(d, int(k) ** w)
    return d / float(k) ** w


def composite_weighted_divisor(f: PrimeFactorization, params: ArithParams) -> ExactValue:
    """Weighted divisor count of the minimal power of the represented integer.

    Multiplicative; at a prime power p**a the value is (ceil(a/r) + 1) / k.
    The weight exponent omega is taken on the minimal power, which has the
    same prime support as n, so it equals omega(n).
    """
    return weighted_divisor(minimal_power(f, params.r), params.k)
