"""Riemann zeta and its derivative on the real axis s > 1, with error radii.

One Euler-Maclaurin pass, with a fixed order of eight Bernoulli correction
terms, gives both values:

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{j=1..8} B_{2j}/(2j)! * rf(s, 2j-1) * N^(-s-2j+1) + R

where rf is the rising factorial. Each piece is formed once, next to its
s-derivative, the corresponding piece of zeta'(s). Each returned
``error_radius`` adds a proven bound for its remainder to an explicit
allowance for float round-off, so it is a rigorous enclosure radius rather
than a convergence heuristic. R is bounded through its integral form
(|periodic Bernoulli| <= |B_{2q}|), and the remainder of zeta' through the
Leibniz expansion of d^m/dx^m [ln(x) * x^-s]. The integral term and the
remainder integrals of both are ``power_tails``, which also bounds every
truncated sum in ``coeffs`` and ``verify``. The pass runs once, at N = 16:
the radius there is already the round-off floor, within 0.1% of any larger
N's.

The Euler-Mascheroni constant is stored as a 30+ digit literal; tests
re-derive it from its defining limit.
"""

import math
from typing import NamedTuple

from .errors import ConfigError

__all__ = [
    "EPS",
    "EULER_GAMMA",
    "ZetaValue",
    "expm1_or_inf",
    "power_tails",
    "zeta",
    "zeta_prime",
]

EULER_GAMMA = 0.57721566490153286060651209008240243104

EPS = math.ulp(1.0)  # machine epsilon, the unit of every round-off allowance in the package
_ORDER = 8  # Bernoulli terms B_2 .. B_16
_Q2 = 2 * _ORDER  # the remainder's order of differentiation
_B2J = (
    1.0 / 6.0,             # B_2
    -1.0 / 30.0,           # B_4
    1.0 / 42.0,            # B_6
    -1.0 / 30.0,           # B_8
    5.0 / 66.0,            # B_10
    -691.0 / 2730.0,       # B_12
    7.0 / 6.0,             # B_14
    -3617.0 / 510.0,       # B_16
)
_FACT2J = tuple(math.factorial(2 * j) for j in range(1, _ORDER + 1))

_MIN_S = 1.0 + 1e-8
_MIN_S_PRIME = 1.0 + 1e-6
_SPLIT = 16  # the Euler-Maclaurin split point N
# past s = 2048 every term but 1 is below the smallest double, so the
# evaluation there stands for every larger s, where rf(s, 16) would overflow
_FLAT_S = 2048.0


class ZetaValue(NamedTuple):
    """An evaluation with a rigorous enclosure: |value - truth| <= error_radius."""

    value: float
    error_radius: float
    s: float


def _rising(s: float, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= s + i
    return out


def power_tails(cutoff: int, sigma: float) -> tuple[float, float]:
    """(I0, I1) = the integrals of t**-sigma * (ln t)**j over t >= P = cutoff, for sigma > 1.

    Where the integrand decreases on [P, inf), as it does for j = 0 and for j = 1 once
    sigma*ln P >= 1, I_j bounds sum_{n > P} n**-sigma * (ln n)**j: the one integral
    comparison behind every bound on a cut-off sum in the package.
    """
    base, d = cutoff ** (1.0 - sigma), sigma - 1.0
    if base == 0.0:  # both are 0, where 1/d**2 may overflow
        return 0.0, 0.0
    return base / d, base * (math.log(cutoff) / d + 1.0 / d**2)


def expm1_or_inf(x: float) -> float:
    """e**x - 1, the relative error of a product whose log is off by x; inf past exp's range."""
    return math.expm1(x) if x < 709.78 else math.inf


def _euler_maclaurin(s: float, cutoff: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """((zeta(s), radius), (zeta'(s), radius)) from one Euler-Maclaurin pass split at N = cutoff.

    Each piece of zeta's formula is formed once, with its s-derivative next to it.
    """
    ln_n = math.log(cutoff)
    powers = [n**-s for n in range(1, cutoff)]
    i0, i1 = power_tails(cutoff, s)
    pieces = [
        (math.fsum(powers), math.fsum(-math.log(n) * x for n, x in enumerate(powers[1:], 2))),
        (i0, -i1),
        (0.5 * cutoff**-s, -0.5 * ln_n * cutoff**-s),
    ]
    for j in range(1, _ORDER + 1):
        t = _B2J[j - 1] / _FACT2J[j - 1] * _rising(s, 2 * j - 1) * cutoff ** (-s - 2 * j + 1)
        dig = sum(1.0 / (s + i) for i in range(2 * j - 1))  # d/ds ln rf(s, 2j - 1)
        pieces.append((t, t * (dig - ln_n)))
    # |R| <= |B_16|/16! * integral_N^inf |d^16/dx^16 x^-s| dx = |B_16|/16! * rf(s,16) * I0, and
    # by Leibniz |d^16/dx^16 [ln(x) x^-s]| <= x^-s-16 (rf(s,16) ln x + c16), integrated as I1 and I0
    c16 = sum(math.comb(_Q2, i) * math.factorial(i - 1) * _rising(s, _Q2 - i)
              for i in range(1, _Q2 + 1))
    r0, r1 = power_tails(cutoff, s + _Q2)
    scale, rf16 = abs(_B2J[-1]) / _FACT2J[-1], _rising(s, _Q2)
    remainders = (scale * rf16 * r0, scale * (rf16 * r1 + c16 * r0))
    # round-off: <= ~2 ulp per power evaluation across all contributions,
    # plus the exactly-rounded fsum; 8x covers it comfortably
    return tuple(
        (math.fsum(column), remainder + 8 * EPS * math.fsum(abs(p) for p in column))
        for column, remainder in zip(zip(*pieces), remainders)
    )


def _evaluate(s: float, min_s: float, j: int) -> ZetaValue:
    if not s >= min_s:
        raise ConfigError(f"s={s} below the supported range s >= {min_s}")
    return ZetaValue(*_euler_maclaurin(min(s, _FLAT_S), _SPLIT)[j], s=s)


def zeta(s: float) -> ZetaValue:
    """zeta(s) for real s >= 1 + 1e-8 with |value - zeta(s)| <= error_radius."""
    return _evaluate(s, _MIN_S, 0)


def zeta_prime(s: float) -> ZetaValue:
    """zeta'(s) for real s >= 1 + 1e-6 with |value - zeta'(s)| <= error_radius."""
    return _evaluate(s, _MIN_S_PRIME, 1)
