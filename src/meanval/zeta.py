"""Riemann zeta and its derivative on the real axis s > 1, with error radii.

Both evaluators use Euler-Maclaurin summation with a fixed order of eight
Bernoulli correction terms:

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{j=1..8} B_{2j}/(2j)! * rf(s, 2j-1) * N^(-s-2j+1) + R

where rf is the rising factorial. The returned ``error_radius`` adds a proven
bound for R (the integral form of the remainder, |periodic Bernoulli| <=
|B_{2q}|) to an explicit allowance for float round-off, so it is a rigorous
enclosure radius rather than a convergence heuristic. The derivative follows
by differentiating every term, with the remainder integral bounded through
the Leibniz expansion of d^m/dx^m [ln(x) * x^-s]. The integral term and the
remainder integrals of both are ``power_tails``, which also bounds every
truncated sum in ``coeffs`` and ``verify``. Both evaluate once, at N = 16:
the radius there is already the round-off floor, within 0.1% of any larger N's.

The Euler-Mascheroni constant and the Glaisher-Kinkelin constant are stored
as 30+ digit literals; tests re-derive them from their defining limits. The
closed form relating the Glaisher-Kinkelin constant to zeta'(2) is provided
only as a cross-check -- the Euler-Maclaurin path is the authoritative one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "EPS",
    "EULER_GAMMA",
    "GLAISHER",
    "ZetaValue",
    "expm1_or_inf",
    "power_tails",
    "zeta",
    "zeta_prime",
    "zeta_prime_2_closed_form",
]

EULER_GAMMA = 0.57721566490153286060651209008240243104
GLAISHER = 1.28242712910062263687534256886979172777

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


@dataclass(frozen=True)
class ZetaValue:
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
    return base / d, base * (math.log(cutoff) / d + 1.0 / d**2)


def expm1_or_inf(x: float) -> float:
    """e**x - 1, the relative error of a product whose log is off by x; inf past exp's range."""
    return math.expm1(x) if x < 709.78 else math.inf


def _eval_zeta(s: float, cutoff: int) -> tuple[float, float]:
    pieces = [
        math.fsum(n**-s for n in range(1, cutoff)),
        power_tails(cutoff, s)[0],
        0.5 * cutoff**-s,
    ]
    for j in range(1, _ORDER + 1):
        pieces.append(
            _B2J[j - 1] / _FACT2J[j - 1] * _rising(s, 2 * j - 1) * cutoff ** (-s - 2 * j + 1)
        )
    value = math.fsum(pieces)
    # round-off: <= ~2 ulp per power evaluation across all contributions,
    # plus the exactly-rounded fsum; 8x covers it comfortably
    fp = 8 * EPS * math.fsum(abs(p) for p in pieces)
    # |R| <= |B_16|/16! * integral_N^inf |d^16/dx^16 x^-s| dx = |B_16|/16! * rf(s,16) * I0
    remainder = abs(_B2J[-1]) / _FACT2J[-1] * _rising(s, _Q2) * power_tails(cutoff, s + _Q2)[0]
    return value, remainder + fp


def _eval_zeta_prime(s: float, cutoff: int) -> tuple[float, float]:
    lnN = math.log(cutoff)
    pieces = [
        math.fsum(-math.log(n) * n**-s for n in range(2, cutoff)),
        -power_tails(cutoff, s)[1],
        -0.5 * lnN * cutoff**-s,
    ]
    for j in range(1, _ORDER + 1):
        rf = _rising(s, 2 * j - 1)
        dig = sum(1.0 / (s + i) for i in range(2 * j - 1))
        pieces.append(
            _B2J[j - 1] / _FACT2J[j - 1] * cutoff ** (-s - 2 * j + 1) * rf * (dig - lnN)
        )
    value = math.fsum(pieces)
    fp = 8 * EPS * math.fsum(abs(p) for p in pieces)
    # Leibniz: |d^16/dx^16 [ln(x) x^-s]| <= x^-s-16 (rf(s,16) ln x + c16), integrated as I1 and I0
    c16 = sum(math.comb(_Q2, i) * math.factorial(i - 1) * _rising(s, _Q2 - i)
              for i in range(1, _Q2 + 1))
    i0, i1 = power_tails(cutoff, s + _Q2)
    remainder = abs(_B2J[-1]) / _FACT2J[-1] * (_rising(s, _Q2) * i1 + c16 * i0)
    return value, remainder + fp


def _evaluate(s: float, min_s: float, kernel) -> ZetaValue:
    if not s >= min_s:
        raise ConfigError(f"s={s} below the supported range s >= {min_s}")
    return ZetaValue(*kernel(min(s, _FLAT_S), _SPLIT), s=s)


def zeta(s: float) -> ZetaValue:
    """zeta(s) for real s >= 1 + 1e-8 with |value - zeta(s)| <= error_radius."""
    return _evaluate(s, _MIN_S, _eval_zeta)


def zeta_prime(s: float) -> ZetaValue:
    """zeta'(s) for real s >= 1 + 1e-6 with |value - zeta'(s)| <= error_radius."""
    return _evaluate(s, _MIN_S_PRIME, _eval_zeta_prime)


def zeta_prime_2_closed_form() -> float:
    """zeta'(2) via the Glaisher-Kinkelin constant; cross-check only.

    zeta'(2) = (pi**2 / 6) * (gamma + ln(2*pi) - 12*ln(lambda)).
    """
    return (math.pi**2 / 6.0) * (
        EULER_GAMMA + math.log(2.0 * math.pi) - 12.0 * math.log(GLAISHER)
    )
