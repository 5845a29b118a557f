"""Constants of the asymptotic main term, from truncated Euler products.

The mean value of the studied function grows like C * x * ln(x) + K * x. Both
coefficients come from the analytic cofactor

    H(s) = zeta(r*s)/zeta(2*s) * prod_p (1 - 1/(k * (p**(r*s) + p**((r-1)*s))))

through C = H(1) (using zeta(2) = pi^2/6) and K = H'(1) + (2*gamma - 1) * C.
Products are truncated at a prime cutoff P and every returned value carries a
rigorous tail bound: the dropped log-factors and prime-sum terms are at most
multiples of n**(-r*s) and of ln(n)*n**(-r), whose sums past P are ``zeta.power_tails``.

The logarithmic derivative of H needs, per prime, the s-derivative of
ln(1 - 1/(k*(p**(r*s) + p**((r-1)*s)))) at s = 1.  With u = k*(p**r + p**(r-1))
and u' = k*ln(p)*(r*p**r + (r-1)*p**(r-1)) that derivative is u'/(u*(u-1)).
The kernels evaluate these through negative powers of p, which underflow to
0 for large r*s instead of overflowing; the one positive power, p**s in x_p,
may overflow to inf, which makes x_p 0.
Because this closed form was derived by hand, it is gated: every use replays
it against central finite differences of the log-factor at a handful of primes
and refuses to proceed on disagreement. The gate calls the same array kernels
(``_log_factors`` and ``log_factor_derivative``) that the product and the
prime sum run over all primes, so it checks the code that does the work.

The sums over primes (the log-product and the prime sum) are correctly
rounded, through ``xsum.ExactSum``, so their round-off is one rounding each.
They take the primes one block of ``prime_blocks`` at a time, and the exact
sum does not depend on the blocks, so no array of all pi(P) primes is held;
``bundle`` and ``cofactor_value`` each make one such walk. For the same
reason a long walk is split into interleaved parts, one per CPU, whose sums
merge into the serial walk's bits (``xsum.split_sums``).

``bundle`` forms every s = 1 quantity once: one walk over the prime blocks
feeds both prime sums, and the product, zeta and zeta' at r and at 2, and
H(1) follow from them. ``leading_coefficient`` and
``cofactor_derivative_at_1`` are its two steps and take those as inputs;
``cofactor_value`` is H(s) at any s > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import ArithParams, ExactValue
from .errors import ConfigError, ToleranceError
from .primes import prime_blocks
from .xsum import ExactSum, split_sums
from .zeta import EPS, EULER_GAMMA, ZetaValue, expm1_or_inf, power_tails, zeta, zeta_prime

__all__ = [
    "ConstantsBundle",
    "bundle",
    "cofactor_numerator",
    "cofactor_value",
    "log_factor_derivative",
]

DEFAULT_PRIME_CUTOFF = 10**6

_GATE_STEP = 1e-6
_GATE_TOL = 1e-8
_GATE_PRIMES = (2, 3, 5, 101)


def _prime_sums(cutoff: int, *terms) -> tuple[ExactSum, ...]:
    """For each function in ``terms``, the exact sum of its values over the primes <= cutoff.

    Each term takes an array of primes as float64. One walk over the blocks
    of ``prime_blocks`` feeds every sum, split over processes by
    ``xsum.split_sums``, which does not change a bit of them.
    """
    def walk(part: int, parts: int) -> tuple[ExactSum, ...]:
        sums = tuple(ExactSum() for _ in terms)
        for block in prime_blocks(cutoff, part, parts):
            ps = block.astype(np.float64)
            for acc, term in zip(sums, terms):
                acc.add(term(ps))
        return sums

    return split_sums(walk, cutoff // 2)


def _factor_term(p, s: float, params: ArithParams):
    """x_p = 1/(k*(p**(r*s) + p**((r-1)*s))), as p**(-(r-1)*s)/(k*(p**s + 1)).

    ``p`` is a float64 or an array of them. A p**s past the double range
    becomes inf, which gives x_p = 0, its value to double precision.
    """
    r, k = params.r, float(params.k)
    with np.errstate(over="ignore"):
        return p ** (-(r - 1) * s) / (k * (p**s + 1.0))


def cofactor_numerator(r: int, k) -> list:
    """Coefficients of k*(1 + z) - z**r from degree 0, for r >= 2 and an int or Fraction k.

    The numerator of the cofactor's local factor: 1 - x_p = that / (k*(1 + z))
    at z = p**-s, for the x_p of ``_factor_term``.
    """
    return [k, k, *[0] * (r - 2), -1]


def _log_factors(ps: np.ndarray, s: float, params: ArithParams) -> np.ndarray:
    """ln(1 - x_p) for each prime in ps, with x_p from ``_factor_term``."""
    return np.log1p(-_factor_term(ps, s, params))


def _product_factors(s: float, params: ArithParams, log_prod: float, cutoff: int) -> tuple[float, float]:
    """(log, tail bound) of the truncated product, whose log ``log_prod`` is
    the sum of ``_log_factors`` over the primes p <= cutoff.

    Tail: each dropped -ln(1 - x_p) with x_p = 1/(k*(p**(r*s)+p**((r-1)*s)))
    is at most x_p/(1 - x_P) <= n**(-r*s)/(k*(1 - x_P)) summed over n > P,
    that is, I0 of ``power_tails`` at r*s over k*(1 - x_P).
    """
    if cutoff < 2:
        raise ConfigError(f"prime cutoff must be >= 2, got {cutoff}")
    r, k = params.r, float(params.k)
    x_at_cut = float(_factor_term(np.float64(cutoff), s, params))
    return log_prod, power_tails(cutoff, r * s)[0] / (k * (1.0 - x_at_cut))


def cofactor_value(s: float, params: ArithParams,
                   cutoff: int = DEFAULT_PRIME_CUTOFF) -> tuple[float, float]:
    """H(s) from the truncated product; returns (value, rigorous tail bound).

    Defined for s > 1/2, where r*s and 2*s stay inside the zeta evaluator's
    range. The bound covers the dropped prime factors, both zeta radii and
    float round-off, and is inf where the tail's log is past exp's range.
    The log-product is one walk over the prime blocks, split over processes
    past 2 * ``xsum.MIN_PART`` odd slots with the same bits as one.
    """
    if not s > 0.5:
        raise ConfigError(f"s={s} not in the analytic region s > 1/2")
    (log_sum,) = _prime_sums(cutoff, lambda ps: _log_factors(ps, s, params))
    product = _product_factors(s, params, log_sum.value(), cutoff)
    return _cofactor(product, zeta(params.r * s), zeta(2 * s))


def _cofactor(product: tuple[float, float], zr: ZetaValue, z2: ZetaValue) -> tuple[float, float]:
    """H(s) and its bound from the truncated product's (log, tail bound), zeta(r*s) and zeta(2*s)."""
    log_prod, tail_log = product
    value = zr.value / z2.value * math.exp(log_prod)
    rel = (
        expm1_or_inf(tail_log)
        + zr.error_radius / abs(zr.value)
        + z2.error_radius / abs(z2.value)
        + 64.0 * EPS
    )
    return value, abs(value) * rel


def leading_coefficient(
    product: tuple[float, float], zr: ZetaValue, h1: tuple[float, float]
) -> tuple[float, float]:
    """C = 6*zeta(r)/pi**2 * truncated product at s = 1, with tail bound.

    ``product`` is the s = 1 product's (log, tail bound), ``zr`` is zeta(r),
    and ``h1`` is H(1) = zeta(r)/zeta(2) * the same product, with its bound.
    The two routes are numerically identical (zeta(2) = pi^2/6) and are
    cross-asserted to a few ulps.
    """
    log_prod, tail_log = product
    value = 6.0 * zr.value / math.pi**2 * math.exp(log_prod)
    rel = math.expm1(tail_log) + zr.error_radius / abs(zr.value) + 64.0 * EPS
    tail = abs(value) * rel
    h, h_tail = h1
    if abs(h - value) > 1e-11 * abs(value) + h_tail + tail:
        raise ToleranceError(
            f"leading coefficient {value!r} disagrees with cofactor at 1 {h!r}"
        )
    return value, tail


def log_factor_derivative(ps, params: ArithParams) -> np.ndarray:
    """d/ds ln(1 - 1/(k*(p**(r*s) + p**((r-1)*s)))) at s = 1, in closed form, for each p in ps.

    ``ps`` is a prime or an array of primes, taken as float64. With
    a = p**-(r-1) and q = p + 1, u = k*q/a and u' = k*ln(p)*(r*p + r - 1)/a, so
    u'/(u*(u-1)) = ln(p)*(r*p + r - 1)*a/(q*(k*q - a)), which has no positive
    power of p to overflow.
    """
    r, k = params.r, float(params.k)
    ps = np.asarray(ps, dtype=np.float64)
    a = ps ** -(r - 1)
    q = ps + 1.0
    return np.log(ps) * (r * ps + (r - 1)) * a / (q * (k * q - a))


def _gate_log_factor_derivative(params: ArithParams) -> None:
    """Replay the closed form against finite differences; raise on disagreement."""
    h = _GATE_STEP
    ps = np.array(_GATE_PRIMES, dtype=np.float64)
    fd = (_log_factors(ps, 1.0 + h, params) - _log_factors(ps, 1.0 - h, params)) / (2.0 * h)
    gap = log_factor_derivative(ps, params) - fd
    bad = np.flatnonzero(np.abs(gap) > _GATE_TOL)
    if bad.size:
        i = bad[0]
        raise ToleranceError(
            f"per-prime derivative gate failed at p={_GATE_PRIMES[i]}, r={params.r}, "
            f"k={params.k}: closed form is off by {float(gap[i])!r} from the finite "
            f"difference {float(fd[i])!r}"
        )


def cofactor_derivative_at_1(
    params: ArithParams,
    prime_sum: float,
    cutoff: int,
    h1: tuple[float, float],
    at_r: tuple[ZetaValue, ZetaValue],
    at_2: tuple[ZetaValue, ZetaValue],
) -> tuple[float, float]:
    """H'(1) = H(1) * (r*zeta'(r)/zeta(r) - 2*zeta'(2)/zeta(2) + prime sum).

    ``prime_sum`` is the sum of ``log_factor_derivative`` over the primes <=
    cutoff, which ``bundle`` forms after the gate has passed that kernel;
    ``h1`` is H(1) with its bound, and ``at_r`` and ``at_2`` are (zeta,
    zeta') at r and at 2. The prime sum's tail is bounded through
    |g_p| <= r*ln(p)/(k*p**r - 1) and I1 of ``power_tails`` at r. Returns
    (value, rigorous tail bound).
    """
    r, k = params.r, float(params.k)
    h1, h1_tail = h1
    (zr, zrp), (z2, z2p) = at_r, at_2
    log_deriv = r * zrp.value / zr.value - 2.0 * z2p.value / z2.value + prime_sum
    value = h1 * log_deriv

    # tail of the prime sum: sum_{n > P} r*ln(n)/(k*n**r - 1)
    shrink = 1.0 - float(cutoff) ** -r / k
    gp_tail = r / (k * shrink) * power_tails(cutoff, r)[1]

    def _ratio_err(num: ZetaValue, den: ZetaValue) -> float:
        return num.error_radius / abs(den.value) + abs(num.value) * den.error_radius / den.value**2

    log_deriv_err = r * _ratio_err(zrp, zr) + 2.0 * _ratio_err(z2p, z2) + gp_tail
    tail = abs(h1) * log_deriv_err + abs(log_deriv) * h1_tail + 64.0 * EPS * abs(value)
    return value, tail


@dataclass(frozen=True)
class ConstantsBundle:
    """Main-term constants for one (r, k), each with a rigorous tail bound.

    ``x_coeff`` is assembled as pole_coeff - leading so the three constants
    stay bit-consistent; it agrees with cofactor_deriv + (2*gamma-1)*leading
    to round-off.
    """

    params: ArithParams
    prime_cutoff: int
    leading: float          # coefficient of x*ln(x), = H(1)
    cofactor_deriv: float   # H'(1)
    pole_coeff: float       # coefficient of the simple pole: H'(1) + 2*gamma*H(1)
    x_coeff: float          # coefficient of x: pole_coeff - leading
    tail_bounds: dict[str, float]

    def main_term(self, x: float) -> float:
        """C * x * ln(x) + K * x."""
        return self.leading * x * math.log(x) + self.x_coeff * x

    def residual(self, s: ExactValue, main: float) -> float:
        """S(x) - main, with main = main_term(x) as the caller formed it, in
        rationals and rounded once.

        For a float ``s`` this is bit-identical to the double ``s - main``;
        for an exact ``s`` nothing is lost to cancellation.
        """
        return float(Fraction(s) - Fraction(main))

def bundle(
    params: ArithParams, cutoff: int = DEFAULT_PRIME_CUTOFF
) -> ConstantsBundle:
    """Assemble all main-term constants at one prime cutoff, in one pass at s = 1.

    One walk over the prime blocks feeds the s = 1 log-product and the prime
    sum; past 2 * ``xsum.MIN_PART`` odd slots it is split over processes,
    which leaves every bit of both sums as it is. The product, zeta and zeta'
    at r and at 2, and H(1) are each formed once here;
    ``leading_coefficient`` and ``cofactor_derivative_at_1`` take them as
    inputs.
    """
    r = float(params.r)
    _gate_log_factor_derivative(params)
    log_sum, deriv_sum = _prime_sums(
        cutoff, lambda ps: _log_factors(ps, 1.0, params), lambda ps: log_factor_derivative(ps, params)
    )
    product = _product_factors(1.0, params, log_sum.value(), cutoff)
    zr, z2 = zeta(r), zeta(2.0)
    zrp, z2p = zeta_prime(r), zeta_prime(2.0)
    h1 = _cofactor(product, zr, z2)
    c, c_tail = leading_coefficient(product, zr, h1)
    hp, hp_tail = cofactor_derivative_at_1(
        params, deriv_sum.value(), cutoff, h1, (zr, zrp), (z2, z2p)
    )
    b = hp + 2.0 * EULER_GAMMA * c
    kx = b - c
    b_tail = hp_tail + 2.0 * EULER_GAMMA * c_tail + 4.0 * EPS * abs(b)
    k_tail = b_tail + c_tail + 4.0 * EPS * abs(kx)
    return ConstantsBundle(
        params=params,
        prime_cutoff=cutoff,
        leading=c,
        cofactor_deriv=hp,
        pole_coeff=b,
        x_coeff=kx,
        tail_bounds={"C": c_tail, "H1_prime": hp_tail, "B": b_tail, "K": k_tail},
    )
