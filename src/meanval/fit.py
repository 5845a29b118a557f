"""Residuals against the asymptotic main term and the empirical error exponent.

``residuals`` is the one place where S - main is formed, for ``fit`` and for
``sum --with-main`` alike: given a summatory table (S only) and a constants
bundle, it fills main(x) = C*x*ln(x) + K*x and R(x) = S(x) - main(x) into
every row, once per checkpoint. ``fit_exponent`` then runs an ordinary
least-squares fit of ln|R| on ln x. The fitted slope theta is an empirical
stand-in for the true error-term exponent: at desk scale it cannot resolve
1/2 from 1/2 + eps, so downstream assertions only bracket it from above.
Checkpoints where R sits numerically on a sign change (|R| < 1e-6 * sqrt(x))
are excluded, since the log of a near-zero residual would destabilize the
regression.

For weights k != 1, where the closed-form constants are not verified exact,
the report also carries plainly-labeled descriptive normalizations
(S/(x ln x) and S/(x (ln x)^(2/k - 1)), with S read from the table, at the
usable checkpoints with x >= 2, where ln x > 0); they assert nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .coeffs import ConstantsBundle
from .errors import ConfigError, InsufficientDataError
from .sieve import SummatoryTable

__all__ = ["FitReport", "fit_exponent", "require_points", "residuals"]

DEFAULT_X_MIN = 1000
MIN_FIT_POINTS = 8
_NEAR_ZERO_FACTOR = 1e-6


@dataclass(frozen=True)
class FitReport:
    """Residual series and, once fitted, the empirical exponent estimate.

    ``table`` carries S, main and R at every checkpoint; ``consts`` is the
    bundle its main column came from.
    """

    table: SummatoryTable
    consts: ConstantsBundle
    sign_changes: int
    theta: Optional[float] = None
    intercept: Optional[float] = None
    rss: Optional[float] = None
    half_width: Optional[float] = None
    witness: Optional[float] = None  # max |R(x)| / x**0.6 over fitted range
    x_min: Optional[int] = None
    points_used: Optional[int] = None
    diagnostics: Optional[dict] = None

    @property
    def xs(self) -> tuple[int, ...]:
        return tuple(row.x for row in self.table.rows)

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(row.residual for row in self.table.rows)

def residuals(table: SummatoryTable, consts: ConstantsBundle) -> FitReport:
    """Fill the main and residual columns of every row: R(x) = S(x) - main(x).

    Each R(x) is ``ConstantsBundle.residual``: the subtraction happens in
    rational arithmetic before the single rounding to float, so an exact-mode
    S loses nothing to cancellation even at x around 1e9, and a float-mode S
    gives the double S - main.
    """
    if table.params != consts.params:
        raise ConfigError(
            f"table params (r={table.params.r}, k={table.params.k}) do not match "
            f"bundle params (r={consts.params.r}, k={consts.params.k})"
        )
    rows = []
    for row in table.rows:
        main = consts.main_term(row.x)
        rows.append(replace(row, main=main, residual=consts.residual(row.value, main)))
    signs = [row.residual > 0 for row in rows if row.residual != 0.0]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return FitReport(table=replace(table, rows=tuple(rows)), consts=consts, sign_changes=flips)


def _ols(u: list[float], v: list[float]) -> tuple[float, float, float, float]:
    """Least squares v ~ slope*u + intercept; returns (slope, intercept, rss, se_slope)."""
    n = len(u)
    mu = math.fsum(u) / n
    mv = math.fsum(v) / n
    sxx = math.fsum((x - mu) ** 2 for x in u)
    sxy = math.fsum((x - mu) * (y - mv) for x, y in zip(u, v))
    slope = sxy / sxx
    intercept = mv - slope * mu
    rss = math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(u, v))
    se = math.sqrt(rss / (n - 2) / sxx) if n > 2 else float("inf")
    return slope, intercept, rss, se


def require_points(xs: Iterable[int], x_min: int) -> None:
    """Raise InsufficientDataError unless at least MIN_FIT_POINTS distinct xs lie at x >= x_min."""
    found = len({x for x in xs if x >= x_min})
    if found < MIN_FIT_POINTS:
        raise InsufficientDataError(f"exponent fit needs at least {MIN_FIT_POINTS} usable "
                                    f"checkpoints with x >= {x_min}, found {found}")


def fit_exponent(report: FitReport, x_min: int = DEFAULT_X_MIN) -> FitReport:
    """Complete the report with the ln|R| ~ theta * ln x regression.

    Uses checkpoints with x >= x_min and |R| above the near-zero filter;
    raises InsufficientDataError below ``MIN_FIT_POINTS`` usable points. The
    half-width is two standard errors of the slope.
    """
    pts = [
        (x, rv)
        for x, rv in zip(report.xs, report.residuals)
        if x >= x_min and abs(rv) > _NEAR_ZERO_FACTOR * math.sqrt(x)
    ]
    require_points((x for x, _ in pts), x_min)
    u = [math.log(x) for x, _ in pts]
    v = [math.log(abs(rv)) for _, rv in pts]
    slope, intercept, rss, se = _ols(u, v)
    witness = max(abs(rv) / x**0.6 for x, rv in pts)
    diagnostics = None
    k = report.table.params.k
    if k != 1:
        expo = 2.0 / k - 1.0
        usable = [(row.x, float(row.value), math.log(row.x))
                  for row in report.table.rows if row.x >= max(x_min, 2)]
        diagnostics = {
            "note": "descriptive only, asserts nothing; closed-form constants "
            "are verified exact only at k = 1",
            "S_over_x_ln_x": {x: s / (x * lnx) for x, s, lnx in usable},
            "S_over_x_lnx_pow": {
                "exponent": expo,
                "values": {x: s / (x * lnx**expo) for x, s, lnx in usable},
            },
        }
    return replace(
        report,
        theta=slope,
        intercept=intercept,
        rss=rss,
        half_width=2.0 * se,
        witness=witness,
        x_min=x_min,
        points_used=len(pts),
        diagnostics=diagnostics,
    )
