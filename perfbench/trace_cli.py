"""Run one meanval CLI command with spans recorded around its layers.

    python3 perfbench/trace_cli.py SPANS.json <meanval arguments...>

The program itself is not changed: before ``meanval.cli.main`` runs, this
script replaces module attributes of meanval (public functions, plus the
private ``sieve._decompose``, ``sieve._segment_bounds``,
``coeffs._product_factors`` and the CLI's command table) with wrappers that
record one span per call.  Modules that imported a function by name
(``from .primes import primes_up_to``) get the wrapper under that name too.
Spans are kept in memory and written to SPANS.json as the process exits;
the exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

# meanval/__init__ re-exports a function named zeta, so take modules from importlib
cli, coeffs, fit, primes, sieve, verify, zeta = (
    importlib.import_module("meanval." + name)
    for name in ("cli", "coeffs", "fit", "primes", "sieve", "verify", "zeta")
)

SPANS: list[dict] = []
_STACK: list[int] = []


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _wrap(name, fn, count=None, rss=False):
    """Wrap fn so each call appends {name, start, end, parent, count, rss_growth}."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = {"name": name, "parent": _STACK[-1] if _STACK else None}
        idx = len(SPANS)
        SPANS.append(span)
        _STACK.append(idx)
        rss0 = _maxrss_bytes() if rss else 0
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            _STACK.pop()
        if rss:
            span["rss_growth"] = _maxrss_bytes() - rss0
        if count is not None:
            span["count"] = count(args, result)
        return result

    return wrapper


def _patch(modules, attr, name, **opts):
    """Replace ``attr`` on every module in ``modules`` with one shared wrapper."""
    wrapped = _wrap(name, getattr(modules[0], attr), **opts)
    for mod in modules:
        setattr(mod, attr, wrapped)


def install() -> None:
    _patch([sieve, verify], "build_spf", "sieve.build_spf", count=lambda a, r: r.limit)
    _patch([sieve], "_decompose", "sieve._decompose")
    _patch([sieve, verify], "tabulate", "sieve.tabulate")
    _patch([sieve], "_segment_bounds", "sieve._segment_bounds", count=lambda a, r: len(r))
    _patch([sieve], "summatory", "sieve.summatory", count=lambda a, r: r.limit, rss=True)
    _patch([primes, coeffs, verify], "primes_up_to", "primes.primes_up_to",
           count=lambda a, r: len(r))
    _patch([zeta, coeffs, verify], "zeta", "zeta.zeta")
    _patch([zeta, coeffs], "zeta_prime", "zeta.zeta_prime")
    _patch([coeffs], "_product_factors", "coeffs._product_factors")
    _patch([coeffs, verify], "cofactor_value", "coeffs.cofactor_value")
    _patch([coeffs], "leading_coefficient", "coeffs.leading_coefficient")
    _patch([coeffs], "cofactor_derivative_at_1", "coeffs.cofactor_derivative_at_1")
    _patch([coeffs], "bundle", "coeffs.bundle")
    _patch([verify], "dirichlet_series_truncated", "verify.dirichlet_series_truncated")
    _patch([verify], "euler_product_truncated", "verify.euler_product_truncated")
    _patch([verify], "run_battery", "verify.run_battery")
    _patch([fit], "residuals", "fit.residuals")
    _patch([fit], "fit_exponent", "fit.fit_exponent")
    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = _wrap("cli." + command, fn)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fp:
            json.dump(SPANS, fp)


if __name__ == "__main__":
    sys.exit(main())
