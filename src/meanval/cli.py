"""Command line front end.

Subcommands
-----------
constants   main-term constants C, H'(1), B, K with tail bounds
sum         checkpointed summatory table S(x), optionally with main terms
verify      the identity battery, with PASS/FAIL/GAP reporting
fit         full pipeline: sum + constants + residual exponent fit

stdout carries data only; progress notes go to stderr. Exit codes are a
stable contract: 0 success, 2 invalid configuration, 3 resource budget
exceeded, 4 internal tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import coeffs, fit, sieve, verify
from .arith import ArithParams
from .errors import ConfigError, MeanvalError, ResourceError, ToleranceError

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_TOLERANCE = 4


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def parse_grid(spec: str, limit: int) -> list[int]:
    """Checkpoint grid spec: 'geom:<per-decade>' or 'list:x1,x2,...'."""
    kind, _, rest = spec.partition(":")
    if kind == "geom":
        try:
            per_decade = int(rest) if rest else 8
        except ValueError as exc:
            raise ConfigError(f"bad grid density {rest!r}") from exc
        if per_decade < 1:
            raise ConfigError(f"grid density must be >= 1, got {per_decade}")
        return sieve.geometric_checkpoints(limit, per_decade=per_decade)
    if kind == "list":
        try:
            pts = sorted({int(x) for x in rest.split(",") if x.strip()})
        except ValueError as exc:
            raise ConfigError(f"bad grid point list {rest!r}") from exc
        if not pts:
            raise ConfigError("grid point list is empty")
        return pts
    raise ConfigError(f"unknown grid spec {spec!r}; use geom:<n> or list:x1,x2,...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanval",
        description="Mean values of weighted divisor functions of minimal powers: "
        "constants, summatory tables, identity verification, residual fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    threads_help = (
        "worker threads for the sieve's tabulation pass and the segment sums; "
        "the output is bit-identical for any count. Only the sieve uses them: "
        "at k = 1 and k = 2 the sums come from the powerful numbers instead"
    )

    def add_common(p: argparse.ArgumentParser, with_n: bool) -> None:
        p.add_argument("--r", type=int, default=2, help="power order r >= 2")
        p.add_argument("--k", type=float, default=1.0, help="divisor weight k >= 1")
        if with_n:
            p.add_argument("--N", type=_positive_int, required=True, help="summation limit")
        p.add_argument(
            "--prime-cutoff", type=_positive_int, default=coeffs.DEFAULT_PRIME_CUTOFF,
            help="prime cutoff for Euler products",
        )
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_const = sub.add_parser("constants", help="main-term constants with tail bounds")
    add_common(p_const, with_n=False)
    p_const.add_argument("--format", choices=("json", "table"), default="json")

    p_sum = sub.add_parser("sum", help="checkpointed summatory table")
    add_common(p_sum, with_n=True)
    p_sum.add_argument("--grid", default="geom:8", help="geom:<per-decade> or list:x1,x2,...")
    p_sum.add_argument("--threads", type=_positive_int, default=1, help=threads_help)
    p_sum.add_argument("--with-main", action="store_true",
                       help="also compute constants and fill main/residual columns")
    p_sum.add_argument("--format", choices=("json", "csv", "table"), default="json")

    p_ver = sub.add_parser("verify", help="run the identity battery")
    add_common(p_ver, with_n=False)
    p_ver.set_defaults(prime_cutoff=verify.BATTERY_SIZE)
    p_ver.add_argument("--s", type=float, default=2.0, help="Dirichlet argument, s >= 1.5")
    p_ver.add_argument("--series-limit", type=_positive_int, default=verify.BATTERY_SIZE,
                       help="series truncation for the factorization check")
    p_ver.add_argument("--format", choices=("json", "table"), default="table")

    p_fit = sub.add_parser("fit", help="residual exponent fit against the main term")
    add_common(p_fit, with_n=True)
    p_fit.add_argument("--grid", default="geom:8")
    p_fit.add_argument("--threads", type=_positive_int, default=1, help=threads_help)
    p_fit.add_argument("--x-min", type=_positive_int, default=fit.DEFAULT_X_MIN)
    p_fit.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (p_const, p_sum, p_fit):  # verify runs the zeta evaluators at their own default
        p.add_argument("--tol", type=float, default=1e-12, help="zeta evaluation tolerance")
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _render_constants_table(b: coeffs.ConstantsBundle) -> str:
    rows = [
        ("C (x ln x coefficient)", b.leading, b.tail_bounds["C"]),
        ("H'(1)", b.cofactor_deriv, b.tail_bounds["H1_prime"]),
        ("B (pole coefficient)", b.pole_coeff, b.tail_bounds["B"]),
        ("K (x coefficient)", b.x_coeff, b.tail_bounds["K"]),
    ]
    lines = [f"r={b.params.r} k={b.params.k} prime_cutoff={b.prime_cutoff}"]
    for name, v, t in rows:
        lines.append(f"{name:<24} {v:+.15e}  (tail <= {t:.3e})")
    return "\n".join(lines)


def _render_sum_table(table: sieve.SummatoryTable) -> str:
    lines = [f"{'x':>12} {'S':>24} {'main':>20} {'residual':>14} {'err_bound':>12}"]
    for row in table.rows:
        s_txt = f"{float(row.value):.10g}"
        main = "" if row.main is None else f"{row.main:.6f}"
        resid = "" if row.residual is None else f"{row.residual:+.6f}"
        lines.append(f"{row.x:>12} {s_txt:>24} {main:>20} {resid:>14} {row.err_bound:>12.3e}")
    return "\n".join(lines)


def _cmd_constants(args) -> int:
    params = ArithParams(r=args.r, k=args.k)
    b = coeffs.bundle(params, args.prime_cutoff, zeta_tol=args.tol)
    if args.format == "table":
        _emit(_render_constants_table(b), args.out)
    else:
        _emit(json.dumps(b.to_json_obj(), indent=2), args.out)
    return EXIT_OK


def _cmd_sum(args) -> int:
    params = ArithParams(r=args.r, k=args.k)
    grid = parse_grid(args.grid, args.N)
    bundle = None
    if args.with_main:
        bundle = coeffs.bundle(params, args.prime_cutoff, zeta_tol=args.tol)
    if args.N >= 10**6:
        _progress(f"summing to N={args.N} (threads={args.threads})")
    t0 = time.perf_counter()
    table = sieve.summatory(params, args.N, grid=grid, threads=args.threads)
    if args.N >= 10**6:
        _progress(f"done in {time.perf_counter() - t0:.1f}s")
    if bundle is not None:
        table = fit.residuals(table, bundle).table
    if args.format == "csv":
        import io

        buf = io.StringIO()
        table.write_csv(buf)
        _emit(buf.getvalue(), args.out)
    elif args.format == "table":
        _emit(_render_sum_table(table), args.out)
    else:
        _emit(json.dumps(table.to_json_obj(), indent=2), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    params = ArithParams(r=args.r, k=args.k)
    reports = verify.run_battery(params, s=args.s, limit=args.series_limit,
                                 cutoff=args.prime_cutoff)
    if args.format == "table":
        _emit(verify.render_table(reports), args.out)
    else:
        obj = {
            "schema_version": "1",
            "kind": "verify_reports",
            "params": {"r": params.r, "k": params.k, "s": args.s,
                       "N": args.series_limit, "P": args.prime_cutoff},
            "reports": [rep.to_json_obj() for rep in reports],
        }
        _emit(json.dumps(obj, indent=2), args.out)
    return EXIT_OK


def _cmd_fit(args) -> int:
    params = ArithParams(r=args.r, k=args.k)
    grid = parse_grid(args.grid, args.N)
    _progress(f"constants at prime cutoff {args.prime_cutoff}")
    b = coeffs.bundle(params, args.prime_cutoff, zeta_tol=args.tol)
    _progress(f"summatory table to N={args.N} (threads={args.threads})")
    table = sieve.summatory(params, args.N, grid=grid, threads=args.threads)
    report = fit.fit_exponent(fit.residuals(table, b), x_min=args.x_min)
    if args.format == "csv":
        import io

        buf = io.StringIO()
        report.write_residual_dump(buf)
        _emit(buf.getvalue(), args.out)
    else:
        _emit(json.dumps(report.to_json_obj(), indent=2), args.out)
    return EXIT_OK


_COMMANDS = {
    "constants": _cmd_constants,
    "sum": _cmd_sum,
    "verify": _cmd_verify,
    "fit": _cmd_fit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except MeanvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
