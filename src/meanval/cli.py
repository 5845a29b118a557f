"""Command line front end.

Subcommands
-----------
constants   main-term constants C, H'(1), B, K with tail bounds
sum         checkpointed summatory table S(x), optionally with main terms
verify      the identity battery, with PASS/FAIL/GAP reporting
fit         full pipeline: sum + constants + residual exponent fit

Every output document is formed here and nowhere else: the library
modules return data, and ``render_constants``, ``render_summatory``,
``render_verify`` and ``render_fit`` turn it into the JSON documents whose
field names ``schema.json`` freezes (one envelope, ``_document``), the CSV
files and the text tables. Each returns text ending in one newline, which
``_emit`` writes unchanged, so ``--out`` holds exactly what stdout would.

stdout carries data only; progress notes go to stderr. Exit codes are a
stable contract: 0 success, else the ``exit_code`` of the ``MeanvalError``
that stopped the command (``errors``: 2 invalid configuration, an ``--out``
that cannot be written included, 3 resource budget exceeded, 4 failed rigor
gate), with one ``label: message`` line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from . import coeffs, fit, sieve, verify
from .arith import ArithParams
from .errors import ConfigError, MeanvalError

__all__ = [
    "build_parser",
    "main",
    "render_constants",
    "render_fit",
    "render_summatory",
    "render_verify",
]


def _int_at_least(text: str, low: int = 1) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if v < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {v}")
    return v


def parse_grid(spec: str, limit: int) -> list[int]:
    """Checkpoint grid spec: 'geom:<per-decade>' or 'list:x1,x2,...', parsed only (the library checks it)."""
    kind, _, rest = spec.partition(":")
    if kind == "geom":
        try:
            per_decade = int(rest) if rest else sieve.GRID_DENSITY
        except ValueError as exc:
            raise ConfigError(f"bad grid density {rest!r}") from exc
        return sieve.geometric_checkpoints(limit, per_decade=per_decade)
    if kind == "list":
        try:
            return [int(x) for x in rest.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad grid point list {rest!r}") from exc
    raise ConfigError(f"unknown grid spec {spec!r}; use geom:<n> or list:x1,x2,...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanval",
        description="Mean values of weighted divisor functions of minimal powers: "
        "constants, summatory tables, identity verification, residual fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_n: bool) -> None:
        p.add_argument("--r", type=int, default=2, help="power order r >= 2")
        p.add_argument("--k", type=float, default=1.0, help="divisor weight k >= 1")
        if with_n:  # sum and fit
            p.add_argument("--N", type=_int_at_least, required=True, help="summation limit")
            p.add_argument("--grid", default=f"geom:{sieve.GRID_DENSITY}",
                           help="geom:<per-decade> or list:x1,x2,...")
            p.add_argument(
                "--threads", type=_int_at_least, default=1,
                help="has no effect: the sums run on one thread, and the output is the same "
                "for any count (accepted for existing scripts; a count above 1 prints a note)",
            )
        p.add_argument(
            "--prime-cutoff", type=lambda text: _int_at_least(text, 2),
            default=coeffs.DEFAULT_PRIME_CUTOFF, help="prime cutoff for Euler products",
        )
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_const = sub.add_parser("constants", help="main-term constants with tail bounds")
    add_common(p_const, with_n=False)
    p_const.add_argument("--format", choices=("json", "table"), default="json")

    p_sum = sub.add_parser("sum", help="checkpointed summatory table")
    add_common(p_sum, with_n=True)
    p_sum.add_argument("--with-main", action="store_true",
                       help="also compute constants and fill main/residual columns")
    p_sum.add_argument("--format", choices=("json", "csv", "table"), default="json")

    p_ver = sub.add_parser("verify", help="run the identity battery")
    add_common(p_ver, with_n=False)
    p_ver.set_defaults(prime_cutoff=verify.BATTERY_SIZE)
    p_ver.add_argument("--s", type=float, default=2.0, help="Dirichlet argument, s >= 1.5")
    p_ver.add_argument("--series-limit", type=_int_at_least, default=verify.BATTERY_SIZE,
                       help="series truncation for the factorization check")
    p_ver.add_argument("--format", choices=("json", "table"), default="table")

    p_fit = sub.add_parser("fit", help="residual exponent fit against the main term")
    add_common(p_fit, with_n=True)
    p_fit.add_argument("--x-min", type=_int_at_least, default=fit.DEFAULT_X_MIN)
    p_fit.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _check_out(out: str) -> None:
    """Refuse, before any work, an --out that ``_emit`` could not open, without opening it:
    that would empty an existing file on a failed run, and open a FIFO or /dev/fd/N twice."""
    folder = os.path.dirname(out) or "."
    reason = (errno.EISDIR if os.path.isdir(out)
              else errno.ENOENT if not out or not os.path.isdir(folder)
              else 0 if os.access(out if os.path.exists(out) else folder, os.W_OK)
              else errno.EACCES)
    if reason:
        raise ConfigError(f"cannot write {out}: {os.strerror(reason)}")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
    except OSError as exc:  # what only the write finds: a full disk, a path changed since _check_out
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _document(kind: str, params: dict, **fields) -> str:
    """One JSON document of schema.json: the envelope, then the kind's own fields."""
    obj = {"schema_version": "1", "kind": kind, "params": params, **fields}
    return json.dumps(obj, indent=2) + "\n"


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _decimal(v) -> str:
    """A rational to 36 significant digits; a float as its repr."""
    if isinstance(v, Fraction):
        with localcontext() as ctx:
            ctx.prec = 36
            d = Decimal(v.numerator) / Decimal(v.denominator)
        return format(d, "f")
    return repr(float(v))


def _plain(v):
    """Library data with numbers as text: a float as its repr, an int or Fraction as its str."""
    if isinstance(v, dict):
        return {str(key): _plain(item) for key, item in v.items()}
    if isinstance(v, list):
        return [_plain(item) for item in v]
    if isinstance(v, (int, float, Fraction)) and not isinstance(v, bool):
        return repr(float(v)) if isinstance(v, float) else str(v)
    return v  # a bool, str or None as it is


def render_constants(b: coeffs.ConstantsBundle, fmt: str) -> str:
    """The constants as a ``constants_bundle`` document ("json") or a text table."""
    if fmt == "table":
        rows = [
            ("C (x ln x coefficient)", b.leading, b.tail_bounds["C"]),
            ("H'(1)", b.cofactor_deriv, b.tail_bounds["H1_prime"]),
            ("B (pole coefficient)", b.pole_coeff, b.tail_bounds["B"]),
            ("K (x coefficient)", b.x_coeff, b.tail_bounds["K"]),
        ]
        lines = [f"r={b.params.r} k={b.params.k} prime_cutoff={b.prime_cutoff}"]
        lines += [f"{name:<24} {v:+.15e}  (tail <= {t:.3e})" for name, v, t in rows]
        return _lines(lines)
    return _document(
        "constants_bundle",
        {"r": b.params.r, "k": b.params.k},
        prime_cutoff=b.prime_cutoff,
        C=repr(b.leading),
        H1_prime=repr(b.cofactor_deriv),
        B=repr(b.pole_coeff),
        K=repr(b.x_coeff),
        tail_bounds={name: repr(v) for name, v in sorted(b.tail_bounds.items())},
    )


def render_summatory(table: sieve.SummatoryTable, fmt: str) -> str:
    """The table as a ``summatory_table`` document ("json"), CSV ("csv") or a text table."""
    if fmt == "table":
        lines = [f"{'x':>12} {'S':>24} {'main':>20} {'residual':>14} {'err_bound':>12}"]
        for row in table.rows:
            s_txt = f"{float(row.value):.10g}"
            main = "" if row.main is None else f"{row.main:.6f}"
            resid = "" if row.residual is None else f"{row.residual:+.6f}"
            lines.append(f"{row.x:>12} {s_txt:>24} {main:>20} {resid:>14} {row.err_bound:>12.3e}")
        return _lines(lines)
    rows = [
        {
            "x": row.x,
            "S": _decimal(row.value),
            "main": None if row.main is None else repr(row.main),
            "residual": None if row.residual is None else repr(row.residual),
            "err_bound": repr(row.err_bound),
        }
        for row in table.rows
    ]
    if fmt == "csv":  # the same fields, with None as an empty cell
        lines = ["x,S,main,residual,err_bound"]
        lines += [",".join("" if v is None else str(v) for v in rec.values()) for rec in rows]
        return _lines(lines)
    for rec, row in zip(rows, table.rows):
        if isinstance(row.value, Fraction):
            rec["S_exact"] = f"{row.value.numerator}/{row.value.denominator}"
    return _document(
        "summatory_table",
        {"r": table.params.r, "k": table.params.k},
        N=table.limit,
        mode=table.mode,
        rows=rows,
    )


def render_verify(reports: Sequence[verify.VerifyReport], params: dict, fmt: str) -> str:
    """The battery as a ``verify_reports`` document ("json") or a PASS/FAIL table.

    ``params`` is the document's own: r, k, s, N (series length), P (prime cutoff).
    """
    if fmt == "table":
        header = f"{'identity':<28} {'parameters':<38} {'gap':>12} {'bound':>12} {'verdict':>8}"
        lines = [header, "-" * len(header)]
        for rep in reports:
            pstr = " ".join(f"{k}={v}" for k, v in rep.params.items())
            verdict = "PASS" if rep.passed else "FAIL"
            lines.append(
                f"{rep.identity:<28} {pstr:<38} {rep.gap:>12.3e} {rep.bound:>12.3e} {verdict:>8}"
            )
            if rep.identity == "global_factorization":
                gap2 = rep.details["closed_form_gap"]
                b2 = rep.details["closed_form_combined_bound"]
                within = "PASS" if rep.details["closed_form_within_bound"] else "GAP"
                lines.append(
                    f"{'  vs closed form':<28} {'':<38} {abs(gap2):>12.3e} {b2:>12.3e} {within:>8}"
                )
        return _lines(lines)
    return _document(
        "verify_reports",
        params,
        reports=[
            {
                "identity": rep.identity,
                "params": rep.params,
                "lhs": repr(rep.lhs),
                "rhs": repr(rep.rhs),
                "gap": repr(rep.gap),
                "bound": repr(rep.bound),
                "pass": rep.passed,
                "notes": rep.notes,
                "details": _plain(rep.details),
            }
            for rep in reports
        ],
    )


def render_fit(report: fit.FitReport, fmt: str) -> str:
    """The report as a ``fit_report`` document ("json") or an "x R" dump ("csv")."""
    points = list(zip(report.xs, report.residuals))
    if fmt == "csv":
        return _lines([f"{x} {repr(rv)}" for x, rv in points])
    fields = {
        "prime_cutoff": report.consts.prime_cutoff,
        "C": repr(report.consts.leading),
        "K": repr(report.consts.x_coeff),
        "points": [{"x": x, "R": repr(rv)} for x, rv in points],
        "sign_changes": report.sign_changes,
    }
    if report.theta is not None:
        fields["fit"] = {
            "theta": repr(report.theta),
            "intercept": repr(report.intercept),
            "rss": repr(report.rss),
            "half_width": repr(report.half_width),
            "witness_x06": repr(report.witness),
            "x_min": report.x_min,
            "points_used": report.points_used,
        }
    if report.diagnostics is not None:
        fields["diagnostics"] = _plain(report.diagnostics)
    params = report.table.params
    return _document("fit_report", {"r": params.r, "k": params.k}, **fields)


def _cmd_constants(args) -> int:
    params = ArithParams(r=args.r, k=args.k)
    b = coeffs.bundle(params, args.prime_cutoff)
    _emit(render_constants(b, args.format), args.out)
    return 0


def _sums(params: ArithParams, limit: int, grid: list[int], threads: int,
          cutoff: Optional[int]) -> tuple[sieve.SummatoryTable, Optional[fit.FitReport]]:
    """The pipeline of ``sum`` and ``fit``: ``summatory`` checks every input before any sum,
    and only then, given a prime cutoff, come the constants and R(x) (else no report)."""
    if threads > 1:
        _progress(f"note: --threads {threads} has no effect; the sums run on one thread")
    if limit >= 10**6:
        _progress(f"summing to N={limit}")
    t0 = time.perf_counter()
    table = sieve.summatory(params, limit, grid=grid)
    if limit >= 10**6:
        _progress(f"done in {time.perf_counter() - t0:.1f}s")
    if cutoff is None:
        return table, None
    _progress(f"constants at prime cutoff {cutoff}")
    report = fit.residuals(table, coeffs.bundle(params, cutoff))
    return report.table, report


def _cmd_sum(args) -> int:
    table, _ = _sums(ArithParams(r=args.r, k=args.k), args.N, parse_grid(args.grid, args.N),
                     args.threads, args.prime_cutoff if args.with_main else None)
    _emit(render_summatory(table, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    params = ArithParams(r=args.r, k=args.k)
    reports = verify.run_battery(params, s=args.s, limit=args.series_limit,
                                 cutoff=args.prime_cutoff)
    doc_params = {"r": params.r, "k": params.k, "s": args.s,
                  "N": args.series_limit, "P": args.prime_cutoff}
    _emit(render_verify(reports, doc_params, args.format), args.out)
    return 0


def _cmd_fit(args) -> int:
    params = ArithParams(r=args.r, k=args.k)
    grid = sieve.grid_points(args.N, parse_grid(args.grid, args.N))
    fit.require_points(grid, args.x_min)  # before the sums: only the near-zero filter needs R
    _, report = _sums(params, args.N, grid, args.threads, args.prime_cutoff)
    _emit(render_fit(fit.fit_exponent(report, x_min=args.x_min), args.format), args.out)
    return 0


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
        if args.out is not None:
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except MeanvalError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
