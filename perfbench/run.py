"""End-to-end and per-layer benchmark of the meanval CLI.

    python3 perfbench/run.py --workload fit-exact --seed 1 --seconds 20 --trace 0

Run from the root of a meanval source tree; the program is imported from
./src and never installed.  Every operation is a fresh ``python -m meanval``
process; its wall time, CPU time and peak RSS come from that child's own
rusage (``os.wait4``).  Operations run in whole rounds until ``--seconds``
have passed, and every output is checked (see checks.py).  With ``--trace 1``
each round runs once plain and once under trace_cli.py, and the per-layer
metrics come from the traced rounds only.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5  # per batch; three batches spread over the run
N_SUM = 30_000_000
EXTRA_CHECKPOINTS = 4


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    out: str
    err: str


class Runner:
    """Spawns children with PYTHONPATH=./src and collects their own rusage."""

    def __init__(self, root: str, tmp: str):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def spawn(self, argv: list[str]) -> Proc:
        out, err = os.path.join(self.tmp, "stdout"), os.path.join(self.tmp, "stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        try:
            _, status, ru = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - t0
        with open(out, encoding="utf-8") as fo, open(err, encoding="utf-8") as fe:
            text, errtext = fo.read(), fe.read()
        return Proc(os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024.0, text, errtext)

    def meanval(self, args: list[str], spans: str | None = None) -> Proc:
        if spans is None:
            return self.spawn(["-m", "meanval", *args])
        return self.spawn([os.path.join(HERE, "trace_cli.py"), spans, *args])

    def reference(self, args: list[str]):
        """JSON result of reference.py, run in its own process (see its docstring)."""
        p = self.spawn([os.path.join(HERE, "reference.py"), *args])
        if p.code != 0:
            raise SystemExit(f"error: reference.py {' '.join(args[:5])} failed: {p.err[-300:]}")
        return json.loads(p.out)

    def checked(self, args: list[str]) -> Proc:
        """An untimed side run that must succeed."""
        p = self.meanval(args)
        if p.code != 0:
            raise CheckFailed([f"meanval {' '.join(args[:6])} exited {p.code}: {p.err[-300:]}"])
        return p


class CheckFailed(Exception):
    pass


def checkpoint_grid(limit: int, rng: random.Random) -> list[int]:
    """geom:8 checkpoints (round(10**(j/8)) in [10, limit], plus limit) and seeded extras."""
    pts = {limit}
    j = 8
    while round(10 ** (j / 8)) <= limit:
        pts.add(round(10 ** (j / 8)))
        j += 1
    extras: set[int] = set()
    while len(extras) < EXTRA_CHECKPOINTS:
        x = int(10 ** rng.uniform(3.0, math.log10(limit)))
        if x not in pts:
            extras.add(x)
    return sorted(pts | extras)


# ---------------------------------------------------------------------------
# workloads: commands of one round, reference set-up, checks, side runs


class FitExact:
    """The paper's pipeline: exact sieve sums, constants, residual exponent fit."""

    def __init__(self, rng: random.Random):
        self.grid = checkpoint_grid(N_SUM, rng)
        self.xs = ",".join(map(str, self.grid))
        self.commands = [["fit", "--r", "2", "--k", "1", "--N", str(N_SUM), "--threads", "1",
                        "--grid", "list:" + self.xs]]

    def prepare(self, run: Runner) -> None:
        totals = run.reference(["totals", "--r", "2", "--N", str(N_SUM), "--x", self.xs])
        self.s_ref = {int(x): Fraction(sum(t)) for x, t in totals.items()}

    def check(self, outs: list[str]) -> list[str]:
        return checks.check_fit(json.loads(outs[0]), self.grid, self.s_ref)

    def selftest(self, outs: list[str]) -> list[str]:
        return checks.selftest_fit(json.loads(outs[0]), self.grid, self.s_ref)

    def side_runs(self, run: Runner, outs: list[str]) -> tuple[list[str], float]:
        """The constants the fit used, from ``constants`` at the fit's own cutoff."""
        doc = json.loads(outs[0])
        consts = json.loads(run.checked(["constants", "--r", "2", "--k", "1",
                                         "--prime-cutoff", str(doc["prime_cutoff"])]).out)
        errs = []
        if (consts["C"], consts["K"]) != (doc["C"], doc["K"]):
            errs.append(f"fit: C, K = {doc['C']}, {doc['K']} but constants gives "
                        f"{consts['C']}, {consts['K']} at the same cutoff")
        return errs, float(consts["tail_bounds"]["K"])


class SumFloatMt:
    """Float-mode sums on two threads, with main terms, written as CSV."""

    def __init__(self, rng: random.Random):
        self.grid = checkpoint_grid(N_SUM, rng)
        self.xs = ",".join(map(str, self.grid))
        self.base = ["sum", "--r", "3", "--k", "1.5", "--N", str(N_SUM), "--with-main",
                     "--format", "csv", "--grid", "list:" + self.xs]
        self.commands = [self.base + ["--threads", "2"]]

    def prepare(self, run: Runner) -> None:
        totals = run.reference(["totals", "--r", "3", "--N", str(N_SUM), "--x", self.xs])
        self.s_ref = {int(x): checks.s_from_totals(t, Fraction(3, 2)) for x, t in totals.items()}

    def check(self, outs: list[str]) -> list[str]:
        return checks.check_sum(checks.parse_sum_csv(outs[0]), self.grid, self.s_ref, self.consts)

    def selftest(self, outs: list[str]) -> list[str]:
        return checks.selftest_sum(checks.parse_sum_csv(outs[0]), self.grid, self.s_ref,
                                   self.consts)

    def side_runs(self, run: Runner, outs: list[str]) -> tuple[list[str], float]:
        """Constants for the main column, and the output at --threads 1 byte for byte."""
        self.consts = json.loads(run.checked(["constants", "--r", "3", "--k", "1.5"]).out)
        serial = run.checked(self.base + ["--threads", "1"]).out
        errs = [] if serial == outs[0] else ["sum: --threads 2 output differs from --threads 1"]
        return errs, float(self.consts["tail_bounds"]["K"])


class ConstantsIdentities:
    """Euler-product constants at a large prime cutoff and the identity battery."""

    CUTOFF = 30_000_000
    SERIES = 10_000_000

    def __init__(self, rng: random.Random):
        self.commands = [
            ["constants", "--r", "2", "--k", "1", "--prime-cutoff", str(self.CUTOFF)],
            ["constants", "--r", "3", "--k", "1.5", "--prime-cutoff", str(self.CUTOFF)],
            ["verify", "--r", "2", "--k", "1", "--series-limit", str(self.SERIES), "--format", "json"],
            ["verify", "--r", "3", "--k", "2", "--series-limit", str(self.SERIES), "--format", "json"],
        ]

    def prepare(self, run: Runner) -> None:
        self.prime_sum = run.reference(["prime-sum", "--r", "3", "--k", "1.5",
                                        "--P", str(self.CUTOFF)])
        self.series = {r: run.reference(["series", "--r", str(r), "--k", k, "--s", "2",
                                         "--N", str(self.SERIES)])
                       for r, k in ((2, "1"), (3, "2"))}

    def _docs(self, outs: list[str]) -> dict:
        docs = dict(zip(("c21", "c15", "v21", "v32"), map(json.loads, outs)))
        docs["c21_1e6"], docs["c15_1e6"] = self.at_1e6
        return docs

    def check(self, outs: list[str]) -> list[str]:
        d = self._docs(outs)
        errs = checks.check_zeta_prime_2(d["c15"], self.prime_sum)
        errs += checks.check_verify(d["v21"], 1.0, self.series[2])
        errs += checks.check_verify(d["v32"], 2.0, self.series[3])
        if not abs(float(d["c21"]["C"]) - checks.PAPER_C_2_1) <= 1e-6:
            errs.append(f"constants: C(2,1) = {d['c21']['C']} not within 1e-6 of the paper")
        errs += checks.check_constants(d["c21"], d["c21_1e6"])
        errs += checks.check_constants(d["c15"], d["c15_1e6"])
        return errs

    def selftest(self, outs: list[str]) -> list[str]:
        return checks.selftest_constants(self._docs(outs), self.prime_sum, self.series)

    def side_runs(self, run: Runner, outs: list[str]) -> tuple[list[str], float]:
        """The same constants at P = 1e6, for the agreement-within-tails check."""
        self.at_1e6 = tuple(
            json.loads(run.checked(args[:-1] + ["1000000"]).out) for args in self.commands[:2]
        )
        return [], float(json.loads(outs[0])["tail_bounds"]["K"])


WORKLOADS = {
    "fit-exact": FitExact,
    "sum-float-mt": SumFloatMt,
    "constants-identities": ConstantsIdentities,
}


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(span_files: list[list[dict]]) -> dict[str, float]:
    """Sum durations, self times, calls and counts per span name over processes."""
    agg: dict[str, float] = defaultdict(float)
    for spans in span_files:
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            agg[name + ".s"] += dur
            agg[name + ".self"] += dur - covered[i]
            agg[name + ".calls"] += 1
            agg[name + ".count"] += s.get("count", 0)
            agg[name + ".rss"] += s.get("rss_growth", 0)
    summed_n = agg["sieve.summatory.count"]
    return {
        "sieve.build_spf_s": agg["sieve.build_spf.s"],
        "sieve.decompose_s": agg["sieve._decompose.s"],
        "sieve.doubling_s": agg["sieve.tabulate.self"],
        "sieve.entries": agg["sieve.build_spf.count"],
        "sieve.bytes_per_entry": agg["sieve.summatory.rss"] / summed_n if summed_n else 0.0,
        "sieve.reduce_s": agg["sieve.summatory.self"],
        "sieve.segments": agg["sieve._segment_bounds.count"],
        "primes.calls": agg["primes.primes_up_to.calls"],
        "primes.count": agg["primes.primes_up_to.count"],
        "primes.s": agg["primes.primes_up_to.s"],
        "coeffs.euler_product_s": agg["coeffs._product_factors.self"],
        "coeffs.euler_product_calls": agg["coeffs._product_factors.calls"],
        "coeffs.prime_sum_s": agg["coeffs.cofactor_derivative_at_1.self"],
        "coeffs.bundle_s": agg["coeffs.bundle.s"],
        "zeta.calls": agg["zeta.zeta.calls"] + agg["zeta.zeta_prime.calls"],
        "zeta.s": agg["zeta.zeta.s"] + agg["zeta.zeta_prime.s"],
        "verify.series_s": agg["verify.dirichlet_series_truncated.s"],
        "verify.product_s": agg["verify.euler_product_truncated.s"],
        "fit.s": agg["fit.residuals.s"] + agg["fit.fit_exponent.s"],
        "cli.emit_s": sum(v for k, v in agg.items()
                          if k.startswith("cli.") and k.endswith(".self")),
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "B/entry" if name == "sieve.bytes_per_entry" else "count"


# ---------------------------------------------------------------------------
# the run


@dataclass
class Round:
    procs: list[Proc]
    spans: list[list[dict]] | None = None

    @property
    def ok(self) -> bool:
        return all(p.code == 0 for p in self.procs)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)


def run_round(run: Runner, cmds: list[list[str]], traced: bool) -> Round:
    if not traced:
        return Round([run.meanval(c) for c in cmds])
    procs, spans = [], []
    path = os.path.join(run.tmp, "spans.json")
    for c in cmds:
        if os.path.exists(path):
            os.remove(path)
        procs.append(run.meanval(c, spans=path))
        if procs[-1].code == 0:
            with open(path, encoding="utf-8") as fp:
                spans.append(json.load(fp))
    return Round(procs, spans)


def measure_setup(run: Runner, root: str) -> list[float]:
    """Wall times of fresh interpreters that import meanval (from ./src, checked)."""
    times = []
    for _ in range(SETUP_PROBES):
        p = run.spawn(["-c", "import meanval, sys; sys.stdout.write(meanval.__file__)"])
        if p.code != 0 or not os.path.abspath(p.out).startswith(os.path.join(root, "src") + os.sep):
            raise SystemExit(f"error: cannot import meanval from {root}/src: {p.err[-300:]}")
        times.append(p.wall)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description="meanval CLI benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # turn SIGTERM into SystemExit so a running child is killed and reaped (Runner.spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "meanval", "cli.py")):
        print(f"error: no meanval sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](random.Random(args.seed))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        run = Runner(root, tmp)
        setup = measure_setup(run, root)
        wl.prepare(run)
        setup += measure_setup(run, root)
        errors: list[str] = []
        plain: list[Round] = []
        traced: list[Round] = []
        t0 = time.perf_counter()
        while not plain or time.perf_counter() - t0 < args.seconds:
            # traced runs alternate which copy of the round goes first, so that an
            # order effect does not show up as trace overhead
            if args.trace and len(plain) % 2:
                traced.append(run_round(run, wl.commands, traced=True))
            plain.append(run_round(run, wl.commands, traced=False))
            if args.trace and len(traced) < len(plain):
                traced.append(run_round(run, wl.commands, traced=True))
        setup += measure_setup(run, root)
        rounds = plain + traced
        good = [r for r in rounds if r.ok]
        for r in rounds:
            for p in r.procs:
                if p.code != 0:
                    print(f"operation exited {p.code}: {p.err[-300:]}", file=sys.stderr)
        k_tail = 0.0  # stays 0 only when the run is incorrect
        if good:
            first = [p.out for p in good[0].procs]
            try:
                side_errs, k_tail = wl.side_runs(run, first)
            except CheckFailed as exc:
                errors += exc.args[0]
            else:
                errors += side_errs
                for r in good:
                    errors += wl.check([p.out for p in r.procs])
                errors += wl.selftest(first)
            if any([p.out for p in r.procs] != first for r in good):
                errors.append("outputs differ between rounds of identical commands")
        else:
            errors.append("no round completed")
        print("round walls (s): " + " ".join(f"{r.wall:.3f}" for r in plain), file=sys.stderr)
        for e in sorted(set(errors)):
            print("CHECK FAILED: " + e, file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = [p for r in rounds for p in r.procs]
    plain_ok = [r for r in plain if r.ok] or plain
    if args.trace:
        traced_ok = [r for r in traced if r.ok] or traced
        per_op = [layer_metrics(r.spans) for r in traced_ok if r.spans] or [layer_metrics([])]
        metrics = {name: {"value": statistics.median(m[name] for m in per_op),
                          "unit": layer_unit(name)} for name in per_op[0]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r.wall for r in traced_ok)
            - statistics.median(r.wall for r in plain_ok),
            "unit": "s",
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall for r in plain_ok), "unit": "s"},
            "cpu_s": {"value": statistics.median(sum(p.cpu for p in r.procs) for r in plain_ok),
                      "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(max(p.rss_mib for p in r.procs)
                                                        for r in plain_ok), "unit": "MiB"},
            "K_tail_bound": {"value": k_tail, "unit": "1"},
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(p.code != 0 for p in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
