import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meanval import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "meanval.cli", *args],
        capture_output=True,
        text=True,
        env=_env(env_extra),
    )


# A child that this process starts by vfork, as subprocess does, takes this
# process's peak RSS into its own ru_maxrss at exec. So a small launcher
# starts the CLI and reports the CLI's peak, which then carries only the
# launcher's own few MiB from before the exec.
_PEAK_LAUNCHER = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "meanval.cli", *sys.argv[2:]], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fp:
    fp.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


def run_cli_peak_rss(tmp_path, *args, env_extra=None):
    """Exit code, stderr and the CLI process's own peak RSS in MiB (from os.wait4)."""
    err_path, result_path = tmp_path / "stderr", tmp_path / "result"
    with open(os.devnull, "w") as out, open(err_path, "w") as err:
        subprocess.run([sys.executable, "-c", _PEAK_LAUNCHER, str(result_path), *args],
                       stdout=out, stderr=err, env=_env(env_extra), check=True)
    code, maxrss_kib = map(int, result_path.read_text().split())
    return code, err_path.read_text(), maxrss_kib / 1024


@pytest.mark.parametrize(
    "command", [["constants"], ["verify"], ["sum", "--N", "10"], ["fit", "--N", "10"]]
)
def test_non_finite_weight_rejected(command):
    res = run_cli(*command, "--k", "inf")
    assert res.returncode == 2
    assert "k must be finite" in res.stderr


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_option_is_read(command):
    # an option that its subcommand never reads is a flag that does nothing
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = {a.dest for a in subparsers.choices[command]._actions
               if a.option_strings and a.dest != "help"}
    tree = ast.parse(inspect.getsource(cli._COMMANDS[command]))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    assert options <= read, sorted(options - read)


@pytest.mark.parametrize("k", ["1", "1.5"])
def test_sum_with_main_residuals_match_fit_points(k):
    common = ("--r", "2", "--k", k, "--N", "100000", "--grid", "geom:4", "--prime-cutoff", "10000")
    summed = run_cli("sum", *common, "--with-main")
    fitted = run_cli("fit", *common)
    assert summed.returncode == 0 and fitted.returncode == 0, summed.stderr + fitted.stderr
    rows = json.loads(summed.stdout)["rows"]
    points = json.loads(fitted.stdout)["points"]
    assert [(row["x"], row["residual"]) for row in rows] == [(p["x"], p["R"]) for p in points]


@pytest.mark.parametrize("command", [["sum", "--with-main"], ["fit"]])
def test_residual_formed_once_per_checkpoint(command, monkeypatch, capsys):
    from meanval.coeffs import ConstantsBundle

    calls, mains = [], []
    original, original_main = ConstantsBundle.residual, ConstantsBundle.main_term

    def spy(self, s, main):
        calls.append(main)
        return original(self, s, main)

    def main_spy(self, x):
        mains.append((x, original_main(self, x)))
        return mains[-1][1]

    monkeypatch.setattr(ConstantsBundle, "residual", spy)
    monkeypatch.setattr(ConstantsBundle, "main_term", main_spy)
    argv = [command[0], "--k", "1.5", "--N", "100000", "--prime-cutoff", "10000", *command[1:]]
    assert cli.main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    xs = [row["x"] for row in obj.get("rows") or obj["points"]]
    # the main term too is formed once per checkpoint, and residual takes it
    assert [x for x, _ in mains] == xs
    assert calls == [main for _, main in mains]


class TestConstantsCommand:
    def test_json_output(self):
        res = run_cli("constants", "--r", "2", "--k", "1", "--prime-cutoff", "100000")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["kind"] == "constants_bundle"
        assert abs(float(obj["C"]) - 0.7044422) < 1e-5
        assert "tail_bounds" in obj

    def test_limit_case_large_r(self):
        import math

        res = run_cli("constants", "--r", "40", "--k", "1", "--prime-cutoff", "10000")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert abs(float(obj["C"]) - 6 / math.pi**2) < 1e-9

    def test_r_below_two_rejected(self):
        res = run_cli("constants", "--r", "1", "--k", "1")
        assert res.returncode == 2
        assert "r must be an integer >= 2" in res.stderr

    def test_k_below_one_rejected(self):
        res = run_cli("constants", "--r", "2", "--k", "0.5")
        assert res.returncode == 2
        assert "k must be >= 1" in res.stderr

    def test_table_format(self):
        res = run_cli("constants", "--r", "2", "--k", "1",
                      "--prime-cutoff", "10000", "--format", "table")
        assert res.returncode == 0
        assert "x ln x coefficient" in res.stdout

    def test_non_finite_tolerance_rejected(self):
        res = run_cli("constants", "--r", "2", "--k", "1", "--prime-cutoff", "1000", "--tol", "inf")
        assert res.returncode == 2
        assert "tol must be positive and finite" in res.stderr

    @pytest.mark.parametrize("command", [["constants", "--prime-cutoff", "10000"],
                                         ["sum", "--N", "1000", "--with-main", "--format", "csv"]])
    def test_huge_r_does_not_overflow(self, command):
        import math

        # every warning is an error, so a power that overflows fails the run
        res = run_cli(*command, "--r", "200", "--k", "1", env_extra={"PYTHONWARNINGS": "error"})
        assert res.returncode == 0, res.stderr
        if command[0] == "constants":
            obj = json.loads(res.stdout)
            values = [float(obj[name]) for name in ("C", "H1_prime", "B", "K")]
            tails = {name: float(v) for name, v in obj["tail_bounds"].items()}
            assert all(map(math.isfinite, values + list(tails.values())))
            # zeta(200) and the product over p both equal 1 to far below an ulp
            assert abs(float(obj["C"]) - 6 / math.pi**2) <= tails["C"]
        else:
            last = res.stdout.splitlines()[-1].split(",")
            assert all(map(math.isfinite, map(float, last)))

    def test_huge_s_does_not_overflow(self):
        # p**s at the prime cutoff of 1e5 is past the double range from s = 62 on
        res = run_cli("verify", "--s", "100", "--format", "json",
                      env_extra={"PYTHONWARNINGS": "error"})
        assert res.returncode == 0, res.stderr
        reports = json.loads(res.stdout)["reports"]
        assert reports and all(rep["pass"] for rep in reports)

    def test_unreachable_tolerance_exits_4(self):
        res = run_cli("constants", "--r", "2", "--k", "1",
                      "--prime-cutoff", "1000", "--tol", "1e-30")
        assert res.returncode == 4
        assert "tolerance" in res.stderr.lower()
        # verify takes no tolerance: its battery runs zeta at the default one
        res = run_cli("verify", "--tol", "1e-30")
        assert res.returncode == 2
        assert "unrecognized arguments: --tol" in res.stderr


class TestSumCommand:
    def test_small_sum_exact(self):
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "10")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["rows"][-1]["S"] == "24"
        assert obj["rows"][-1]["S_exact"] == "24/1"

    def test_small_sum_half_integer(self):
        res = run_cli("sum", "--r", "2", "--k", "2", "--N", "10")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["rows"][-1]["S"] == "10.5"
        assert obj["rows"][-1]["S_exact"] == "21/2"

    def test_zero_limit_rejected(self):
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "0")
        assert res.returncode == 2

    def test_csv_format(self):
        res = run_cli("sum", "--r", "2", "--k", "2", "--N", "100", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "x,S,main,residual,err_bound"
        assert lines[1].startswith("10,10.5,")

    def test_with_main_fills_columns(self):
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "1000",
                      "--prime-cutoff", "10000", "--with-main")
        obj = json.loads(res.stdout)
        last = obj["rows"][-1]
        assert last["main"] is not None and last["residual"] is not None

    def test_grid_list(self):
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "100", "--grid", "list:10,50,100")
        obj = json.loads(res.stdout)
        assert [row["x"] for row in obj["rows"]] == [10, 50, 100]

    def test_bad_grid(self):
        for grid in ("bogus:3", "geom:abc"):
            res = run_cli("sum", "--r", "2", "--k", "1", "--N", "100", "--grid", grid)
            assert res.returncode == 2, grid
            assert "Traceback" not in res.stderr

    def test_out_file(self, tmp_path):
        out = tmp_path / "table.csv"
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "10",
                      "--format", "csv", "--out", str(out))
        assert res.returncode == 0
        assert res.stdout == ""
        assert out.read_text().splitlines()[0] == "x,S,main,residual,err_bound"

    def test_memory_budget_env(self):
        # k = 1.5 sieves; k = 1 takes the powerful-number sum and its own gate
        res = run_cli("sum", "--r", "2", "--k", "1.5", "--N", "10000000",
                      env_extra={"MEANVAL_MEM_LIMIT_MB": "1"})
        assert res.returncode == 3
        assert "MEANVAL_MEM_LIMIT_MB" in res.stderr
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "10000000000",
                      env_extra={"MEANVAL_MEM_LIMIT_MB": "1"})
        assert res.returncode == 3
        assert "MEANVAL_MEM_LIMIT_MB" in res.stderr and "powerful" in res.stderr

    def test_int32_limit_exits_3_before_allocating(self, tmp_path):
        # verify's series blocks hold each n and its smooth part as int32
        code, err, peak_mib = run_cli_peak_rss(tmp_path, "verify", "--series-limit", "2147483647")
        assert code == 3, err
        assert "int32" in err and "Traceback" not in err
        assert peak_mib < 100

    @pytest.mark.parametrize("command", [["verify", "--series-limit", "10000000"],
                                         ["constants", "--prime-cutoff", "30000000"],
                                         ["verify", "--r", "2", "--k", "1", "--series-limit", "1000",
                                          "--prime-cutoff", "30000000"]])
    def test_series_and_prime_sums_within_64_mib(self, tmp_path, command):
        # all stream fixed-size blocks: a whole per-n table took 144 MiB, all
        # the primes 101 MiB in constants and 116 MiB in verify's two products
        code, err, peak_mib = run_cli_peak_rss(tmp_path, *command)
        assert code == 0, err
        assert peak_mib < 64

    def test_weight_one_and_a_half_to_1e9_within_256_mib(self, tmp_path):
        # the sieve would need about 10 GiB here; the class totals need a few MiB
        code, err, peak_mib = run_cli_peak_rss(
            tmp_path, "sum", "--r", "3", "--k", "1.5", "--N", "1000000000", "--grid", "geom:2",
            env_extra={"MEANVAL_MEM_LIMIT_MB": "256"},
        )
        assert code == 0, err
        assert peak_mib < 256

    def test_threads_note(self):
        res = run_cli("sum", "--r", "2", "--k", "1.5", "--N", "100", "--threads", "3")
        assert res.returncode == 0
        assert res.stderr == "note: --threads 3 has no effect; the sums run on one thread\n"
        assert run_cli("sum", "--r", "2", "--k", "1.5", "--N", "100", "--threads", "1").stderr == ""

    def test_int64_overflow_exits_3(self):
        res = run_cli("sum", "--k", "1", "--N", str(10**30))
        assert res.returncode == 3
        assert "overflow" in res.stderr and "Traceback" not in res.stderr

    def test_weight_two_to_1e15_within_default_budget(self):
        # at k = 2, h lives on the m whose exponents are all >= r + 1: ~1.5e5 of them
        res = run_cli("sum", "--r", "2", "--k", "2", "--N", str(10**15))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["rows"][-1]["x"] == 10**15


class TestVerifyCommand:
    def test_weight_one_all_pass(self):
        res = run_cli("verify", "--r", "2", "--k", "1")
        assert res.returncode == 0
        assert "FAIL" not in res.stdout
        assert "PASS" in res.stdout

    def test_weight_two_reports_gap(self):
        res = run_cli("verify", "--r", "2", "--k", "2", "--format", "json")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        failed = [rep for rep in obj["reports"] if not rep["pass"]]
        assert [rep["identity"] for rep in failed] == ["numerator_identity"]
        glob = [rep for rep in obj["reports"] if rep["identity"] == "global_factorization"][0]
        assert glob["pass"] is True
        assert glob["details"]["closed_form_within_bound"] is False

    def test_s_out_of_region_rejected(self):
        for s in ("0.4", "inf"):
            res = run_cli("verify", "--r", "2", "--k", "1", "--s", s)
            assert res.returncode == 2, s
            assert "1.5" in res.stderr


class TestFitCommand:
    def test_json_pipeline(self):
        res = run_cli("fit", "--r", "2", "--k", "1", "--N", "100000",
                      "--prime-cutoff", "100000")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["kind"] == "fit_report"
        assert "theta" in obj["fit"]
        assert float(obj["fit"]["theta"]) <= 0.75

    def test_csv_residual_dump(self):
        res = run_cli("fit", "--r", "2", "--k", "1", "--N", "100000",
                      "--prime-cutoff", "10000", "--format", "csv")
        assert res.returncode == 0
        first = res.stdout.splitlines()[0].split()
        assert len(first) == 2
        int(first[0]), float(first[1])

    def test_insufficient_points(self):
        res = run_cli("fit", "--r", "2", "--k", "1", "--N", "100000",
                      "--prime-cutoff", "10000", "--grid", "list:1000,2000,4000,8000,16000")
        assert res.returncode == 2
        assert "at least" in res.stderr

    def test_weight_two_from_x_one(self):
        # the diagnostics skip x = 1, where ln x = 0; the fit keeps it
        res = run_cli("fit", "--r", "2", "--k", "2", "--N", "100000", "--grid",
                      "list:1,10,20,50,100,200,500,1000,2000,5000,10000,100000",
                      "--x-min", "1", "--prime-cutoff", "10000")
        assert res.returncode == 0, res.stderr
        obj = json.loads(res.stdout)
        assert obj["fit"]["points_used"] == 12
        assert "1" not in obj["diagnostics"]["S_over_x_ln_x"]

    def test_progress_goes_to_stderr_only(self):
        res = run_cli("fit", "--r", "2", "--k", "1", "--N", "100000",
                      "--prime-cutoff", "10000")
        assert res.returncode == 0
        json.loads(res.stdout)  # stdout is pure data
        assert "constants" in res.stderr
