import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanval import cli, errors

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*args, env_extra=None):
    # as the console script and the benchmark run it: through __main__.run
    return subprocess.run(
        [sys.executable, "-m", "meanval", *args],
        capture_output=True,
        text=True,
        env=_env(env_extra),
    )


# A child that this process starts by vfork, as subprocess does, takes this
# process's peak RSS into its own ru_maxrss at exec. So a small launcher
# starts the CLI and reports the CLI's peak, which then carries only the
# launcher's own few MiB from before the exec.
_PEAK_LAUNCHER = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "meanval", *sys.argv[2:]], os.environ)
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


class TestErrorsBeforeWork:
    """``sum --with-main`` and ``fit`` refuse a bad input before any sum or constant."""

    @pytest.mark.parametrize("command", [["sum", "--with-main"], ["fit"]])
    @pytest.mark.parametrize("argv, budget_mb, code, message", [
        (["--N", "1000", "--grid", "list:"], None, 2, "error: checkpoint grid is empty"),
        (["--N", "1000", "--grid", "list:10,2000"], None, 2, "error: grid points must lie in"),
        (["--k", "1.5", "--N", "10000000"], "1", 3, "resource error: "),
    ])
    def test_checked_before_the_constants(self, command, argv, budget_mb, code, message,
                                          monkeypatch, capsys):
        from meanval import coeffs

        monkeypatch.setattr(coeffs, "bundle", lambda *a, **kw: pytest.fail("constants formed"))
        if budget_mb is not None:
            monkeypatch.setenv("MEANVAL_MEM_LIMIT_MB", budget_mb)
        assert cli.main([command[0], *argv, "--prime-cutoff", "1000000000", *command[1:]]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(message), captured.err

    @pytest.mark.parametrize("argv, message", [
        (["sum", "--N", "100000", "--with-main", "--out", "{tmp}/missing/x.csv"],
         "error: cannot write {tmp}/missing/x.csv: No such file or directory"),
        (["fit", "--N", "100000", "--out", "{tmp}"], "error: cannot write {tmp}: Is a directory"),
        (["constants", "--out", "{tmp}/missing/x.json"], "error: cannot write {tmp}/missing/x.json: "),
        (["fit", "--N", "100000", "--grid", "list:1000,2000,4000,8000,16000"],
         "error: exponent fit needs at least 8 usable checkpoints with x >= 1000, found 5"),
        (["fit", "--N", "100000", "--grid", "list:10,20,999,1000,2000,2000", "--x-min", "20"],
         "error: exponent fit needs at least 8 usable checkpoints with x >= 20, found 4"),
        (["constants", "--out", ""], "error: cannot write : No such file or directory"),
    ], ids=["missing-directory", "directory", "constants", "five-points", "distinct-points", "empty-out"])
    def test_out_and_fit_points_checked_before_any_sum(self, argv, message, tmp_path,
                                                       monkeypatch, capsys):
        from meanval import coeffs, sieve

        monkeypatch.setattr(sieve, "summatory", lambda *a, **kw: pytest.fail("summed"))
        monkeypatch.setattr(coeffs, "bundle", lambda *a, **kw: pytest.fail("constants formed"))
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert cli.main([*argv, "--prime-cutoff", "1000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]  # one line
        assert captured.err.startswith(message.replace("{tmp}", str(tmp_path))), captured.err

    @pytest.mark.parametrize("argv, code", [
        (["--r", str(10**305), "--series-limit", "1000", "--prime-cutoff", "1000"], 3),
        (["--r", "100000000", "--series-limit", "1000", "--prime-cutoff", "1000"], 3),
        (["--r", "10000000", "--series-limit", "10"], 2),
    ], ids=["r-1e305", "r-1e8", "short-series"])
    def test_verify_numerator_past_the_budget(self, argv, code, monkeypatch, capsys):
        # the numerator check's r + 2 coefficients are charged after s, N and P are checked
        # and before either walk
        from meanval import verify

        monkeypatch.delenv("MEANVAL_MEM_LIMIT_MB", raising=False)
        monkeypatch.setattr(verify, "dirichlet_series_truncated", lambda *a, **kw: pytest.fail("walked"))
        assert cli.main(["verify", *argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith("resource error: the numerator check" if code == 3 else "error: ")

    def test_verify_inputs_checked_before_any_identity(self, monkeypatch, capsys):
        # the series length, the cutoff and s belong to the global check, which runs first
        from meanval import verify

        monkeypatch.setattr(verify, "numerator_identity_check", lambda *a, **kw: pytest.fail("checked"))
        assert cli.main(["verify", "--series-limit", "10"]) == 2
        assert capsys.readouterr().err == "error: series length and prime cutoff must both be >= 1000\n"

    def test_out_is_not_opened_before_the_work(self, tmp_path, capsys):
        # a run that fails leaves an existing --out file as it was, and a run that
        # succeeds writes it once, in full
        out = tmp_path / "x.json"
        out.write_text("kept\n")
        assert cli.main(["sum", "--N", "1000", "--grid", "list:", "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"
        assert cli.main(["sum", "--N", "1000", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["N"] == 1000
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["constants"], ["verify"], ["sum", "--N", "10"],
        ["fit", "--r", "3", "--k", "1.5", "--N", "10000000000"],
    ])
    def test_prime_cutoff_below_two_refused_by_the_parser(self, command, monkeypatch, capsys):
        from meanval import coeffs, sieve, verify

        for module, name in ((sieve, "summatory"), (coeffs, "bundle"), (verify, "run_battery")):
            monkeypatch.setattr(module, name, lambda *a, _name=name, **kw: pytest.fail(_name))
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--prime-cutoff", "1"])
        assert exc.value.code == 2
        assert "argument --prime-cutoff: must be >= 2, got 1" in capsys.readouterr().err


SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "schema.json").read_text())


def _names_differ(obj, spec, absent, where):
    """Where obj's keys, and those of its documented sub-objects, differ from spec's."""
    want = set(spec) - absent
    errors = [f"{where}: {sorted(set(obj) ^ want)}"] if set(obj) != want else []
    for name, sub in spec.items():
        if isinstance(sub, dict) and name in obj:
            errors += _names_differ(obj[name], sub, absent, f"{where}.{name}")
        elif isinstance(sub, list) and name in obj:
            for i, item in enumerate(obj[name]):
                errors += _names_differ(item, sub[0], absent, f"{where}.{name}[{i}]")
    return errors


@pytest.mark.parametrize("argv, kind, absent", [
    (["constants", "--prime-cutoff", "10000"], "constants_bundle", set()),
    (["sum", "--k", "1", "--N", "1000"], "summatory_table", set()),
    (["sum", "--k", "1", "--N", "1000", "--with-main", "--prime-cutoff", "10000"],
     "summatory_table", set()),
    (["sum", "--k", "1.5", "--N", "1000"], "summatory_table", {"S_exact"}),
    (["sum", "--k", "1.5", "--N", "1000", "--with-main", "--prime-cutoff", "10000"],
     "summatory_table", {"S_exact"}),
    (["verify", "--format", "json", "--series-limit", "1000", "--prime-cutoff", "1000"],
     "verify_reports", set()),
    (["fit", "--k", "1", "--N", "100000", "--prime-cutoff", "10000"], "fit_report", {"diagnostics"}),
    (["fit", "--k", "2", "--N", "100000", "--prime-cutoff", "10000"], "fit_report", set()),
])
def test_documents_match_schema(argv, kind, absent, capsys):
    # schema.json freezes the field names: S_exact appears only in exact mode,
    # diagnostics only at k != 1, and every other documented name always
    assert cli.main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["schema_version"], obj["kind"]) == (SCHEMA["schema_version"], kind)
    assert _names_differ(obj, SCHEMA["documents"][kind]["fields"], absent, kind) == []


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

    def test_huge_k_does_not_overflow(self):
        # the numerator gap of about 2k is past the double range at k = 1e308, and so is
        # k * (p + 1) in the per-prime derivative; both runs exit 0 without a warning
        env = {"PYTHONWARNINGS": "error::RuntimeWarning"}
        res = run_cli("verify", "--k", "1e308", "--format", "json", env_extra=env)
        assert (res.returncode, res.stderr) == (0, "")
        (numerator,) = [rep for rep in json.loads(res.stdout)["reports"]
                        if rep["identity"] == "numerator_identity"]
        assert (numerator["lhs"], numerator["pass"]) == ("inf", False)
        res = run_cli("constants", "--k", "1e308", env_extra=env)
        assert (res.returncode, res.stderr) == (0, "")

    def test_huge_s_does_not_overflow(self):
        # p**s at the prime cutoff of 1e5 is past the double range from s = 62 on,
        # and 1/(s - 1)**2 in the tail integrals from s = 1.4e154 on
        for s in ("100", "1e160"):
            res = run_cli("verify", "--s", s, "--format", "json",
                          env_extra={"PYTHONWARNINGS": "error"})
            assert res.returncode == 0, (s, res.stderr)
            reports = json.loads(res.stdout)["reports"]
            assert reports and all(rep["pass"] for rep in reports), s

    def test_term_past_the_exact_sums_domain_exits_4(self, monkeypatch, capsys):
        # past the gate's four primes, an inf term fails the prime sum's exact sum
        from meanval import coeffs

        closed_form = coeffs.log_factor_derivative
        monkeypatch.setattr(coeffs, "log_factor_derivative",
                            lambda ps, params: np.where(ps == 997.0, np.inf, closed_form(ps, params)))
        assert cli.main(["constants", "--prime-cutoff", "1000"]) == 4
        assert capsys.readouterr().err == (
            "tolerance failure: an exact sum takes finite terms |x| < 2**998, got inf\n")

    @pytest.mark.parametrize("r", [10**305, 2**1023], ids=["1e305", "2**1023"])
    def test_order_where_r_p_ln_p_passes_the_double_range(self, r):
        # each per-prime derivative is 0, not inf * 0 = nan, with no warning
        res = run_cli("constants", "--r", str(r), env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
        assert (res.returncode, res.stderr) == (0, "")
        assert json.loads(res.stdout)["K"] == "0.7868724601662458"

    def test_order_without_a_finite_float_exits_2(self):
        res = run_cli("constants", "--r", str(10**400))
        assert (res.returncode, res.stderr) == (2, "error: r must have a finite float, got an r of 1329 bits\n")

    def test_failed_rigor_gate_exits_4(self, monkeypatch, capsys):
        # a per-prime derivative off by 1% fails the finite-difference gate
        from meanval import coeffs

        closed_form = coeffs.log_factor_derivative
        monkeypatch.setattr(coeffs, "log_factor_derivative",
                            lambda ps, params: 1.01 * closed_form(ps, params))
        assert cli.main(["constants", "--prime-cutoff", "1000"]) == 4
        assert "tolerance failure" in capsys.readouterr().err


@pytest.mark.parametrize("error, code, label", [
    (errors.ConfigError, 2, "error: "),
    (errors.InsufficientDataError, 2, "error: "),
    (errors.ResourceError, 3, "resource error: "),
    (errors.ToleranceError, 4, "tolerance failure: "),
    (errors.MeanvalError, 2, "error: "),
])
def test_each_error_class_states_its_exit_code(error, code, label, monkeypatch, capsys):
    def fail(args):
        raise error("stopped")

    monkeypatch.setitem(cli._COMMANDS, "constants", fail)
    assert cli.main(["constants"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{label}stopped\n")


@pytest.mark.parametrize("command", [["constants"], ["sum", "--N", "10"], ["verify"],
                                     ["fit", "--N", "10"]])
def test_tol_option_rejected(command):
    # zeta has no tolerance to set: every command rejects --tol as an unknown option
    res = run_cli(*command, "--tol", "1e-12")
    assert res.returncode == 2
    assert "unrecognized arguments: --tol" in res.stderr


@pytest.mark.parametrize("command", [["constants", "--prime-cutoff", "1000"], ["sum", "--N", "100"]])
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_out_is_a_configuration_error(command, target, tmp_path, capsys):
    # the exit-code contract covers --out too: one error line and exit 2, no traceback
    out = tmp_path / "missing" / "x.csv" if target == "missing directory" else tmp_path
    assert cli.main([*command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


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
        for grid in ("list:10,50,100", "list:100,10,50,10"):
            res = run_cli("sum", "--r", "2", "--k", "1", "--N", "100", "--grid", grid)
            obj = json.loads(res.stdout)
            assert [row["x"] for row in obj["rows"]] == [10, 50, 100], grid

    def test_bad_grid(self):
        for grid in ("bogus:3", "geom:abc"):
            res = run_cli("sum", "--r", "2", "--k", "1", "--N", "100", "--grid", grid)
            assert res.returncode == 2, grid
            assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("grid, message", [
        ("geom:0", "grid density must be >= 1, got 0"),
        ("geom:-1", "grid density must be >= 1, got -1"),
        ("list:", "checkpoint grid is empty"),
    ])
    def test_grid_errors_come_from_the_library(self, grid, message):
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "100", "--grid", grid)
        assert (res.returncode, res.stderr) == (2, f"error: {message}\n")

    def test_out_file(self, tmp_path):
        out = tmp_path / "table.csv"
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "10",
                      "--format", "csv", "--out", str(out))
        assert res.returncode == 0
        assert res.stdout == ""
        assert out.read_text().splitlines()[0] == "x,S,main,residual,err_bound"

    @pytest.mark.parametrize("command", [
        ["constants", "--prime-cutoff", "10000", "--format", "json"],
        ["constants", "--prime-cutoff", "10000", "--format", "table"],
        ["sum", "--N", "100", "--format", "json"],
        ["sum", "--N", "100", "--format", "csv"],
        ["sum", "--N", "100", "--format", "table"],
        ["verify", "--series-limit", "1000", "--prime-cutoff", "1000", "--format", "json"],
        ["verify", "--series-limit", "1000", "--prime-cutoff", "1000", "--format", "table"],
        ["fit", "--N", "100000", "--prime-cutoff", "10000", "--format", "json"],
        ["fit", "--N", "100000", "--prime-cutoff", "10000", "--format", "csv"],
    ])
    def test_out_file_matches_stdout(self, tmp_path, command):
        out = tmp_path / "out"
        to_stdout, to_file = run_cli(*command), run_cli(*command, "--out", str(out))
        assert to_stdout.returncode == to_file.returncode == 0, to_stdout.stderr
        assert to_file.stdout == ""
        assert out.read_bytes() == to_stdout.stdout.encode()

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

    @pytest.mark.parametrize("budget", ["-5", "nan", "inf"])
    def test_invalid_memory_budget_is_a_configuration_error(self, budget):
        res = run_cli("sum", "--r", "2", "--k", "1", "--N", "100",
                      env_extra={"MEANVAL_MEM_LIMIT_MB": budget})
        assert res.returncode == 2
        assert "MEANVAL_MEM_LIMIT_MB" in res.stderr and "finite number >= 0" in res.stderr

    def test_int32_limit_exits_3_before_allocating(self, tmp_path):
        # verify's series blocks hold each n and its smooth part as int32
        code, err, peak_mib = run_cli_peak_rss(tmp_path, "verify", "--series-limit", "2147483647")
        assert code == 3, err
        assert "int32" in err and "Traceback" not in err
        assert peak_mib < 100

    def test_dense_geom_grid_exits_3_before_it_is_built(self, tmp_path):
        # about 8e5 points, whose ints, set and lists peaked at 123 MiB before the budget saw them
        code, err, peak_mib = run_cli_peak_rss(
            tmp_path, "sum", "--r", "3", "--k", "1.5", "--N", "1000000", "--grid", "geom:1000000",
            env_extra={"MEANVAL_MEM_LIMIT_MB": "1"},
        )
        assert code == 3, err
        assert "checkpoint grid geom:1000000" in err and "MEANVAL_MEM_LIMIT_MB" in err
        assert peak_mib < 40

    def test_geom_grid_of_1e30_points_exits_3(self, monkeypatch, capsys):
        # its count is formed in ints, so it reaches the budget instead of overflowing a size
        monkeypatch.delenv("MEANVAL_MEM_LIMIT_MB", raising=False)
        assert cli.main(["sum", "--N", str(10**30), "--grid", f"geom:{10**30}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource error: checkpoint grid geom:")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

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

    @pytest.mark.parametrize("args", [
        ["sum", "--N", str(10**400)],
        ["fit", "--N", str(10**400)],
        *(["sum", "--k", k, "--N", str(10**400), "--grid", f"list:{10**400}"] for k in ("1", "1.5", "2")),
    ], ids=["sum-geom", "fit-geom", "sum-list-k1", "sum-list-k1.5", "sum-list-k2"])
    def test_checkpoint_past_the_double_range_exits_3(self, args):
        # the geom grid is refused as it is built, a list point by the int64 reach check;
        # a list grid's sums print their progress line first
        res = run_cli(*args)
        lines = res.stderr.splitlines()
        assert res.returncode == 3 and lines[-1].startswith("resource error: ")
        assert [line for line in lines if not line.startswith("summing to N=")] == [lines[-1]]

    def test_limit_past_the_double_range_with_a_small_grid(self):
        res = run_cli("sum", "--N", str(10**400), "--grid", "list:10")
        assert res.returncode == 0 and json.loads(res.stdout)["rows"][-1]["x"] == 10

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
        for s in ("0.4", "inf", "0", "-1", "nan"):
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


class TestEntryPoint:
    """``python -m meanval`` and the ``meanval`` script start OpenBLAS on one thread."""

    @pytest.mark.parametrize("before, after", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "4"}, "4")])
    def test_run_sets_one_blas_thread_unless_set(self, before, after, monkeypatch):
        from meanval import __main__ as entry

        env, seen = dict(before), []
        monkeypatch.setattr(os, "environ", env)
        monkeypatch.setattr(cli, "main", lambda: seen.append(dict(env)) or 7)
        assert entry.run() == 7
        # the variable is set before the CLI runs, and nothing else is written
        assert seen == [{"OPENBLAS_NUM_THREADS": after}]

    def test_cli_module_runs_as_documented(self):
        # the README documents python -m meanval.cli, which skips run()'s BLAS setting
        res = subprocess.run([sys.executable, "-m", "meanval.cli", "constants"],
                             capture_output=True, text=True, env=_env())
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["kind"] == "constants_bundle"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="lists /proc/self/task (Linux)")
    def test_cli_process_has_one_thread(self, tmp_path):
        # OpenBLAS starts one pool thread per extra CPU at import unless told otherwise;
        # with run()'s setting the process has no thread when split_sums forks
        code = (
            "import os, sys\n"
            "from meanval import __main__ as entry\n"
            "sys.argv = ['meanval', 'constants', '--prime-cutoff', '1000', '--out', sys.argv[1]]\n"
            "code = entry.run()\n"
            "print(code, 'numpy' in sys.modules, len(os.listdir('/proc/self/task')))\n"
        )
        env = _env()
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                             capture_output=True, text=True, env=env)
        assert res.stdout == "0 True 1\n", res.stderr
