"""Package-wide structure checks."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanval

SRC = str(Path(__file__).resolve().parent.parent / "src")

# what ``from meanval import ...`` gave when the package imported every module
# at once, by module: each name must still resolve to the same object
EXPORTS = {
    "arith": ["ArithParams", "ExactValue", "PrimeFactorization", "composite_weighted_divisor",
              "divisor_count", "factorize", "minimal_power", "omega", "weighted_divisor"],
    "coeffs": ["ConstantsBundle", "bundle", "cofactor_value"],
    "errors": ["ConfigError", "InsufficientDataError", "MeanvalError", "ResourceError",
               "ToleranceError"],
    "fit": ["FitReport", "fit_exponent", "residuals"],
    "sieve": ["SummatoryTable", "geometric_checkpoints", "summatory"],
    "verify": ["VerifyReport", "global_factorization_check", "power_series_check", "local_factor",
               "numerator_identity_check", "run_battery"],
    "zeta": ["EULER_GAMMA", "ZetaValue", "zeta", "zeta_prime"],
}


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports meanval from ./src."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_no_module_declares_global():
    # module-level state is immutable: no function rebinds a module global
    pkg = Path(meanval.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert offenders == []


def test_traced_benchmark_patch_targets_exist():
    # perfbench/trace_cli.py wraps these attributes before a traced run; each
    # _patch([module, ...], "attr", ...) reads attr from its first module,
    # whose variable there is named after the meanval module it holds
    script = Path(__file__).resolve().parent.parent / "perfbench" / "trace_cli.py"
    calls = [
        node
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_patch"
    ]
    assert calls
    missing = []
    for call in calls:
        modules, attr = call.args[0], call.args[1].value
        module = importlib.import_module("meanval." + modules.elts[0].id)
        if not hasattr(module, attr):
            missing.append(f"{module.__name__}.{attr}")
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    # a name imported only so that a test can patch it, or re-exported from a
    # module other than the package's __init__, is dead code; a name counts as
    # used when it appears as a Name node, the root of every Attribute chain
    pkg = Path(meanval.__file__).parent
    unused = []
    for path in sorted(pkg.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_only_the_cli_forms_documents():
    # the document envelope is written in cli._document alone, so a new
    # document cannot grow an envelope of its own in a library module
    pkg = Path(meanval.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == "schema_version"
    ]
    assert offenders == []


def test_only_the_sieve_names_the_reference_table():
    # the per-n table is the tests' oracle: no command builds it and the
    # package does not export it, so no module but sieve imports, calls or
    # reads it
    table = {"build_spf", "_decompose", "tabulate"}
    pkg = Path(meanval.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(pkg.rglob("*.py"))
        if path.name != "sieve.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        if name in table
    ]
    assert offenders == []


def test_only_xsum_constructs_exact_sums():
    # every exact sum is one call of xsum.split_sums, which runs the one walk
    # loop that feeds ExactSums, so no other module builds one
    pkg = Path(meanval.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.rglob("*.py"))
        if path.name != "xsum.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "ExactSum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert offenders == []


def test_only_the_cli_writes_numbers_as_text():
    # the library modules return data only: a float, int or Fraction becomes
    # text in cli alone, so no other module calls repr() or str()
    pkg = Path(meanval.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno} {node.func.id}()"
        for path in sorted(pkg.rglob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("repr", "str")
    ]
    assert offenders == []


def test_import_loads_no_numpy_and_leaves_the_environment_alone():
    # nor does the single-value API: trial division finds every prime it needs
    out = _fresh(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import meanval\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
        "from meanval import ArithParams, factorize, composite_weighted_divisor\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "False True\nFalse\n"


def test_import_loads_only_its_own_two_modules():
    # the errors and zeta need neither NumPy nor the modules that dataclasses
    # pulls in, which would cost import time on every run
    out = _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import meanval\n"
        "loaded = set(sys.modules) - before\n"
        "heavy = {'numpy', 'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "print(sorted(m for m in loaded if m.startswith('meanval')), sorted(heavy & loaded))\n"
    )
    assert out == "['meanval', 'meanval.errors', 'meanval.zeta'] []\n"


@pytest.mark.parametrize("k, loaded", [("1", "meanval.hyperbola"), ("1.5", "meanval.classtotals")])
def test_cli_loads_the_sum_backends_only_when_it_sums(k, loaded):
    # constants and verify never run the class totals or the powerful-number
    # sums, so their processes need not compile them; summatory loads the one
    # backend that its k calls
    out = _fresh(
        "import contextlib, io, sys\n"
        "import meanval.cli\n"
        "def backends():\n"
        "    return [m for m in ('meanval.classtotals', 'meanval.hyperbola') if m in sys.modules]\n"
        "seen = [backends()]\n"
        "for argv in (['constants', '--prime-cutoff', '1000'],\n"
        "             ['verify', '--series-limit', '1000', '--prime-cutoff', '1000'],\n"
        f"             ['sum', '--k', '{k}', '--N', '100']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert meanval.cli.main(argv) == 0\n"
        "    seen.append(backends())\n"
        "print(seen)\n"
    )
    assert out == f"[[], [], [], ['{loaded}']]\n"


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    _fresh(code)


def test_all_lists_every_export():
    assert sorted(meanval.__all__) == sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_the_object_of_its_module(module, name):
    assert getattr(meanval, name) is getattr(importlib.import_module("meanval." + module), name)


def test_zeta_stays_the_function_after_every_submodule_loads():
    # the function meanval.zeta shares its name with the submodule, which the
    # import system binds on the package when it first loads the submodule
    names = sorted(path.stem for path in Path(meanval.__file__).parent.glob("*.py"))
    out = _fresh(
        "import importlib, os, sys\n"
        "before = dict(os.environ)\n"
        "import meanval.cli\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module('meanval.' + name)\n"
        "from meanval import zeta\n"
        "print(meanval.zeta is zeta is sys.modules['meanval.zeta'].zeta, callable(zeta),\n"
        "      dict(os.environ) == before)\n"
    )
    assert out == "True True True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'build_spf'"):
        meanval.build_spf
    assert not hasattr(meanval, "primes_up_to")


def test_dir_lists_every_export():
    assert {"__all__", "__version__", *meanval.__all__} <= set(dir(meanval))
