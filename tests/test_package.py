"""Package-wide structure checks."""

import ast
import importlib
from pathlib import Path

import meanval


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
