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
