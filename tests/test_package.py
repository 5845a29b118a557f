"""Package-wide structure checks."""

import ast
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
