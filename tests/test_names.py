"""Every bayesbits name that ``perfbench/`` and ``scripts/`` import resolves.

The scan reads those files with ``ast`` and imports nothing from them. It
collects ``from bayesbits[.mod] import X`` and ``alias.X`` for every
``import bayesbits as alias``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names() -> set[tuple[str, str]]:
    """(module, name) for each bayesbits name a benchmark or script file uses."""
    names = set()
    for path in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "bayesbits":
                    names.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                aliases.update(
                    alias.asname for alias in node.names if alias.name == "bayesbits" and alias.asname
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    names.add(("bayesbits", node.attr))
    return names


def test_benchmark_and_script_names_resolve():
    names = imported_names()
    assert names  # the scan found the imports it guards
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
