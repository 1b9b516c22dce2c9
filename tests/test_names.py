"""Every bayesbits name that ``perfbench/`` and ``scripts/`` import resolves.

The scan reads those files with ``ast`` and imports nothing from them. It
collects ``from bayesbits[.mod] import X`` and ``alias.X`` for every
``import bayesbits as alias``. The scripts and the README's python blocks
import only public library names: nothing private, and of
``bayesbits.cli`` only ``main``.
"""

import ast
import importlib
import re
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


def script_and_readme_sources() -> list[tuple[str, str]]:
    """(where, source) of each file under ``scripts/`` and each python block of the README."""
    scripts = sorted(ROOT.glob("scripts/*.py"))
    sources = [(str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")) for path in scripts]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    return sources + [(f"README.md python block {i}", block) for i, block in enumerate(blocks, 1)]


def is_private_or_cli(name: str) -> bool:
    """Whether the dotted ``bayesbits`` name is private, or is ``bayesbits.cli`` or in it but ``main``."""
    parts = name.split(".")
    return any(part.startswith("_") for part in parts[1:]) or (
        parts[1:2] == ["cli"] and parts[2:] != ["main"]
    )


def test_scripts_and_readme_import_only_public_names():
    sources = script_and_readme_sources()
    assert any(where.startswith("README.md") for where, _ in sources)
    found = []
    for where, source in sources:
        for node in ast.walk(ast.parse(source, where)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{where}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] == "bayesbits" and is_private_or_cli(name)
            ]
    assert found == []
