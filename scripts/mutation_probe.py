"""Single-site mutation probe of the engine, reductions, core, oracle, check, input types and report.

Each mutant changes one operator or constant in one of ``engine``,
``aggregates``, ``core``, ``oracle``, ``verify``, ``scenario`` and
``report``, made with stdlib ``ast``:

* ``+`` and ``-`` swap, ``*`` and ``//`` swap, ``/`` becomes ``*``
  (augmented assignments too);
* a comparison flips to its negation (``==``/``!=``, ``<``/``>=``,
  ``>``/``<=``, ``is``/``is not``, ``in``/``not in``);
* ``and`` and ``or`` swap;
* an integer constant 0 becomes 1, and 1 becomes 0;
* a unary minus is dropped.

Every mutant is written into a temporary copy of the repository (its
``src/``, ``tests/``, ``scripts/``, ``perfbench/`` and README), never into
the working tree, and judged by the first of these that catches it:

1. ``verify``: ``verify_scenario`` on the verify-table corpus and on the
   golden scenarios reports a deviation above its tolerance, or raises.
   It does not judge a mutant of ``verify`` itself, nor one of ``report``,
   whose code ``verify_scenario`` never runs;
2. goldens: ``tests/test_golden.py --check`` fails;
3. tier-1: ``pytest -x`` over ``tests/`` fails.

A mutant that none of them catches survives. The probe prints one line
per mutant that ``verify`` misses, with its judge, and a table of counts
per module. ``--modules`` picks the modules to mutate (all seven by
default), and ``--json PATH`` also writes the counts per module and
judge, and the site of each mutant that ``verify`` misses, to ``PATH``.
A full run takes some minutes, and is not part of the test suite:

    python3 scripts/mutation_probe.py
    python3 scripts/mutation_probe.py --modules oracle --json oracle-mutants.json
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("engine", "aggregates", "core", "oracle", "verify", "scenario", "report")
COPIED = ("src", "tests", "scripts", "perfbench", "README.md", "pyproject.toml")
JUDGES = ("verify", "goldens only", "tier-1 only")

_BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
           ast.FloorDiv: ast.Mult, ast.Div: ast.Mult}
_COMPARES = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
             ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
             ast.In: ast.NotIn, ast.NotIn: ast.In}
_BOOLOPS = {ast.And: ast.Or, ast.Or: ast.And}

# verify on every case of the verify table and of the goldens; exit 1 when
# verify flags a case, 2 when the cases cannot be built
_VERIFY_JUDGE = """
import sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "scripts", "tests"]
try:
    import test_golden, test_verify_table
    from bayesbits import load_scenario
    from bayesbits.verify import verify_scenario
    cases = list(test_verify_table.scenarios().values())
    with tempfile.TemporaryDirectory() as tmp:
        paths = test_golden.scenario_paths(Path(tmp))
        cases += [load_scenario(p) for p in paths.values()]
except BaseException:
    sys.exit(2)
for scenario in cases:
    try:
        max_dev, _, tol = verify_scenario(scenario)
        if not max_dev <= tol:
            sys.exit(1)
    except Exception:
        sys.exit(1)
"""


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int | None, str]]:
    """Each mutable site of ``tree`` in walk order: its node, the index of a
    comparison operator (None elsewhere), and a description."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _BINOPS:
            found.append((node, None, f"{type(node.op).__name__} -> "
                                      f"{_BINOPS[type(node.op)].__name__}"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                found.append((node, i, f"{type(op).__name__} -> {_COMPARES[type(op)].__name__}"))
        elif isinstance(node, ast.BoolOp):
            found.append((node, None, f"{type(node.op).__name__} -> "
                                      f"{_BOOLOPS[type(node.op)].__name__}"))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0, 1)):
            found.append((node, None, f"{node.value} -> {1 - node.value}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append((node, None, "drop unary minus"))
    return found


class _DropMinus(ast.NodeTransformer):
    def __init__(self, target: ast.AST) -> None:
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutant_source(source: str, k: int) -> str:
    """``source`` with its ``k``-th site mutated, unparsed."""
    tree = ast.parse(source)
    node, i, _ = _sites(tree)[k]
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = _BINOPS[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[i] = _COMPARES[type(node.ops[i])]()
    elif isinstance(node, ast.BoolOp):
        node.op = _BOOLOPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value = 1 - node.value
    else:
        tree = _DropMinus(node).visit(tree)
    return ast.unparse(tree)


def _exit_code(cwd: Path, argv: list[str], timeout: int) -> int:
    """The exit code of ``argv`` run in ``cwd`` with ``cwd/src`` on the path, as
    tier-1 runs; 1 on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src")}
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return 1


def judge(tree: Path, module: str | None = None) -> str | None:
    """The first judge that catches the code in ``tree``, in which ``module`` is mutated, or None.

    ``verify`` does not judge its own mutants, where the check would judge
    itself, nor ``report``'s, whose code it never runs.
    """
    python = sys.executable
    if module not in ("verify", "report") and _exit_code(tree, [python, "-c", _VERIFY_JUDGE], 300) == 1:
        return JUDGES[0]
    if _exit_code(tree, [python, "tests/test_golden.py", "--check"], 300):
        return JUDGES[1]
    tier1 = [python, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    if _exit_code(tree, tier1, 900):
        return JUDGES[2]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modules", nargs="+", choices=MODULES, default=list(MODULES),
                        help="modules to mutate (default: all)")
    parser.add_argument("--json", metavar="PATH", type=Path,
                        help="also write the counts and the sites verify misses here")
    args = parser.parse_args(argv)
    modules = [m for m in MODULES if m in args.modules]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            path = ROOT / name
            if path.is_dir():
                shutil.copytree(path, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(path, tree / name)
        package = tree / "src" / "bayesbits"
        sources = {m: (ROOT / "src" / "bayesbits" / f"{m}.py").read_text("utf-8")
                   for m in modules}
        for module, source in sources.items():  # unparsed, as every mutant is
            (package / f"{module}.py").write_text(ast.unparse(ast.parse(source)), "utf-8")
        if judge(tree) is not None:
            print("the unmutated copy fails a judge; no mutant was judged", file=sys.stderr)
            return 1
        counts = {m: dict.fromkeys((*JUDGES, "survived"), 0) for m in modules}
        missed = []  # each mutant that verify misses: its site and its judge
        for module, source in sources.items():
            sites = _sites(ast.parse(source))
            for k, (node, _, what) in enumerate(sites):
                (package / f"{module}.py").write_text(mutant_source(source, k), "utf-8")
                caught = judge(tree, module)
                counts[module][caught or "survived"] += 1
                if caught != JUDGES[0]:
                    missed.append({"module": module, "line": node.lineno, "mutation": what,
                                   "judge": caught or "survived"})
                    print(f"{caught or 'survived'}: {module}.py line {node.lineno}: {what}",
                          flush=True)
            (package / f"{module}.py").write_text(ast.unparse(ast.parse(source)), "utf-8")
    header = ["module", *JUDGES, "survived"]
    rows = [[m, *map(str, c.values())] for m, c in counts.items()]
    totals = [sum(c[j] for c in counts.values()) for j in (*JUDGES, "survived")]
    mutants = sum(totals)
    caught = f"{totals[0]}, {100 * totals[0] // mutants}%"
    rows.append(["total", caught, *map(str, totals[1:])])
    print(f"{mutants} mutants")
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    if args.json:
        document = {"mutants": mutants, "counts": counts, "missed_by_verify": missed}
        args.json.write_text(json.dumps(document, indent=2) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
