"""The README's library tour runs, and prints what its comments say."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# the values the tour's comments show, in order
TOUR_VALUES = ["-0.2224", "0.5714", "0.3490", "0.4799", "Fraction(4, 7)"]


def test_library_tour_values():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("\n## Library tour\n")) + len("```python\n")
    source = text[start : text.index("```", start)]
    # number the statements as README lines, for the comments and for tracebacks
    tree = ast.increment_lineno(ast.parse(source), text.count("\n", 0, start))
    lines = text.splitlines()
    namespace: dict = {}
    shown = []
    for node in tree.body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module(body=[node], type_ignores=[]), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(body=node.value), str(README), "eval"), namespace)
        comment = lines[node.end_lineno - 1].split("#", 1)[1]
        expected = re.match(r"\s*(Fraction\(\d+, \d+\)|-?\d+\.\d+)", comment).group(1)
        assert (repr(value) if isinstance(value, Fraction) else f"{value:.4f}") == expected
        shown.append(expected)
    assert shown == TOUR_VALUES
