"""Golden CLI output: stdout must match the committed files byte for byte.

Each case runs ``cli.main`` on a scenario file and compares its exit
code and stdout with ``tests/golden/<case>.out``. The scenarios are the
three presets, a forgetful 8-door game with a non-uniform exact prior
(one door has prior 0, so it has zero likelihoods, refuted models and an
impossible observation), a forgetful 12-door game with a 36-bit prior,
an exact scenario whose values leave the float range or round to 1
(a ``1/3**700`` prior; posteriors and log-odds ratios within 2**-53 of
1), an exact scenario that repeats unreduced and decimal strings for one
value (``"2/8"``, ``"0.25"``, ``"1/4"``; ``"0/1"`` and ``"0"``), a small
float scenario, a random float scenario whose sums come out a bit
different when floats are added with compensation, as ``sum`` does from
CPython 3.12 on, and an exact scenario whose name and labels need JSON
escapes (a quote, a backslash, a tab, non-ASCII and an astral character).

The cases need no pytest to run. To compare them on any interpreter:

    python3 tests/test_golden.py --check

After a deliberate output change, regenerate the files with

    python3 tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# scenario name -> argv of the `mhp` command that writes it; "floaty",
# "floatsum", "edge", "repeats" and "labels" are committed input files,
# because no generator makes float scenarios, values this far out,
# unreduced strings or labels that need escapes
SCENARIOS = {
    "traditional": ["mhp", "traditional"],
    "biased": ["mhp", "biased"],
    "forgetful": ["mhp", "forgetful"],
    "custom8": [
        "mhp", "custom-8", "--policy", "forgetful",
        "--prior", "1/4,1/8,1/8,1/16,3/16,1/8,1/8,0",
    ],
    # the shape of the benchmark's wide priors: weights over their 36-bit sum
    "custom12w": [
        "mhp", "custom-12", "--policy", "forgetful", "--prior",
        "1664541619/34626525389,4007284549/34626525389,1756499120/34626525389,"
        "4076448287/34626525389,3515793156/34626525389,2018673477/34626525389,"
        "2883269762/34626525389,2485816653/34626525389,925303984/34626525389,"
        "4015507085/34626525389,3952302726/34626525389,3325084971/34626525389",
    ],
}
COMMITTED = ("floaty", "floatsum", "edge", "repeats", "labels")

# case name -> (scenario, argv after the scenario path is put in place of
# "{path}", expected exit code)
CASES: dict[str, tuple[str, list[str], int]] = {}
for _name, _obs in (
    ("traditional", ["Monty_B"]),
    ("biased", ["Monty_C"]),
    ("forgetful", ["Monty_B", "Monty_B_car"]),
    ("custom8", ["Monty_C", "Monty_D4_car"]),
    ("custom12w", ["Monty_C", "Monty_D12_car"]),
    ("floaty", ["y", "z"]),
    ("floatsum", ["x0", "x1"]),
    ("edge", ["x", "y"]),
    ("repeats", ["x", "z"]),
):
    for _x in _obs:
        for _fmt in ("table", "json", "csv"):
            CASES[f"{_name}-solve-{_x}-{_fmt}"] = (
                _name, ["solve", "{path}", "--observe", _x, "--format", _fmt], 0
            )
        CASES[f"{_name}-kl-{_x}"] = (_name, ["kl", "{path}", "--observe", _x], 0)
    CASES[f"{_name}-mi"] = (_name, ["mi", "{path}"], 0)
    CASES[f"{_name}-verify"] = (_name, ["verify", "{path}"], 0)
CASES["custom8-solve-Monty_D8_car-table"] = (
    "custom8", ["solve", "{path}", "--observe", "Monty_D8_car"], 3
)
CASES["biased-solve-Monty_C-table-precision3"] = (
    "biased", ["solve", "{path}", "--observe", "Monty_C", "--precision", "3"], 0
)
# the labels would make awkward file names, so these cases are named here
for _fmt in ("table", "json", "csv"):
    CASES[f"labels-solve-{_fmt}"] = (
        "labels", ["solve", "{path}", "--observe", 'x "seen"', "--format", _fmt], 0
    )
CASES["labels-mi"] = ("labels", ["mi", "{path}"], 0)
CASES["labels-verify"] = ("labels", ["verify", "{path}"], 0)


def run_cli(argv: list[str]) -> tuple[int, str]:
    from bayesbits import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def scenario_paths(root: Path) -> dict[str, str]:
    paths = {name: str(GOLDEN / f"{name}.json") for name in COMMITTED}
    for name, argv in SCENARIOS.items():
        path = root / f"{name}.json"
        code, _ = run_cli(argv + ["--out", str(path)])
        assert code == 0
        paths[name] = str(path)
    return paths


def run_case(case: str, paths: dict[str, str]) -> tuple[int, str]:
    scenario, argv, _ = CASES[case]
    return run_cli([paths[scenario] if arg == "{path}" else arg for arg in argv])


def case_outcome(case: str, paths: dict[str, str]) -> tuple[tuple[int, str], tuple[int, str]]:
    """The exit code and stdout of the case, and the exit code and golden file it must match.

    The scenario path appears in no output, so the files do not depend on it.
    """
    expected = (GOLDEN / f"{case}.out").read_bytes().decode("utf-8")
    return run_case(case, paths), (CASES[case][2], expected)


if __name__ != "__main__":  # collected by pytest; the script below runs without it
    import pytest

    @pytest.fixture(scope="module")
    def paths(tmp_path_factory):
        return scenario_paths(tmp_path_factory.mktemp("golden"))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_golden_output(case, paths):
        got, expected = case_outcome(case, paths)
        assert got == expected


def main(argv: list[str]) -> int:
    """Compare every case with its file (``--check``), or rewrite the files."""
    import tempfile

    check = argv == ["--check"]
    if argv and not check:
        print("usage: python3 tests/test_golden.py [--check]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        scenario_files = scenario_paths(Path(tmp))
        for name in sorted(CASES):
            if check:
                got, expected = case_outcome(name, scenario_files)
                if got != expected:
                    failed.append(name)
                continue
            code, out = run_case(name, scenario_files)
            if code != CASES[name][2]:
                sys.exit(f"{name}: exit code {code}, expected {CASES[name][2]}")
            (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
    if not check:
        print(f"wrote {len(CASES)} golden files to {GOLDEN}")
        return 0
    python = ".".join(map(str, sys.version_info[:3]))
    for name in failed:
        print(f"differs: {name}")
    print(f"{len(CASES) - len(failed)} of {len(CASES)} golden cases match on Python {python}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
