"""Start-up cost: a fresh process loads only what its subcommand runs.

Each check starts a new interpreter, since this one has long since
imported every submodule. ``python -X importtime`` logs every module a
process imports to stderr, whether the import runs at start-up or later.

The checks need no pytest to run. To run them on any interpreter:

    python3 tests/test_startup.py --check
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# modules that solve and mhp never run: the import and decorators behind
# generated classes, the oracle, the verify check and the csv writer
UNUSED_BY_SOLVE = {"dataclasses", "inspect", "bayesbits.oracle", "bayesbits.verify", "csv"}
# the update engine and what is built on it, which mhp never runs
UPDATE = {"bayesbits.engine", "bayesbits.aggregates"}
# what a command that prints a report or a summary loads: mhp loads none of it
REPORT = {"bayesbits.report"} | UPDATE
CLI = ["-m", "bayesbits.cli"]

# case -> (interpreter arguments, with "{path}" for a saved 3-door preset;
# modules the process must load; modules it must not load)
CASES: dict[str, tuple[list[str], set[str], set[str]]] = {
    "mhp": ([*CLI, "mhp", "biased"], {"bayesbits.scenario"}, REPORT | UNUSED_BY_SOLVE),
    "solve-table": (
        [*CLI, "solve", "{path}", "--observe", "Monty_B", "--format", "table"],
        {"bayesbits.scenario"} | REPORT,
        UNUSED_BY_SOLVE,
    ),
    "solve-json": (
        [*CLI, "solve", "{path}", "--observe", "Monty_B", "--format", "json"],
        {"bayesbits.scenario"} | REPORT,
        UNUSED_BY_SOLVE,
    ),
    "kl": (
        [*CLI, "kl", "{path}", "--observe", "Monty_B"],
        {"bayesbits.scenario"} | REPORT,
        UNUSED_BY_SOLVE,
    ),
    "mi": ([*CLI, "mi", "{path}"], {"bayesbits.scenario"} | REPORT, UNUSED_BY_SOLVE),
    # the checks can see these modules when a command does load them
    "verify": ([*CLI, "verify", "{path}"], {"bayesbits.oracle", "bayesbits.verify"} | REPORT, set()),
    "import-cli": (
        ["-c", "import bayesbits.cli"],
        {"bayesbits.cli", "bayesbits.scenario"},
        REPORT | UNUSED_BY_SOLVE,
    ),
}


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def imported(*args: str) -> set[str]:
    """Modules ``python -X importtime <args>`` imports beyond a bare interpreter's own."""
    proc = run_python("-X", "importtime", *args)
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return _logged(proc.stderr) - _logged(run_python("-X", "importtime", "-c", "pass").stderr)


def _logged(stderr: str) -> set[str]:
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def write_preset(directory: Path) -> str:
    """Save the traditional 3-door game in ``directory``; return its path."""
    path = directory / "traditional.json"
    proc = run_python(*CLI, "mhp", "traditional", "--out", str(path))
    if proc.returncode != 0:
        raise RuntimeError(f"mhp traditional exited {proc.returncode}: {proc.stderr}")
    return str(path)


def case_faults(case: str, preset: str | None = None) -> list[str]:
    """Each module the case misses or loads against its entry in :data:`CASES`."""
    args, needed, unused = CASES[case]
    loaded = imported(*[preset if arg == "{path}" else arg for arg in args])
    return [f"{case}: does not load {name}" for name in sorted(needed - loaded)] + [
        f"{case}: loads {name}" for name in sorted(loaded & unused)
    ]


def package_faults() -> list[str]:
    """What goes wrong when a fresh process resolves every package-level name."""
    probe = (
        "import json, sys, bayesbits\n"
        "before = sorted(m for m in sys.modules if m.startswith('bayesbits.'))\n"
        "unresolved = [n for n in bayesbits.__all__ if not hasattr(bayesbits, n)]\n"
        "try:\n"
        "    bayesbits.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "listed = set(bayesbits.__all__) <= set(dir(bayesbits))\n"
        "print(json.dumps([before, bayesbits.__all__, unresolved, missing, listed]))\n"
    )
    proc = run_python("-c", probe)
    if proc.returncode != 0:
        return [f"package: the probe exited {proc.returncode}: {proc.stderr}"]
    before, names, unresolved, missing, listed = json.loads(proc.stdout)
    faults = [f"package: `import bayesbits` loads {name}" for name in before]
    faults += [f"package: {name} does not resolve" for name in unresolved]
    if not names:
        faults.append("package: __all__ is empty")
    if missing != "module 'bayesbits' has no attribute 'no_such_name'":
        faults.append(f"package: an unknown name gives {missing!r}")
    if not listed:
        faults.append("package: dir() misses names in __all__")
    return faults


if __name__ != "__main__":  # collected by pytest; the script below runs without it
    import pytest

    @pytest.fixture(scope="module")
    def preset(tmp_path_factory):
        return write_preset(tmp_path_factory.mktemp("startup"))

    # every case of CASES runs in one test or another; verify and
    # import-cli have tests of their own
    @pytest.mark.parametrize("case", [c for c in CASES if c not in ("verify", "import-cli")])
    def test_cli_loads_only_what_the_command_runs(preset, case):
        assert case_faults(case, preset) == []

    def test_verify_loads_the_oracle(preset):
        assert case_faults("verify", preset) == []

    def test_importing_the_cli_loads_no_engine():
        assert case_faults("import-cli") == []

    def test_package_names_load_on_first_access():
        assert package_faults() == []


def main(argv: list[str]) -> int:
    """Run every case of :data:`CASES` and the package check; print what fails."""
    import tempfile

    if argv != ["--check"]:
        print("usage: python3 tests/test_startup.py --check", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        preset = write_preset(Path(tmp))
        faults = {case: case_faults(case, preset) for case in CASES}
    faults["package"] = package_faults()
    python = ".".join(map(str, sys.version_info[:3]))
    for fault in (f for found in faults.values() for f in found):
        print(fault)
    passed = sum(not found for found in faults.values())
    print(f"{passed} of {len(faults)} start-up checks pass on Python {python}")
    return 0 if passed == len(faults) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
