"""Start-up cost: a fresh process loads only what its subcommand runs.

Each check starts a new interpreter, since this one has long since
imported every submodule. ``python -X importtime`` logs every module a
process imports to stderr, whether the import runs at start-up or later.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# modules that solve and mhp never run: the import and decorators behind
# generated classes, the oracle, the verify check and the csv writer
UNUSED_BY_SOLVE = {"dataclasses", "inspect", "bayesbits.oracle", "bayesbits.verify", "csv"}


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def imported(*args: str) -> set[str]:
    """Modules ``python -X importtime <args>`` imports beyond a bare interpreter's own."""
    proc = run_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return _logged(proc.stderr) - _logged(run_python("-X", "importtime", "-c", "pass").stderr)


def _logged(stderr: str) -> set[str]:
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.fixture(scope="module")
def preset(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "traditional.json"
    proc = run_python("-m", "bayesbits.cli", "mhp", "traditional", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["mhp", "biased"],
        ["solve", "{path}", "--observe", "Monty_B", "--format", "table"],
        ["solve", "{path}", "--observe", "Monty_B", "--format", "json"],
    ],
    ids=["mhp", "solve-table", "solve-json"],
)
def test_cli_loads_only_what_the_command_runs(preset, argv):
    loaded = imported("-m", "bayesbits.cli", *[preset if a == "{path}" else a for a in argv])
    assert "bayesbits.scenario" in loaded
    assert not loaded & UNUSED_BY_SOLVE


def test_verify_loads_the_oracle(preset):
    # the check above can see these modules when a command does load them
    loaded = imported("-m", "bayesbits.cli", "verify", preset)
    assert {"bayesbits.oracle", "bayesbits.verify"} <= loaded


def test_package_names_load_on_first_access():
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
    assert proc.returncode == 0, proc.stderr
    before, names, unresolved, missing, listed = json.loads(proc.stdout)
    assert before == []
    assert names and unresolved == []
    assert missing == "module 'bayesbits' has no attribute 'no_such_name'"
    assert listed
