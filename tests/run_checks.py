"""Run the ``--check`` entries of the test suites under several interpreters.

The golden, parser, start-up and verify-table suites each run without
pytest as ``<python> tests/<suite>.py --check``. This script runs all
four under every interpreter it is given, prints one line per suite and
interpreter, and exits 1 if any check fails:

    python3 tests/run_checks.py ~/.pyenv/versions/3.10.13/bin/python python3.13

An interpreter is named by its path or by a command on ``PATH``. With
none given, the checks run under the interpreter running this script.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SUITES = ("test_golden.py", "test_parser.py", "test_startup.py", "test_verify_table.py")


def run_suite(python: str, suite: str) -> tuple[bool, str]:
    """Whether ``suite`` passes under ``python``, and its last line of output."""
    try:
        done = subprocess.run(
            [python, str(TESTS / suite), "--check"], capture_output=True, text=True, timeout=600
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return False, f"did not run: {exc}"
    lines = (done.stdout + done.stderr).strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else f"no output, exit {done.returncode}"


def main(argv: list[str]) -> int:
    if any(arg.startswith("-") for arg in argv):
        print("usage: python3 tests/run_checks.py [python ...]", file=sys.stderr)
        return 2
    failed = 0
    for name in argv or [sys.executable]:
        python = shutil.which(name) or name
        for suite in SUITES:
            ok, summary = run_suite(python, suite)
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {suite} {python}: {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
