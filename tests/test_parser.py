"""The CLI builds only the arguments of the subcommand it runs.

``cli.main`` takes the first word of its argv that is not an option as
the subcommand and calls ``cli.build_parser(command)``, which lists all
five subcommands but gives only that one its arguments and its ``-h``.
Each case in CORPUS must give the same exit code, stdout and stderr as a
run whose parser holds every subcommand's arguments, and the exit code
the case names; a case in SAME_AS must also give what its twin gives. Help and usage text wrap to the terminal width, so every run sets
``COLUMNS=80``. argparse words its messages a little differently on each
Python, which is why the corpus compares two runs rather than committed
text.

The corpus needs no pytest to run. To compare it on any interpreter:

    python3 tests/test_parser.py --check
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SCENARIO = str(TESTS / "golden" / "repeats.json")

# case -> (argv, with "{path}" for an exact golden scenario; exit code)
CORPUS: dict[str, tuple[list[str], int]] = {
    "help": (["-h"], 0),
    "help-long": (["--help"], 0),
    "help-abbreviated": (["--he"], 0),
    "help-before-command": (["-h", "verify", "{path}"], 0),
    "mhp-help": (["mhp", "-h"], 0),
    "solve-help": (["solve", "-h"], 0),
    "kl-help": (["kl", "-h"], 0),
    "mi-help": (["mi", "-h"], 0),
    "verify-help": (["verify", "-h"], 0),
    "no-arguments": ([], 2),
    "bogus-command": (["bogus"], 2),
    # main drops a leading "--" before a command (see SAME_AS)
    "double-dash": (["--", "verify", "{path}"], 0),
    "missing-observe": (["solve", "{path}"], 2),
    "missing-variant": (["mhp"], 2),
    "bad-choice": (["solve", "{path}", "--observe", "x", "--format", "xml"], 2),
    "bad-int": (["mhp", "custom", "--doors", "three"], 2),
    "precision-out-of-range": (["kl", "{path}", "--observe", "x", "--precision", "18"], 2),
    "abbreviated-option": (["solve", "{path}", "--obs", "z", "--form", "csv"], 0),
    "unknown-option": (["mi", "{path}", "--bogus"], 2),
    "extra-positional": (["verify", "{path}", "extra"], 2),
    "option-after-command": (["verify", "--", "{path}"], 0),
    # argparse takes "-1" for a positional, so it is the (invalid) command
    "number-before-command": (["-1", "verify", "{path}"], 2),
    "unknown-option-before-command": (["-x", "solve", "{path}", "--observe", "x"], 2),
    "mhp": (["mhp", "custom-4", "--policy", "forgetful", "--pick", "B",
             "--prior", "1/2,1/4,1/8,1/8"], 0),
    "solve": (["solve", "{path}", "--observe", "z", "--format", "json"], 0),
    "kl": (["kl", "{path}", "--observe", "x", "--precision", "3"], 0),
    "mi": (["mi", "{path}"], 0),
    "verify": (["verify", "{path}"], 0),
}

# case -> the case whose exit code, stdout and stderr it must repeat
SAME_AS = {"double-dash": "verify"}


def run_cli(argv: list[str] | None, full: bool = False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``; with ``full``,
    its parser holds every subcommand's arguments."""
    from bayesbits import cli

    build = cli.build_parser
    out, err = io.StringIO(), io.StringIO()
    if full:
        cli.build_parser = lambda command=None: build()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli.build_parser = build
    return code, out.getvalue(), err.getvalue()


def case_argv(case: str) -> list[str]:
    return [SCENARIO if arg == "{path}" else arg for arg in CORPUS[case][0]]


def case_differs(case: str) -> bool:
    argv = case_argv(case)
    ran = run_cli(argv)
    if case in SAME_AS and ran != run_cli(case_argv(SAME_AS[case])):
        return True
    return ran[0] != CORPUS[case][1] or ran != run_cli(argv, full=True)


if __name__ != "__main__":  # collected by pytest; the script below runs without it
    import argparse

    import pytest

    @pytest.fixture(autouse=True)
    def columns(monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_same_output_as_the_full_parser(case):
        argv = case_argv(case)
        ran = run_cli(argv)
        assert ran[0] == CORPUS[case][1]
        assert ran == run_cli(argv, full=True)

    @pytest.mark.parametrize("case", sorted(SAME_AS))
    def test_same_output_as_its_twin(case):
        assert run_cli(case_argv(case)) == run_cli(case_argv(SAME_AS[case]))

    def count_add_argument(monkeypatch) -> list[int]:
        calls = [0]
        original = argparse._ActionsContainer.add_argument

        def counting(self, *args, **kwargs):
            calls[0] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        return calls

    # one -h for the top-level parser and one for the command's subparser,
    # then the command's own arguments; the full parser makes 22 calls
    @pytest.mark.parametrize("case, most", [("verify", 3), ("solve", 6), ("mhp", 8)])
    def test_main_adds_only_its_arguments(monkeypatch, case, most):
        calls = count_add_argument(monkeypatch)
        assert run_cli(case_argv(case))[0] == 0
        assert calls[0] <= most

    def test_build_parser_without_command_is_full(monkeypatch):
        calls = count_add_argument(monkeypatch)
        from bayesbits.cli import build_parser

        build_parser()
        assert calls[0] == 22

    def test_main_reads_sys_argv(monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bayesbits", "verify", SCENARIO])
        ran = run_cli(None)
        assert ran[0] == 0
        assert ran == run_cli(["verify", SCENARIO])

    def test_main_without_arguments_prints_usage(monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bayesbits"])
        code, out, err = run_cli(None)
        assert (code, out) == (2, "")
        assert err.startswith("usage: bayesbits [-h] {mhp,solve,kl,mi,verify} ...\n")


def main(argv: list[str]) -> int:
    """Run every case of the corpus against the full parser."""
    if argv != ["--check"]:
        print("usage: python3 tests/test_parser.py --check", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(TESTS.parent / "src"))
    failed = [case for case in sorted(CORPUS) if case_differs(case)]
    python = ".".join(map(str, sys.version_info[:3]))
    for case in failed:
        print(f"differs: {case}")
    print(f"{len(CORPUS) - len(failed)} of {len(CORPUS)} parser cases match on Python {python}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
