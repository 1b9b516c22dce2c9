"""The CLI checks a subcommand's argv with a parser of that subcommand alone.

When the first word of its argv names a subcommand, ``cli.parse_args``
builds one parser with that command's arguments and nothing else: no
``-h``, a formatter of fixed width (so no terminal query), and an
``error()`` that raises instead of printing and exiting. It parses the
rest of argv with ``parse_known_args``. An error, or a word left over,
sends argv to the full parser of ``cli.build_parser()``, the only parser
that prints help, usage or an error. Every other argv gets the full
parser too: top-level help, no command, an unknown command, an option
before the command.

Each case in CORPUS must give the same exit code, stdout and stderr as a
reference run whose ``cli.parse_args`` is ``build_parser().parse_args``
(a run that fails unless it built the full parser's 6 parsers), and the
exit code the case names; a case in SAME_AS must also give what its twin
gives. Help and usage text wrap to the terminal width, so every run sets
``COLUMNS=80``. argparse words its messages a little differently on each
Python, which is why the corpus compares two runs rather than committed
text. The parser work of a call is pinned too: ``main`` on a well-formed
subcommand call builds 1 parser with its command's own arguments alone,
at most 2 argparse ``gettext`` calls and no terminal-size query, and
``parse_args`` writes nothing; an argv with a word left over builds
1 + 6 parsers, and ``build_parser()`` builds 6 parsers with 22
``add_argument`` calls.

The corpus and the work checks need no pytest to run. To check them on
any interpreter:

    python3 tests/test_parser.py --check
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

TESTS = Path(__file__).resolve().parent
SCENARIO = str(TESTS / "golden" / "repeats.json")

# case -> (argv, with "{path}" for an exact golden scenario; exit code)
CORPUS: dict[str, tuple[list[str], int]] = {
    "help": (["-h"], 0),
    "help-long": (["--help"], 0),
    "help-abbreviated": (["--he"], 0),
    "help-before-command": (["-h", "verify", "{path}"], 0),
    "help-after-path": (["solve", "{path}", "-h"], 0),
    "help-before-path": (["mi", "-h", "{path}"], 0),
    "mhp-help": (["mhp", "-h"], 0),
    "solve-help": (["solve", "-h"], 0),
    "kl-help": (["kl", "-h"], 0),
    "mi-help": (["mi", "-h"], 0),
    "verify-help": (["verify", "-h"], 0),
    "no-arguments": ([], 2),
    "bogus-command": (["bogus"], 2),
    # a subcommand is never abbreviated, so "ver" gets the full parser
    "abbreviated-command": (["ver", "{path}"], 2),
    "dash": (["-"], 2),
    "dash-before-command": (["-", "verify"], 2),
    "double-dash-alone": (["--"], 2),
    "double-dash-before-bogus": (["--", "bogus"], 2),
    # main drops a leading "--" before a command (see SAME_AS)
    "double-dash": (["--", "verify", "{path}"], 0),
    "missing-observe": (["solve", "{path}"], 2),
    "missing-variant": (["mhp"], 2),
    "missing-scenario": (["verify"], 2),
    "missing-out-value": (["mhp", "traditional", "--out"], 2),
    "empty-prior": (["mhp", "custom-3", "--prior", ""], 2),
    "unknown-option-with-value": (["mhp", "traditional", "--zzz", "1"], 2),
    "bad-choice": (["solve", "{path}", "--observe", "x", "--format", "xml"], 2),
    "bad-int": (["mhp", "custom", "--doors", "three"], 2),
    "precision-out-of-range": (["kl", "{path}", "--observe", "x", "--precision", "18"], 2),
    "negative-precision": (["kl", "{path}", "--observe", "x", "--precision", "-1"], 2),
    "abbreviated-option": (["solve", "{path}", "--obs", "z", "--form", "csv"], 0),
    "option-with-equals": (["solve", "{path}", "--observe=z"], 0),
    "double-dash-before-option": (["solve", "{path}", "--", "--observe", "z"], 2),
    "unknown-option": (["mi", "{path}", "--bogus"], 2),
    "extra-positional": (["verify", "{path}", "extra"], 2),
    "option-after-command": (["verify", "--", "{path}"], 0),
    # argparse takes "-1" for a positional, so it is the (invalid) command
    "number-before-command": (["-1", "verify", "{path}"], 2),
    "negative-before-command": (["-5", "mi", "{path}"], 2),
    "decimal-before-command": (["-.5", "mi", "{path}"], 2),
    "unknown-option-before-command": (["-x", "solve", "{path}", "--observe", "x"], 2),
    "mhp": (["mhp", "custom-4", "--policy", "forgetful", "--pick", "B",
             "--prior", "1/2,1/4,1/8,1/8"], 0),
    "solve": (["solve", "{path}", "--observe", "z", "--format", "json"], 0),
    "kl": (["kl", "{path}", "--observe", "x", "--precision", "3"], 0),
    "mi": (["mi", "{path}"], 0),
    "verify": (["verify", "{path}"], 0),
    # what the subcommand's own parser leaves over goes to the full parser
    "mhp-unknown-option": (["mhp", "traditional", "--zzz"], 2),
    "mhp-extra-positional": (["mhp", "traditional", "extra"], 2),
    "solve-unknown-option": (["solve", "{path}", "--observe", "z", "--zzz"], 2),
    "solve-extra-positional": (["solve", "{path}", "--observe", "z", "extra"], 2),
    "kl-unknown-option": (["kl", "{path}", "--observe", "x", "--zzz"], 2),
    "kl-extra-positional": (["kl", "{path}", "extra", "--observe", "x"], 2),
    "mi-extra-positional": (["mi", "{path}", "extra"], 2),
    "verify-unknown-option": (["verify", "{path}", "--zzz"], 2),
    "verify-with-observe": (["verify", "{path}", "--observe", "x"], 2),
    "mi-with-format": (["mi", "{path}", "--format", "csv"], 2),
    "unknown-option-then-help": (["solve", "{path}", "--zzz", "-h"], 0),
    # "--o" abbreviates --observe alone; "--p" could be three mhp options
    "abbreviated-observe": (["solve", "{path}", "--o", "z"], 0),
    "ambiguous-option": (["mhp", "custom-3", "--p", "B"], 2),
    "format-with-equals": (["solve", "{path}", "--format=csv"], 2),
    "two-double-dashes": (["verify", "--", "--", "{path}"], 2),
    # the subcommand's own parser has no -h: its help, even abbreviated,
    # and an option that -h leaves without a value go to the full parser
    "help-abbreviated-after-command": (["solve", "{path}", "--observe", "z", "--he"], 0),
    "help-as-option-value": (["solve", "{path}", "--observe", "-h"], 2),
    "help-long-after-path": (["verify", "{path}", "--help"], 0),
    "help-shortest-abbreviation": (["mhp", "custom-3", "--h"], 0),
}

# case -> the case whose exit code, stdout and stderr it must repeat
SAME_AS = {"double-dash": "verify"}


def run_cli(argv: list[str] | None, full: bool = False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``; with ``full``,
    ``main`` takes its namespace from the full parser of ``build_parser()``."""
    from bayesbits import cli

    parse = cli.parse_args
    out, err = io.StringIO(), io.StringIO()
    if full:
        cli.parse_args = lambda argv: cli.build_parser().parse_args(argv)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli.parse_args = parse
    return code, out.getvalue(), err.getvalue()


def full_parser_run(argv: list[str]) -> tuple[int, str, str]:
    """``run_cli(argv, full=True)``; AssertionError unless that run built
    the 6 parsers of the full parser."""
    ran = []
    work = count_parser_work(lambda: ran.append(run_cli(argv, full=True)))
    if work["parsers"] != 6:
        raise AssertionError(f"the reference run of {argv} built {dict(work)}")
    return ran[0]


# case -> most add_argument calls main makes on it: the command's own
# arguments alone
MOST_ARGUMENTS = {"verify": 1, "solve": 4, "mhp": 6}

# what count_parser_work counts -> (owner, attribute) it wraps
COUNTED = {
    "parsers": (argparse.ArgumentParser, "__init__"),
    "add_argument": (argparse._ActionsContainer, "add_argument"),
    "gettext": (argparse, "_"),
    "terminal_size": (shutil, "get_terminal_size"),
}


def count_parser_work(call: Callable[[], object]) -> Counter:
    """The argparse parsers constructed, and the ``add_argument``,
    ``gettext`` and terminal-size calls made, while ``call()`` runs."""
    counts: Counter = Counter()
    originals = {key: getattr(owner, name) for key, (owner, name) in COUNTED.items()}

    def counting(key: str) -> Callable:
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return originals[key](*args, **kwargs)

        return wrapper

    try:
        for key, (owner, name) in COUNTED.items():
            setattr(owner, name, counting(key))
        call()
    finally:
        for key, (owner, name) in COUNTED.items():
            setattr(owner, name, originals[key])
    return counts


def main_work_problem(case: str, most: int) -> str | None:
    """None if ``main`` on ``case`` succeeds with 1 parser, at most 2
    ``gettext``, at most ``most`` ``add_argument`` and no terminal-size
    calls; else what it did."""
    codes = []
    work = count_parser_work(lambda: codes.append(run_cli(case_argv(case))[0]))
    if codes == [0] and work["parsers"] == 1 and work["terminal_size"] == 0:
        if work["gettext"] <= 2 and work["add_argument"] <= most:
            return None
    return f"{case}: exit {codes}, {dict(work)}"


def silent_parse_problem(case: str) -> str | None:
    """None if ``cli.parse_args`` on the well-formed ``case`` returns its
    namespace and writes nothing; else what it did."""
    from bayesbits import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = cli.parse_args(case_argv(case))
        except SystemExit as exc:
            parsed = exc
    written = out.getvalue() + err.getvalue()
    if isinstance(parsed, argparse.Namespace) and not written:
        return None
    return f"{case}: parse_args gave {parsed!r}, wrote {written!r}"


def leftover_work_problem() -> str | None:
    """None if ``main`` on an argv with a word left over builds the
    subcommand's parser and then the full parser's 6; else what it did."""
    codes = []
    work = count_parser_work(lambda: codes.append(run_cli(case_argv("extra-positional"))[0]))
    if codes == [2] and work["parsers"] == 1 + 6:
        return None
    return f"extra-positional: exit {codes}, {dict(work)}"


def full_work_problem() -> str | None:
    """None if ``build_parser()`` builds 6 parsers with 22 ``add_argument``
    calls, the full parser; else what it did."""
    from bayesbits.cli import build_parser

    work = count_parser_work(build_parser)
    if work["parsers"] == 6 and work["add_argument"] == 22:
        return None
    return f"build_parser(): {dict(work)}"


def work_problems() -> list[str]:
    """Every broken parser work bound, in the order the checks run."""
    found = [main_work_problem(case, most) for case, most in MOST_ARGUMENTS.items()]
    found += [silent_parse_problem(case) for case in MOST_ARGUMENTS]
    found += [leftover_work_problem(), full_work_problem()]
    return [problem for problem in found if problem is not None]


def case_argv(case: str) -> list[str]:
    return [SCENARIO if arg == "{path}" else arg for arg in CORPUS[case][0]]


def case_differs(case: str) -> bool:
    argv = case_argv(case)
    ran = run_cli(argv)
    if case in SAME_AS and ran != run_cli(case_argv(SAME_AS[case])):
        return True
    return ran[0] != CORPUS[case][1] or ran != full_parser_run(argv)


if __name__ != "__main__":  # collected by pytest; the script below runs without it
    import pytest

    @pytest.fixture(autouse=True)
    def columns(monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_same_output_as_the_full_parser(case):
        assert not case_differs(case)

    @pytest.mark.parametrize("case", sorted(SAME_AS))
    def test_same_output_as_its_twin(case):
        assert run_cli(case_argv(case)) == run_cli(case_argv(SAME_AS[case]))

    # 1 parser, at most 2 gettext calls and no terminal query as well
    @pytest.mark.parametrize("case, most", MOST_ARGUMENTS.items())
    def test_main_adds_only_its_arguments(case, most):
        assert main_work_problem(case, most) is None

    @pytest.mark.parametrize("case", sorted(MOST_ARGUMENTS))
    def test_a_well_formed_parse_writes_nothing(case):
        assert silent_parse_problem(case) is None

    def test_a_word_left_over_builds_the_full_parser():
        assert leftover_work_problem() is None

    def test_build_parser_without_command_is_full():
        assert full_work_problem() is None

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
    """Run every case of the corpus against the full parser, then the work counts."""
    if argv != ["--check"]:
        print("usage: python3 tests/test_parser.py --check", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(TESTS.parent / "src"))
    failed = [case for case in sorted(CORPUS) if case_differs(case)]
    problems = work_problems()
    python = ".".join(map(str, sys.version_info[:3]))
    for case in failed:
        print(f"differs: {case}")
    for problem in problems:
        print(f"work: {problem}")
    counts = 2 * len(MOST_ARGUMENTS) + 2
    print(
        f"{len(CORPUS) - len(failed)} of {len(CORPUS)} parser cases match and "
        f"{counts - len(problems)} of {counts} work counts hold on Python {python}"
    )
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
