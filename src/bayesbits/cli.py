"""Command-line front end: each subcommand maps argv to library calls.

Subcommands:

* ``mhp``: generate a Monty Hall scenario file (classic presets or a
  custom game).
* ``solve``: print the full information-transfer report for one
  observation of a scenario, as an aligned table, JSON, or CSV.
* ``kl``: KL(posterior || prior) for one observation via both
  computation paths.
* ``mi``: mutual information via both computation paths.
* ``verify``: compare every engine quantity against the exact-rational
  oracle and report the maximum deviation.

All output is deterministic: stable ordering, fixed formatting, no
timestamps. Exit codes: 0 success, 2 usage or parse error, 3 impossible
observation, 4 verification failure.

A process loads only what its subcommand runs: the handlers of
``solve``, ``kl``, ``mi`` and ``verify`` import :mod:`bayesbits.report`
and, through it, the engine; a parser that bounds ``--precision`` imports
``report`` alone. A first word that names a subcommand gets a parser of
its own arguments, which checks argv and never prints; other argv, an
error or a word it leaves get the full parser of :func:`build_parser`,
the only one that prints help, usage or an error. Keep new work out of
module level.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, NoReturn, Sequence

from .core import Distribution
from .errors import BayesBitsError, DomainError, ImpossibleObservationError
from .scenario import MAX_DOORS, MHP_PRESETS, HostPolicy, MhpConfig, Scenario, door_labels
from .scenario import load_scenario, mhp_preset, mhp_scenario, save_scenario, scenario_to_json_text

__all__ = ["entry_point", "main"]


# --- subcommands -------------------------------------------------------------


def _parse_prior_flag(raw: str, doors: tuple[str, ...]) -> Distribution:
    parts = raw.split(",")
    if len(parts) != len(doors):
        raise DomainError(f"--prior has {len(parts)} entries but the game has {len(doors)} doors")
    return Distribution(doors, [part.strip() for part in parts])


def _custom_door_count(variant: str, doors: int | None) -> int:
    """Door count of a ``custom``, ``custom-N`` or ``custom-<digits>`` variant.

    The count must agree with ``--doors`` when both are given.
    """
    suffix = variant[len("custom-"):] if variant.startswith("custom-") else None
    digits = suffix is not None and suffix.isascii() and suffix.isdigit()
    if variant != "custom" and suffix != "N" and not digits:
        raise DomainError(
            f"unknown variant {variant!r}; expected traditional, biased, "
            "forgetful, or custom-N"
        )
    if digits:
        try:
            inline = int(suffix)
        except ValueError:  # more digits than CPython converts
            raise DomainError(f"custom-N needs a door count of at most {MAX_DOORS}") from None
        if doors is not None and doors != inline:
            raise DomainError(f"variant {variant!r} names {inline} doors but --doors says {doors}")
        doors = inline
    if doors is None:
        raise DomainError("custom variant needs --doors (or a custom-<N> count)")
    return doors


def cmd_mhp(args: argparse.Namespace) -> int:
    variant: str = args.variant
    if variant in MHP_PRESETS:
        for flag in ("doors", "pick", "prior", "policy"):
            if getattr(args, flag) is not None:
                raise DomainError(
                    f"--{flag} only applies to the custom variant; "
                    f"{variant!r} is a fixed preset"
                )
        scenario = mhp_preset(variant)
    else:
        doors = _custom_door_count(variant, args.doors)
        prior = None if args.prior is None else _parse_prior_flag(args.prior, door_labels(doors))
        pick = "A" if args.pick is None else args.pick
        policy = HostPolicy.STANDARD if args.policy is None else HostPolicy(args.policy)
        scenario = mhp_scenario(MhpConfig(doors, prior, pick, policy))
    metadata = {"variant": variant, **scenario.metadata}
    scenario = Scenario(scenario.name, scenario.model_space, scenario.observation_model, metadata)
    if args.out is not None:
        save_scenario(scenario, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(scenario_to_json_text(scenario))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from .report import build_report, render_csv, render_json, render_table

    doc = build_report(load_scenario(args.scenario), args.observe, totals=args.format != "csv")
    if args.format == "json":
        sys.stdout.write(render_json(doc))
    elif args.format == "csv":
        sys.stdout.write(render_csv(doc))
    else:
        sys.stdout.write(render_table(doc, args.precision))
    return 0


def cmd_kl(args: argparse.Namespace) -> int:
    from .report import kl_text

    sys.stdout.write(kl_text(load_scenario(args.scenario), args.observe, args.precision))
    return 0


def cmd_mi(args: argparse.Namespace) -> int:
    from .report import mi_text

    sys.stdout.write(mi_text(load_scenario(args.scenario), args.precision))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .report import verify_text

    text, ok = verify_text(load_scenario(args.scenario))
    sys.stdout.write(text)
    return 0 if ok else 4


# --- argument parsing --------------------------------------------------------

_SCENARIO = ("scenario", dict(help="path to a scenario JSON file"))
_OBSERVE = ("--observe", dict(required=True, help="observation label to condition on"))
_DECIMALS = ("--precision", dict(type=int, default=6, metavar="PRECISION", help="decimal places"))

# subcommand -> (help, handler, (name or flag, add_argument options) of each argument)
_COMMANDS: dict[str, tuple[str, Callable[..., int], list[tuple[str, dict[str, Any]]]]] = {
    "mhp": ("generate a Monty Hall scenario", cmd_mhp, [
        ("variant", dict(help="traditional, biased, forgetful, or custom-N (see --doors)")),
        ("--doors", dict(type=int, help="door count for custom games")),
        ("--pick", dict(help="contestant's door (default A)")),
        ("--prior", dict(help="comma-separated door priors, e.g. 1/2,1/3,1/6")),
        ("--policy", dict(choices=[policy.value for policy in HostPolicy],
                          help="host behavior for custom games (default standard)")),
        ("--out", dict(help="write the scenario file here instead of stdout")),
    ]),
    "solve": ("information-transfer report for one observation", cmd_solve, [
        _SCENARIO,
        _OBSERVE,
        ("--format", dict(choices=["table", "json", "csv"], default="table", help="output format")),
        ("--precision", dict(_DECIMALS[1], help="table decimal places")),
    ]),
    "kl": ("KL(posterior || prior) via both paths", cmd_kl, [_SCENARIO, _OBSERVE, _DECIMALS]),
    "mi": ("mutual information via both paths", cmd_mi, [_SCENARIO, _DECIMALS]),
    "verify": ("compare the engine against the exact oracle", cmd_verify, [_SCENARIO]),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Give ``parser`` the arguments and the handler of ``command``."""
    for arg, options in _COMMANDS[command][2]:
        if arg == "--precision":  # 0 to MAX_PRECISION; only report commands take it
            from .report import MAX_PRECISION
            options = dict(options, choices=range(MAX_PRECISION + 1))
        parser.add_argument(arg, **options)
    parser.set_defaults(func=_COMMANDS[command][1])


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser, with all five subparsers: top-level help and errors."""
    parser = argparse.ArgumentParser(
        prog="bayesbits",
        description="Discrete Bayesian inference in information space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


class _Malformed(Exception):
    """A subcommand parser's error, which :func:`build_parser` reports instead."""


class _CommandParser(argparse.ArgumentParser):
    """One subcommand's arguments, as a check of argv that never prints.

    It has no ``-h``, and an error raises :class:`_Malformed`. Its
    formatter has a fixed width: ``add_argument`` builds one to check
    each metavar, and so none asks the terminal its width.
    """

    def __init__(self, command: str) -> None:
        super().__init__(
            prog=f"bayesbits {command}",
            add_help=False,
            formatter_class=lambda prog: argparse.HelpFormatter(prog, width=80),
        )
        _add_arguments(self, command)

    def error(self, message: str) -> NoReturn:
        raise _Malformed(message)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` parsed as :func:`build_parser` parses it.

    When its first word names a subcommand, a parser of that subcommand's
    arguments alone checks the rest; unless it takes every word without
    an error, the full parser parses ``argv`` and prints any help, usage
    or error.
    """
    if argv and argv[0] in _COMMANDS:
        try:
            args, extras = _CommandParser(argv[0]).parse_known_args(argv[1:])
        except _Malformed:
            pass
        else:
            if not extras:
                return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
        # so "bayesbits -- verify f" runs verify on every Python: argparse
        # of 3.13.0 and earlier takes the "--" itself for the command
        argv = argv[1:]
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ImpossibleObservationError as exc:
        print(f"error: impossible observation: {exc}", file=sys.stderr)
        return 3
    except (BayesBitsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
