"""Command-line front end.

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

A process loads only what its subcommand runs: ``engine`` and
``aggregates`` are imported by ``solve``, ``kl``, ``mi`` and ``verify``,
``verify`` (with the oracle) by ``verify`` alone, and ``csv`` by CSV
output. A first word that names a subcommand gets a parser of its own
arguments, which checks argv and never prints; other argv, an error or a
word it leaves get the full parser of :func:`build_parser`, the only one
that prints help, usage or an error. Keep new work out of module level.
``solve`` folds each observation into the MI and drops it, and reads
report columns of the printed one alone; with ``--format csv`` it
computes no KL or MI. ``mi`` reads no report column. The renderers
format the report a column at a time.
"""

from __future__ import annotations

import argparse
import math
import sys
from json.encoder import encode_basestring_ascii
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, NoReturn, Sequence

from .core import Distribution, probability_repr
from .errors import BayesBitsError, DomainError, ImpossibleObservationError
from .scenario import (
    MAX_DOORS,
    HostPolicy,
    MhpConfig,
    Scenario,
    _json_list,
    door_labels,
    load_scenario,
    mhp_scenario,
    save_scenario,
    scenario_to_json_text,
)

if TYPE_CHECKING:
    from .engine import Marginal

__all__ = ["ReportDocument", "build_report", "entry_point", "main"]

CSV_HEADER = [
    "model",
    "prior",
    "prior_bits",
    "evidence_bits",
    "likelihood_bits",
    "tic_bits",
    "sign",
    "posterior_bits",
    "posterior_prob",
]


# --- report document ---------------------------------------------------------


class ReportDocument(NamedTuple):
    """Everything one solve run prints, before any formatting."""

    scenario: str
    transfer: Marginal
    kl_bits: float | None
    mi_bits: float | None


def build_report(scenario: Scenario, observation: str, totals: bool = True) -> ReportDocument:
    """The report of ``observation``: its marginal and, with ``totals``, its KL and the MI.

    One pass over the observations folds each one's marginal into the MI
    and drops it; the printed observation's is kept for its report columns.
    """
    from .aggregates import kl_from_update, mi_from_kls
    from .engine import marginals, update

    ms, om = scenario.model_space, scenario.observation_model
    if not totals:
        return ReportDocument(scenario.name, update(ms, om, observation), None, None)
    index, printed, kls = om._x_index(observation), None, []
    for i, m in enumerate(marginals(ms, om)):
        if m is not None:
            kls.append((m.evidence_float, kl_from_update(m)))
        if i == index:
            printed = m
    if printed is None:  # P(x) is 0, so update raises ImpossibleObservationError
        update(ms, om, observation)
    kl, mi = kl_from_update(printed), mi_from_kls(kls)
    return ReportDocument(scenario.name, printed, max(0.0, kl), max(0.0, mi))


# --- cell formatters: None, a label, a Fraction or a float -------------------


def _cell(v: Any, none: Any, number: Callable[[float], Any]) -> Any:
    if v is None:
        return none
    if isinstance(v, float):
        # collapse -0.0 so formatted output never shows a negative zero
        return number(0.0 if v == 0.0 else v)
    return v if isinstance(v, str) else probability_repr(v)


def _text(v: Any, precision: int) -> str:
    return _cell(v, "n/a", lambda x: f"{x:.{precision}f}")


def _json(v: Any) -> Any:
    # JSON numbers cannot carry infinities, so those become strings
    return _cell(v, None, lambda x: x if math.isfinite(x) else "Infinity" if x > 0 else "-Infinity")


def _json_text(v: Any) -> str:
    """:func:`_json` of ``v`` as ``json.dumps`` writes it: C string escaper, float ``repr``."""
    v = _json(v)
    return "null" if v is None else encode_basestring_ascii(v) if isinstance(v, str) else repr(v)


def _csv(v: Any) -> str:
    return _cell(v, "", repr)


# --- report columns, each formatted with one call ----------------------------

# CSV_HEADER indices of the report columns that hold a float in every row
_FLOAT_COLUMNS = frozenset({2, 3, 4, 7, 8})

# repr of an infinity, which JSON cannot carry -> what _json_text writes for
# it; the float columns are information contents and probabilities, never -inf
_JSON_NONFINITE = {"inf": '"Infinity"'}


def _column_texts(
    report: Marginal, cell: Callable[[Any], str], floats: Callable[[Iterable[float]], list[str]]
) -> list[list[str]]:
    """The report's columns as text, in :data:`CSV_HEADER` order.

    ``floats`` formats each all-float column whole, after ``x + 0.0``
    turns ``-0.0`` into ``0.0`` as :func:`_cell` does; ``cell`` formats
    the label, prior, TIC and sign columns value by value.
    """
    columns = list(report.columns)
    columns[6] = [None if sign is None else sign.value for sign in columns[6]]
    return [
        floats(map((0.0).__add__, column)) if i in _FLOAT_COLUMNS
        else list(map(cell, column))
        for i, column in enumerate(columns)
    ]


def _json_floats(column: Iterable[float]) -> list[str]:
    texts = list(map(repr, column))
    return list(map(_JSON_NONFINITE.get, texts, texts))


def _align_table(header: list[str], columns: list[list[str]], left: set[int]) -> str:
    padded = []
    for i, column in enumerate(columns):
        cells = [header[i], *column]
        pad = str.ljust if i in left else str.rjust
        padded.append(list(map(pad, cells, repeat(max(map(len, cells))))))
    return "\n".join(["  ".join(row).rstrip() for row in zip(*padded)])


def render_table(doc: ReportDocument, precision: int) -> str:
    report = doc.transfer
    spec = f"{{:.{precision}f}}".format
    columns = _column_texts(
        report, lambda v: _text(v, precision), lambda column: list(map(spec, column))
    )
    lines = [
        f"scenario: {doc.scenario}",
        f"observation: {report.observation}",
        f"evidence: {_text(report.evidence, precision)} "
        f"({_text(report.evidence_info, precision)} bits)",
        "",
        _align_table(CSV_HEADER, columns, left={0, 6}),
        "",
        f"KL(posterior || prior): {_text(doc.kl_bits, precision)} bits",
        f"mutual information: {_text(doc.mi_bits, precision)} bits",
    ]
    return "\n".join(lines) + "\n"


def render_json(doc: ReportDocument) -> str:
    """``json.dumps`` of the report with ``indent=2``, laid out here as the scenario file is."""
    report = doc.transfer
    keyed = [
        list(map(f'"{key}": '.__add__, column))
        for key, column in zip(CSV_HEADER, _column_texts(report, _json_text, _json_floats))
    ]
    fields = [
        ("scenario", _json_text(doc.scenario)),
        ("observation", _json_text(report.observation)),
        ("evidence", _json_text(report.evidence)),
        ("evidence_bits", _json_text(report.evidence_info)),
        ("models", _json_list([_json_list(row, 2, "{}") for row in zip(*keyed)], 1)),
        ("kl_bits", _json_text(doc.kl_bits)),
        ("mi_bits", _json_text(doc.mi_bits)),
    ]
    return _json_list([f'"{key}": {text}' for key, text in fields], 0, "{}") + "\n"


def render_csv(doc: ReportDocument) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(zip(*_column_texts(doc.transfer, _csv, lambda column: list(map(repr, column)))))
    return buffer.getvalue()


# --- subcommands -------------------------------------------------------------

# preset -> (scenario name, --prior, --policy) of a 3-door game with pick A
_PRESETS: dict[str, tuple[str, str | None, str | None]] = {
    "traditional": ("Traditional Monty Hall", None, None),
    "biased": ("Biased Monty Hall", "1/2,1/3,1/6", None),
    "forgetful": ("Forgetful Monty Hall", None, "forgetful"),
}


def _parse_prior_flag(raw: str, doors: tuple[str, ...]) -> Distribution:
    parts = raw.split(",")
    if len(parts) != len(doors):
        raise DomainError(
            f"--prior has {len(parts)} entries but the game has {len(doors)} doors"
        )
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


def _mhp_from_args(args: argparse.Namespace) -> Scenario:
    variant: str = args.variant
    if variant in _PRESETS:
        for flag in ("doors", "pick", "prior", "policy"):
            if getattr(args, flag) is not None:
                raise DomainError(
                    f"--{flag} only applies to the custom variant; "
                    f"{variant!r} is a fixed preset"
                )
        name, prior, policy = _PRESETS[variant]
        doors, pick = 3, None
    else:
        name, prior, policy, pick = None, args.prior, args.policy, args.pick
        doors = _custom_door_count(variant, args.doors)
    labels = door_labels(doors)
    cfg = MhpConfig(
        door_count=doors,
        prior=_parse_prior_flag(prior, labels) if prior is not None else None,
        contestant_pick=pick if pick is not None else "A",
        host_policy=HostPolicy(policy) if policy is not None else HostPolicy.STANDARD,
    )
    scenario = mhp_scenario(cfg, name=name)
    metadata = {"variant": variant, **scenario.metadata}
    return Scenario(scenario.name, scenario.model_space, scenario.observation_model, metadata)


def cmd_mhp(args: argparse.Namespace) -> int:
    scenario = _mhp_from_args(args)
    if args.out is not None:
        save_scenario(scenario, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(scenario_to_json_text(scenario))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    doc = build_report(scenario, args.observe, totals=args.format != "csv")
    if args.format == "json":
        sys.stdout.write(render_json(doc))
    elif args.format == "csv":
        sys.stdout.write(render_csv(doc))
    else:
        sys.stdout.write(render_table(doc, args.precision))
    return 0


def _both_paths(quantity: str, via_tic: float, classical: float, precision: int) -> int:
    print(f"{quantity}_expected_tic_bits: {_text(max(0.0, via_tic), precision)}")
    print(f"{quantity}_classical_bits: {_text(max(0.0, classical), precision)}")
    print(f"difference: {_csv(via_tic - classical)}")
    return 0


def cmd_kl(args: argparse.Namespace) -> int:
    from .aggregates import kl_classical_and_entropy, kl_from_update
    from .engine import update

    scenario = load_scenario(args.scenario)
    u = update(scenario.model_space, scenario.observation_model, args.observe)
    print(f"scenario: {scenario.name}")
    print(f"observation: {args.observe}")
    return _both_paths("kl", kl_from_update(u), kl_classical_and_entropy(u)[0], args.precision)


def cmd_mi(args: argparse.Namespace) -> int:
    from .aggregates import mi_both_paths

    scenario = load_scenario(args.scenario)
    via_tic, classical = mi_both_paths(scenario.model_space, scenario.observation_model)
    print(f"scenario: {scenario.name}")
    return _both_paths("mi", via_tic, classical, args.precision)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    scenario = load_scenario(args.scenario)
    max_dev, checks = verify.verify_scenario(scenario)
    print(f"scenario: {scenario.name}")
    print(f"comparisons: {checks}")
    print(f"max_deviation_bits: {_csv(max_dev)}")
    print(f"tolerance_bits: {repr(verify.VERIFY_TOL)}")
    ok = max_dev <= verify.VERIFY_TOL
    print(f"status: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


# --- argument parsing --------------------------------------------------------

_PRECISION: dict[str, Any] = dict(type=int, choices=range(18), default=6, metavar="PRECISION")
_SCENARIO = ("scenario", dict(help="path to a scenario JSON file"))
_OBSERVE = ("--observe", dict(required=True, help="observation label to condition on"))
_DECIMALS = ("--precision", dict(_PRECISION, help="decimal places"))

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
        ("--precision", dict(_PRECISION, help="table decimal places")),
    ]),
    "kl": ("KL(posterior || prior) via both paths", cmd_kl, [_SCENARIO, _OBSERVE, _DECIMALS]),
    "mi": ("mutual information via both paths", cmd_mi, [_SCENARIO, _DECIMALS]),
    "verify": ("compare the engine against the exact oracle", cmd_verify, [_SCENARIO]),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Give ``parser`` the arguments and the handler of ``command``."""
    for arg, options in _COMMANDS[command][2]:
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
