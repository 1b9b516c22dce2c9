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

A process loads only what its subcommand runs: ``aggregates`` is
imported by ``solve``, ``kl``, ``mi`` and ``verify``, ``verify`` (with
the oracle) by the ``verify`` subcommand alone, and ``csv`` by CSV
output. Keep new work out of module level.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, NamedTuple, Sequence

from .core import Distribution, probability_repr
from .engine import ModelTransfer, ObservationUpdate, select_update, update, updates
from .errors import BayesBitsError, DomainError, ImpossibleObservationError
from .scenario import (
    MAX_DOORS,
    HostPolicy,
    MhpConfig,
    Scenario,
    door_labels,
    load_scenario,
    mhp_scenario,
    save_scenario,
    scenario_to_json_text,
)

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
    transfer: ObservationUpdate
    kl_bits: float
    mi_bits: float


def build_report(scenario: Scenario, observation: str) -> ReportDocument:
    from .aggregates import kl_from_update, mi_from_updates

    om = scenario.observation_model
    all_updates = updates(scenario.model_space, om)
    u = select_update(all_updates, om, observation)
    return ReportDocument(
        scenario=scenario.name,
        transfer=u,
        kl_bits=max(0.0, kl_from_update(u)),
        mi_bits=max(0.0, mi_from_updates(all_updates)),
    )


def _cells(entry: ModelTransfer) -> tuple[Any, ...]:
    """A model's report values in :data:`CSV_HEADER` order."""
    sign = entry.sign_class.value if entry.sign_class is not None else None
    return (
        entry.model,
        entry.prior_prob,
        entry.prior_info,
        entry.evidence_info,
        entry.likelihood_info,
        entry.tic,
        sign,
        entry.posterior_info,
        entry.posterior_prob,
    )


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


def _csv(v: Any) -> str:
    return _cell(v, "", repr)


def _align_table(header: list[str], body: list[list[str]], left: set[int]) -> str:
    widths = [len(h) for h in header]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + body:
        cells = [
            cell.ljust(widths[i]) if i in left else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def render_table(doc: ReportDocument, precision: int) -> str:
    report = doc.transfer
    body = [[_text(v, precision) for v in _cells(entry)] for entry in report.entries]
    lines = [
        f"scenario: {doc.scenario}",
        f"observation: {report.observation}",
        f"evidence: {_text(report.evidence, precision)} "
        f"({_text(report.evidence_info, precision)} bits)",
        "",
        _align_table(CSV_HEADER, body, left={0, 6}),
        "",
        f"KL(posterior || prior): {_text(doc.kl_bits, precision)} bits",
        f"mutual information: {_text(doc.mi_bits, precision)} bits",
    ]
    return "\n".join(lines) + "\n"


def render_json(doc: ReportDocument) -> str:
    report = doc.transfer
    payload = {
        "scenario": doc.scenario,
        "observation": report.observation,
        "evidence": _json(report.evidence),
        "evidence_bits": _json(report.evidence_info),
        "models": [
            dict(zip(CSV_HEADER, map(_json, _cells(entry)))) for entry in report.entries
        ],
        "kl_bits": _json(doc.kl_bits),
        "mi_bits": _json(doc.mi_bits),
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_csv(doc: ReportDocument) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows([_csv(v) for v in _cells(entry)] for entry in doc.transfer.entries)
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
    doc = build_report(scenario, args.observe)
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
    from .aggregates import kl_classical_from_update, kl_from_update

    scenario = load_scenario(args.scenario)
    u = update(scenario.model_space, scenario.observation_model, args.observe)
    print(f"scenario: {scenario.name}")
    print(f"observation: {args.observe}")
    return _both_paths("kl", kl_from_update(u), kl_classical_from_update(u), args.precision)


def cmd_mi(args: argparse.Namespace) -> int:
    from .aggregates import mi_classical_from_updates, mi_from_updates

    scenario = load_scenario(args.scenario)
    all_updates = updates(scenario.model_space, scenario.observation_model)
    print(f"scenario: {scenario.name}")
    via_tic = mi_from_updates(all_updates)
    classical = mi_classical_from_updates(scenario.model_space.prior, all_updates)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesbits",
        description="Discrete Bayesian inference in information space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mhp = sub.add_parser("mhp", help="generate a Monty Hall scenario")
    p_mhp.add_argument(
        "variant",
        help="traditional, biased, forgetful, or custom-N (see --doors)",
    )
    p_mhp.add_argument("--doors", type=int, default=None, help="door count for custom games")
    p_mhp.add_argument("--pick", default=None, help="contestant's door (default A)")
    p_mhp.add_argument(
        "--prior",
        default=None,
        help="comma-separated door priors, e.g. 1/2,1/3,1/6",
    )
    p_mhp.add_argument(
        "--policy",
        choices=[policy.value for policy in HostPolicy],
        default=None,
        help="host behavior for custom games (default standard)",
    )
    p_mhp.add_argument("--out", default=None, help="write the scenario file here instead of stdout")
    p_mhp.set_defaults(func=cmd_mhp)

    p_solve = sub.add_parser("solve", help="information-transfer report for one observation")
    p_solve.add_argument("scenario", help="path to a scenario JSON file")
    p_solve.add_argument("--observe", required=True, help="observation label to condition on")
    p_solve.add_argument(
        "--format", choices=["table", "json", "csv"], default="table", help="output format"
    )
    p_solve.add_argument("--precision", **_PRECISION, help="table decimal places")
    p_solve.set_defaults(func=cmd_solve)

    p_kl = sub.add_parser("kl", help="KL(posterior || prior) via both paths")
    p_kl.add_argument("scenario", help="path to a scenario JSON file")
    p_kl.add_argument("--observe", required=True, help="observation label to condition on")
    p_kl.add_argument("--precision", **_PRECISION, help="decimal places")
    p_kl.set_defaults(func=cmd_kl)

    p_mi = sub.add_parser("mi", help="mutual information via both paths")
    p_mi.add_argument("scenario", help="path to a scenario JSON file")
    p_mi.add_argument("--precision", **_PRECISION, help="decimal places")
    p_mi.set_defaults(func=cmd_mi)

    p_verify = sub.add_parser("verify", help="compare the engine against the exact oracle")
    p_verify.add_argument("scenario", help="path to a scenario JSON file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
