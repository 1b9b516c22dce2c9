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
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .aggregates import (
    kl_classical_from_update,
    kl_from_update,
    mi_classical_from_updates,
    mi_from_updates,
)
from .core import Distribution, Probability, info_content, prob_from_info, probability_repr
from .engine import select_update, update, updates
from .errors import BayesBitsError, DomainError, ImpossibleObservationError
from .oracle import enumerate_joint, observation_metrics, oracle_mi_from_metrics
from .scenario import (
    HostPolicy,
    MhpConfig,
    Scenario,
    load_scenario,
    mhp_scenario,
    save_scenario,
    scenario_to_json_text,
)

__all__ = ["ReportDocument", "ReportRow", "build_report", "entry_point", "main"]

VERIFY_TOL = 1e-9

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


@dataclass(frozen=True)
class ReportRow:
    model: str
    prior: Probability
    prior_bits: float
    evidence_bits: float
    likelihood_bits: float
    tic_bits: float | None
    sign: str | None
    posterior_bits: float
    posterior_prob: float


@dataclass(frozen=True)
class ReportDocument:
    """Everything one solve run prints, before any formatting."""

    scenario: str
    observation: str
    evidence: Probability
    evidence_bits: float
    rows: tuple[ReportRow, ...]
    kl_bits: float
    mi_bits: float


def build_report(scenario: Scenario, observation: str) -> ReportDocument:
    om = scenario.observation_model
    all_updates = updates(scenario.model_space, om)
    u = select_update(all_updates, om, observation)
    report = u.report()
    kl = kl_from_update(u)
    mi = mi_from_updates(all_updates)
    rows = tuple(
        ReportRow(
            model=entry.model,
            prior=entry.prior_prob,
            prior_bits=entry.prior_info,
            evidence_bits=entry.evidence_info,
            likelihood_bits=entry.likelihood_info,
            tic_bits=entry.tic,
            sign=entry.sign_class.value if entry.sign_class is not None else None,
            posterior_bits=entry.posterior_info,
            posterior_prob=entry.posterior_prob,
        )
        for entry in report.entries
    )
    return ReportDocument(
        scenario=scenario.name,
        observation=observation,
        evidence=report.evidence,
        evidence_bits=info_content(report.evidence),
        rows=rows,
        kl_bits=kl.value,
        mi_bits=mi.value,
    )


# --- formatting helpers ------------------------------------------------------


def _clean(x: float) -> float:
    # collapse -0.0 so formatted output never shows a negative zero
    return 0.0 if x == 0.0 else x


def _fmt_bits(x: float | None, precision: int) -> str:
    if x is None:
        return "n/a"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{_clean(x):.{precision}f}"


def _fmt_prob(p: Probability, precision: int) -> str:
    if isinstance(p, Fraction):
        return probability_repr(p)
    return f"{_clean(p):.{precision}f}"


def _machine_bits(x: float | None) -> Any:
    # JSON value: full-precision number, or "Infinity"/"-Infinity" strings
    # since JSON numbers cannot carry infinities
    if x is None:
        return None
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return _clean(x)


def _machine_prob(p: Probability) -> Any:
    if isinstance(p, Fraction):
        return probability_repr(p)
    return _clean(p)


def _csv_bits(x: float | None) -> str:
    if x is None:
        return ""
    return repr(_clean(x))


def _csv_prob(p: Probability) -> str:
    if isinstance(p, Fraction):
        return probability_repr(p)
    return repr(_clean(p))


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
    body = []
    for row in doc.rows:
        body.append(
            [
                row.model,
                _fmt_prob(row.prior, precision),
                _fmt_bits(row.prior_bits, precision),
                _fmt_bits(row.evidence_bits, precision),
                _fmt_bits(row.likelihood_bits, precision),
                _fmt_bits(row.tic_bits, precision),
                row.sign if row.sign is not None else "n/a",
                _fmt_bits(row.posterior_bits, precision),
                _fmt_bits(row.posterior_prob, precision),
            ]
        )
    table = _align_table(list(CSV_HEADER), body, left={0, 6})
    lines = [
        f"scenario: {doc.scenario}",
        f"observation: {doc.observation}",
        f"evidence: {_fmt_prob(doc.evidence, precision)} "
        f"({_fmt_bits(doc.evidence_bits, precision)} bits)",
        "",
        table,
        "",
        f"KL(posterior || prior): {_fmt_bits(max(0.0, doc.kl_bits), precision)} bits",
        f"mutual information: {_fmt_bits(max(0.0, doc.mi_bits), precision)} bits",
    ]
    return "\n".join(lines) + "\n"


def render_json(doc: ReportDocument) -> str:
    payload = {
        "scenario": doc.scenario,
        "observation": doc.observation,
        "evidence": _machine_prob(doc.evidence),
        "evidence_bits": _machine_bits(doc.evidence_bits),
        "models": [
            {
                "model": row.model,
                "prior": _machine_prob(row.prior),
                "prior_bits": _machine_bits(row.prior_bits),
                "evidence_bits": _machine_bits(row.evidence_bits),
                "likelihood_bits": _machine_bits(row.likelihood_bits),
                "tic_bits": _machine_bits(row.tic_bits),
                "sign": row.sign,
                "posterior_bits": _machine_bits(row.posterior_bits),
                "posterior_prob": _machine_bits(row.posterior_prob),
            }
            for row in doc.rows
        ],
        "kl_bits": _machine_bits(max(0.0, doc.kl_bits)),
        "mi_bits": _machine_bits(max(0.0, doc.mi_bits)),
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_csv(doc: ReportDocument) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in doc.rows:
        writer.writerow(
            [
                row.model,
                _csv_prob(row.prior),
                _csv_bits(row.prior_bits),
                _csv_bits(row.evidence_bits),
                _csv_bits(row.likelihood_bits),
                _csv_bits(row.tic_bits),
                row.sign if row.sign is not None else "",
                _csv_bits(row.posterior_bits),
                _csv_bits(row.posterior_prob),
            ]
        )
    return buffer.getvalue()


# --- subcommands -------------------------------------------------------------

_CUSTOM_RE = re.compile(r"^custom(?:-(.+))?$")


def _parse_prior_flag(raw: str, doors: tuple[str, ...]) -> Distribution:
    parts = [part.strip() for part in raw.split(",")]
    try:
        probs = [Fraction(part) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse --prior {raw!r}: {exc}") from exc
    if len(probs) != len(doors):
        raise DomainError(
            f"--prior has {len(probs)} entries but the game has {len(doors)} doors"
        )
    return Distribution(doors, probs)


def _mhp_from_args(args: argparse.Namespace) -> Scenario:
    variant: str = args.variant
    custom = _CUSTOM_RE.match(variant)
    if variant in ("traditional", "biased", "forgetful"):
        for flag in ("doors", "pick", "prior", "policy"):
            if getattr(args, flag) is not None:
                raise DomainError(
                    f"--{flag} only applies to the custom variant; "
                    f"{variant!r} is a fixed preset"
                )
        if variant == "traditional":
            cfg = MhpConfig()
            name = "Traditional Monty Hall"
        elif variant == "biased":
            prior = Distribution(
                ("A", "B", "C"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
            )
            cfg = MhpConfig(prior=prior)
            name = "Biased Monty Hall"
        else:
            cfg = MhpConfig(host_policy=HostPolicy.FORGETFUL)
            name = "Forgetful Monty Hall"
        scenario = mhp_scenario(cfg, name=name)
    elif custom is not None:
        suffix = custom.group(1)
        doors = args.doors
        if suffix is not None and suffix.isdigit():
            inline = int(suffix)
            if doors is not None and doors != inline:
                raise DomainError(
                    f"variant {variant!r} names {inline} doors but --doors says {doors}"
                )
            doors = inline
        if doors is None:
            raise DomainError("custom variant needs --doors (or a custom-<N> count)")
        labels = MhpConfig(door_count=doors).prior.labels  # type: ignore[union-attr]
        prior = _parse_prior_flag(args.prior, labels) if args.prior is not None else None
        cfg = MhpConfig(
            door_count=doors,
            prior=prior,
            contestant_pick=args.pick if args.pick is not None else "A",
            host_policy=HostPolicy(args.policy) if args.policy is not None else HostPolicy.STANDARD,
        )
        scenario = mhp_scenario(cfg)
    else:
        raise DomainError(
            f"unknown variant {variant!r}; expected traditional, biased, "
            "forgetful, or custom-N"
        )
    metadata = {"variant": variant, **scenario.metadata}
    return dataclasses.replace(scenario, metadata=metadata)


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


def cmd_kl(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    u = update(scenario.model_space, scenario.observation_model, args.observe)
    via_tic = kl_from_update(u).value
    classical = kl_classical_from_update(u)
    p = args.precision
    print(f"scenario: {scenario.name}")
    print(f"observation: {args.observe}")
    print(f"kl_expected_tic_bits: {_fmt_bits(max(0.0, via_tic), p)}")
    print(f"kl_classical_bits: {_fmt_bits(max(0.0, classical), p)}")
    print(f"difference: {repr(_clean(via_tic - classical))}")
    return 0


def cmd_mi(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    all_updates = updates(scenario.model_space, scenario.observation_model)
    via_tic = mi_from_updates(all_updates).value
    classical = mi_classical_from_updates(scenario.model_space.prior, all_updates)
    p = args.precision
    print(f"scenario: {scenario.name}")
    print(f"mi_expected_tic_bits: {_fmt_bits(max(0.0, via_tic), p)}")
    print(f"mi_classical_bits: {_fmt_bits(max(0.0, classical), p)}")
    print(f"difference: {repr(_clean(via_tic - classical))}")
    return 0


def _deviation(a: float | None, b: float | None) -> float:
    """Absolute gap between two bit values; equal infinities count as 0."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b)


def verify_scenario(scenario: Scenario) -> tuple[float, int]:
    """Max engine-vs-oracle deviation in bits, and the comparison count."""
    ms, om = scenario.model_space, scenario.observation_model
    table = enumerate_joint(scenario)
    max_dev = 0.0
    checks = 0

    def check(a: float | None, b: float | None) -> None:
        nonlocal max_dev, checks
        max_dev = max(max_dev, _deviation(a, b))
        checks += 1

    all_updates = updates(ms, om)
    all_metrics = observation_metrics(table)
    for u, metrics in zip(all_updates, all_metrics):
        if u is None:
            continue
        if metrics is None:
            raise ImpossibleObservationError(
                f"observation {u.observation!r} has zero probability under the prior"
            )
        check(u.evidence_info, info_content(metrics.evidence))
        for j, theta in enumerate(om.model_labels):
            check(prob_from_info(u.posterior_infos[j]), float(metrics.posterior[theta]))
            oracle_tic = metrics.tic_bits[theta]
            check(u.tics[j] if oracle_tic is not None else None, oracle_tic)
            if oracle_tic is not None:
                check(u.local_transfer_entropy(j), oracle_tic)
        check(kl_from_update(u).value, metrics.kl_bits)
        check(kl_classical_from_update(u), metrics.kl_bits)
    mi_oracle = oracle_mi_from_metrics(all_metrics)
    check(mi_from_updates(all_updates).value, mi_oracle)
    check(mi_classical_from_updates(ms.prior, all_updates), mi_oracle)
    return max_dev, checks


def cmd_verify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    max_dev, checks = verify_scenario(scenario)
    print(f"scenario: {scenario.name}")
    print(f"comparisons: {checks}")
    print(f"max_deviation_bits: {repr(_clean(max_dev))}")
    print(f"tolerance_bits: {repr(VERIFY_TOL)}")
    ok = max_dev <= VERIFY_TOL
    print(f"status: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


# --- argument parsing --------------------------------------------------------


def _precision(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid precision {raw!r}") from None
    if not 0 <= value <= 17:
        raise argparse.ArgumentTypeError("precision must be between 0 and 17")
    return value


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
    p_solve.add_argument("--precision", type=_precision, default=6, help="table decimal places")
    p_solve.set_defaults(func=cmd_solve)

    p_kl = sub.add_parser("kl", help="KL(posterior || prior) via both paths")
    p_kl.add_argument("scenario", help="path to a scenario JSON file")
    p_kl.add_argument("--observe", required=True, help="observation label to condition on")
    p_kl.add_argument("--precision", type=_precision, default=6, help="decimal places")
    p_kl.set_defaults(func=cmd_kl)

    p_mi = sub.add_parser("mi", help="mutual information via both paths")
    p_mi.add_argument("scenario", help="path to a scenario JSON file")
    p_mi.add_argument("--precision", type=_precision, default=6, help="decimal places")
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
