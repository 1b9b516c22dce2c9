"""What ``solve``, ``kl``, ``mi`` and ``verify`` print, as text.

:func:`build_report` gathers a ``solve`` report, which the ``render_*``
functions format a column at a time. ``engine``, ``aggregates``,
``verify`` and ``csv`` are imported only inside the functions that use them.
"""

from __future__ import annotations

import math
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .core import probability_repr
from .scenario import Scenario, _json_list

if TYPE_CHECKING:
    from .engine import Marginal

__all__ = ["CSV_HEADER", "MAX_PRECISION", "ReportDocument", "build_report", "kl_text", "mi_text",
           "render_csv", "render_json", "render_table", "verify_text"]

MAX_PRECISION = 17  # the most decimal places a table or a KL or MI line prints

CSV_HEADER = ["model", "prior", "prior_bits", "evidence_bits", "likelihood_bits", "tic_bits",
              "sign", "posterior_bits", "posterior_prob"]


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
    from .engine import marginals, transfer_report

    ms, om = scenario.model_space, scenario.observation_model
    if not totals:
        return ReportDocument(scenario.name, transfer_report(ms, om, observation), None, None)
    index, printed, kls = om._x_index(observation), None, []
    for i, m in enumerate(marginals(ms, om)):
        if m is not None:
            kls.append((m.evidence_float, kl_from_update(m)))
        if i == index:
            printed = m
    if printed is None:  # P(x) is 0, so transfer_report raises ImpossibleObservationError
        transfer_report(ms, om, observation)
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


# --- report columns ----------------------------------------------------------


def _column_texts(report: Marginal, cell: Callable[[Any], str]) -> list[list[str]]:
    """The report's columns as text, in :data:`CSV_HEADER` order, each value formatted by ``cell``."""
    columns = list(report.columns)
    columns[6] = [None if sign is None else sign.value for sign in columns[6]]
    return [list(map(cell, column)) for column in columns]


def _align_table(header: list[str], columns: list[list[str]], left: set[int]) -> str:
    padded = []
    for i, column in enumerate(columns):
        cells = [header[i], *column]
        pad = str.ljust if i in left else str.rjust
        padded.append(list(map(pad, cells, repeat(max(map(len, cells))))))
    return "\n".join(["  ".join(row).rstrip() for row in zip(*padded)])


def render_table(doc: ReportDocument, precision: int) -> str:
    report = doc.transfer
    columns = _column_texts(report, lambda v: _text(v, precision))
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
    # a fast path, kept by BENCH_4.json fast_paths["render_json_layout"]
    report = doc.transfer
    keyed = [
        list(map(f'"{key}": '.__add__, column))
        for key, column in zip(CSV_HEADER, _column_texts(report, _json_text))
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
    writer.writerows(zip(*_column_texts(doc.transfer, _csv)))
    return buffer.getvalue()


def _both_paths(quantity: str, via_tic: float, classical: float, precision: int) -> str:
    return (
        f"{quantity}_expected_tic_bits: {_text(max(0.0, via_tic), precision)}\n"
        f"{quantity}_classical_bits: {_text(max(0.0, classical), precision)}\n"
        f"difference: {_csv(via_tic - classical)}\n"
    )


def kl_text(scenario: Scenario, observation: str, precision: int) -> str:
    """KL(posterior || prior) of ``observation`` by both paths, and their difference."""
    from .aggregates import kl_classical_and_entropy, kl_from_update
    from .engine import transfer_report

    u = transfer_report(scenario.model_space, scenario.observation_model, observation)
    head = f"scenario: {scenario.name}\nobservation: {observation}\n"
    return head + _both_paths("kl", kl_from_update(u), kl_classical_and_entropy(u)[0], precision)


def mi_text(scenario: Scenario, precision: int) -> str:
    """The mutual information by both paths, and their difference."""
    from .aggregates import mi_both_paths

    via_tic, classical = mi_both_paths(scenario.model_space, scenario.observation_model)
    return f"scenario: {scenario.name}\n" + _both_paths("mi", via_tic, classical, precision)


def verify_text(scenario: Scenario) -> tuple[str, bool]:
    """The summary of checking ``scenario`` against the oracle, and whether it passed."""
    from . import verify

    max_dev, checks, tol = verify.verify_scenario(scenario)
    ok = max_dev <= tol
    lines = [
        f"scenario: {scenario.name}",
        f"comparisons: {checks}",
        f"max_deviation_bits: {_csv(max_dev)}",
        f"tolerance_bits: {repr(tol)}",
        f"status: {'PASS' if ok else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n", ok
