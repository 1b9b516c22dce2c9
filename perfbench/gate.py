"""Correctness gate: every operation's output is checked against the oracle.

* ``write``: the file holds exactly the prior and likelihood matrix the
  benchmark worked out for itself (``workloads.Game``).
* ``solve``: JSON and CSV match ``oracle_metrics``/``oracle_mi`` within
  1e-9 (posteriors, TIC, KL, MI); a table matches to its printed
  precision. The sign class is checked by comparing P(x|theta) with P(x)
  exactly.
* ``verify``: ``status: PASS`` with the comparison count the oracle's
  own table implies.

Each check returns None or a one-line reason; the runner counts the
operation as failed and names it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from bayesbits import enumerate_joint, load_scenario, oracle_metrics, oracle_mi

from workloads import Game, Op

BITS_TOL = 1e-9
TABLE_PRECISION = 6  # the CLI's default --precision
TABLE_TOL = 0.5 * 10**-TABLE_PRECISION + BITS_TOL
CSV_HEADER = ["model", "prior", "prior_bits", "evidence_bits", "likelihood_bits",
              "tic_bits", "sign", "posterior_bits", "posterior_prob"]


@dataclass(frozen=True)
class Oracle:
    metrics: dict[str, Any]  # observation -> OracleMetrics, possible observations only
    mi: float
    comparisons: int  # what `verify` must report for this scenario


def build_oracle(game: Game) -> Oracle:
    table = enumerate_joint(load_scenario(game.path))
    metrics = {x: oracle_metrics(table, x) for x in game.possible}
    # verify compares, per possible observation: evidence, the two KL
    # paths, and per model the posterior, the TIC and (prior > 0 only) the
    # local transfer entropy; then the two MI paths.
    per_obs = 3 + sum(2 + (p > 0) for p in game.prior)
    return Oracle(metrics, oracle_mi(table), per_obs * len(metrics) + 2)


def check(op: Op, rc: int, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-200:]}"
    try:
        if op.kind == "write":
            return check_write(op, out)
        if op.game.oracle is None:
            return "no oracle: the scenario's write failed"
        return check_verify(op, out) if op.kind == "verify" else check_solve(op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_write(op: Op, out: str) -> str | None:
    game = op.game
    if op.argv is not None and out != f"wrote {game.path}\n":
        return f"unexpected stdout {out[:80]!r}"
    doc = json.loads(game.path.read_text(encoding="utf-8"))
    models = tuple(m["label"] for m in doc["models"])
    prior = tuple(exact(m["prior"]) for m in doc["models"])
    likelihood = tuple(tuple(exact(v) for v in row) for row in doc["likelihood"])
    if models != game.models or tuple(doc["observations"]) != game.observations:
        return "written labels differ from the expected scenario"
    if prior != game.prior or likelihood != game.likelihood:
        return "written probabilities differ from the expected scenario"
    game.oracle = build_oracle(game)
    return None


def exact(value: Any) -> Fraction | None:
    return Fraction(value) if isinstance(value, str) else None


def check_verify(op: Op, out: str) -> str | None:
    lines = out.splitlines()
    want = f"comparisons: {op.game.oracle.comparisons}"
    if want not in lines:
        return f"expected {want!r}, got {[l for l in lines if l.startswith('comparisons')]}"
    if "status: PASS" not in lines:
        return "verify did not print status: PASS"
    return None


def check_solve(op: Op, out: str) -> str | None:
    game, x = op.game, op.observation
    metrics = game.oracle.metrics[x]
    got, tol = PARSERS[op.fmt](out)
    if got.get("observation", x) != x:
        return f"observation {got['observation']!r}, expected {x!r}"
    if "evidence" in got and got["evidence"] != metrics.evidence:
        return f"evidence {got['evidence']}, oracle {metrics.evidence}"
    if [row[0] for row in got["rows"]] != list(game.models):
        return "model rows differ from the scenario's models"
    row_index = game.observations.index(x)
    for (theta, post, tic, sign), prior, lik in zip(got["rows"], game.prior, game.likelihood[row_index]):
        want_sign = None if prior == 0 else (
            "informs" if lik > metrics.evidence else "misleads" if lik < metrics.evidence else "neutral"
        )
        if not close(post, float(metrics.posterior[theta]), tol):
            return f"posterior of {theta}: {post}, oracle {float(metrics.posterior[theta])}"
        if not close(tic, metrics.tic_bits[theta], tol):
            return f"TIC of {theta}: {tic}, oracle {metrics.tic_bits[theta]}"
        if sign != want_sign:
            return f"sign of {theta}: {sign}, expected {want_sign}"
    for key, want in (("kl", metrics.kl_bits), ("mi", game.oracle.mi)):
        if key in got and not close(got[key], max(0.0, want), tol):
            return f"{key}: {got[key]}, oracle {want}"
    return None


def close(got: float | None, want: float | None, tol: float) -> bool:
    if got is None or want is None:
        return got is want
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= tol


def bits(text: Any) -> float | None:
    """A bits cell in any output format: None for n/a, else a float (inf allowed)."""
    if text in (None, "", "n/a"):
        return None
    return float({"Infinity": "inf", "-Infinity": "-inf"}.get(text, text))


def parse_json(out: str) -> tuple[dict[str, Any], float]:
    doc = json.loads(out)
    rows = [(m["model"], bits(m["posterior_prob"]), bits(m["tic_bits"]), m["sign"])
            for m in doc["models"]]
    return {"observation": doc["observation"], "evidence": Fraction(doc["evidence"]),
            "rows": rows, "kl": bits(doc["kl_bits"]), "mi": bits(doc["mi_bits"])}, BITS_TOL


def parse_csv(out: str) -> tuple[dict[str, Any], float]:
    table = list(csv.reader(io.StringIO(out)))
    if table[0] != CSV_HEADER:
        raise ValueError(f"CSV header {table[0]}")
    rows = [(r[0], bits(r[8]), bits(r[5]), r[6] or None) for r in table[1:]]
    return {"rows": rows}, BITS_TOL


def parse_table(out: str) -> tuple[dict[str, Any], float]:
    lines = out.splitlines()
    head = {}
    for line in lines:
        key, _, value = line.partition(": ")
        head.setdefault(key, value)
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["model"]) + 1
    end = lines.index("", start)
    rows = []
    for line in lines[start:end]:
        cells = line.split()
        rows.append((cells[0], bits(cells[8]), bits(cells[5]), None if cells[6] == "n/a" else cells[6]))
    return {
        "observation": head["observation"],
        "evidence": Fraction(head["evidence"].split()[0]),
        "rows": rows,
        "kl": bits(head["KL(posterior || prior)"].split()[0]),
        "mi": bits(head["mutual information"].split()[0]),
    }, TABLE_TOL


PARSERS = {"json": parse_json, "csv": parse_csv, "table": parse_table}
