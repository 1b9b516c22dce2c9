"""Replayed per-layer trace.

The traced run makes each operation for real, records it as a root
span, and then replays it: it calls the public functions of each layer
(names in ``bayesbits.__all__``) directly with the same inputs, one
child span per call. Nothing in the package is patched, so the program
runs exactly as in an untraced run. A root's self time is its duration
minus its children's; for a ``solve`` or ``verify`` root that remainder
is the CLI's own work (argument parsing, report building, rendering).

Spans stay in memory and are written to a JSON file when the run ends.

Which end-to-end metric each layer metric should move, and where:

* ``aggregates.kl_ms``, ``aggregates.mi_ms``: ``solve_ms_p50``,
  ``verify_ms_p50`` and ``cells_per_s``; strongly on mhp-ladder, partly
  on random-sweep, not on cli-presets. ``aggregates.solve_frac`` is
  their share of solve time, ``aggregates.mi_over_oracle`` the engine's
  MI time over the oracle's enumerate+MI time on the same scenarios,
  and the ``*.mi_exponent_*`` are fitted in N over the ladder per host.
* ``engine.evidence_ms``, ``engine.transfer_report_ms``,
  ``engine.pair_ms``: ``verify_ms_p50`` on mhp-ladder and random-sweep,
  ``solve_ms_p50`` on random-sweep.
* ``oracle.*_ms``: ``verify_ms_p50`` only, mostly on random-sweep.
* ``scenario.parse_ms``: ``solve_ms_p50`` and ``verify_ms_p50`` on
  random-sweep; ``scenario.write_ms``: ``write_ms_p50`` on mhp-ladder and
  cli-presets.
* ``cli.*_self_ms``: ``solve_ms_p50`` on random-sweep. On cli-presets
  it is the difference of two subprocess timings and can dip below 0.
* ``process.start_ms``, ``process.import_ms``: every latency on
  cli-presets (``process.op_frac`` is their share) and ``setup_s``
  everywhere.
* ``core.*`` counts describe the inputs and move nothing by themselves.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator

import bayesbits as bb

from workloads import HOSTS, Game, Op

LAYERS = ("scenario", "core", "engine", "aggregates", "oracle", "cli", "process")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bayesbits.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    op: int  # id of the operation the span belongs to, -1 for set-up
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        self.spans.append(Span(name, start, end, parent, op))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int, op: int) -> Iterator[None]:
        span = Span(name, time.perf_counter(), 0.0, parent, op)
        try:
            yield
        except Exception:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self.spans.append(span)

    def write(self, path: Path, header: dict[str, Any]) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.error] for s in self.spans]
        path.write_text(json.dumps({"header": header, "fields": ["name", "start", "end", "parent", "op", "error"],
                                    "spans": rows}), encoding="utf-8")


def import_probe(env: dict[str, str]) -> tuple[float, float, float]:
    """Start a fresh interpreter that imports the CLI: (start, wall seconds, import seconds)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return start, time.perf_counter() - start, float(proc.stdout)


def add_probe_spans(tr: Tracer, probe: tuple[float, float, float], parent: int, op: int) -> None:
    start, wall, imported = probe
    tr.add("process.start", start, start + wall - imported, parent, op)
    tr.add("process.import", start + wall - imported, start + wall, parent, op)


Spanner = Callable[[str], ContextManager[None]]


def no_span(name: str) -> ContextManager[None]:
    return nullcontext()


def write_scenario(game: Game, path: Path, sp: Spanner = no_span) -> None:
    """Build a scenario with the library's public constructors and save it."""
    if game.mhp is None:
        with sp("core.distribution"):
            prior = bb.Distribution(game.models, game.prior)
        with sp("scenario.write"):
            om = bb.ObservationModel(game.observations, game.models, game.likelihood)
            bb.save_scenario(bb.Scenario(game.name, bb.ModelSpace(prior), om), path)
        return
    n, policy, weights = game.mhp["door_count"], game.mhp["policy"], game.mhp["prior"]
    prior = None
    if weights is not None:
        with sp("core.distribution"):
            prior = bb.Distribution(bb.door_labels(n), weights)
    with sp("scenario.write"):
        cfg = bb.MhpConfig(door_count=n, prior=prior, host_policy=bb.HostPolicy(policy))
        bb.save_scenario(bb.mhp_scenario(cfg), path)


def replay(tr: Tracer, root: int, op_id: int, op: Op) -> None:
    """Call each layer directly with the operation's inputs, one span per call."""

    def sp(name: str) -> ContextManager[None]:
        return tr.span(name, root, op_id)

    path = op.game.path
    if op.kind == "write":
        write_scenario(op.game, path.with_suffix(".replay.json"), sp)
        return
    op.result["parse_bytes"] = path.stat().st_size
    with sp("scenario.parse"):
        scenario = bb.load_scenario(path)
    ms, om = scenario.model_space, scenario.observation_model
    if op.kind == "solve":
        x = op.observation
        with sp("engine.transfer_report"):
            bb.transfer_report(ms, om, x)
        with sp("aggregates.kl"):
            bb.kl_expected_tic(ms, om, x)
        with sp("aggregates.mi"):
            bb.mutual_information(ms, om)
        return
    with sp("oracle.enumerate"):
        table = bb.enumerate_joint(scenario)
    for x in om.observation_labels:
        with sp("engine.evidence"):
            ev = bb.evidence(ms, om, x)
        if ev == 0:
            continue
        with sp("oracle.metrics"):
            metrics = bb.oracle_metrics(table, x)
        for theta in om.model_labels:
            with sp("engine.pair"):
                bb.posterior_prob_info_form(ms, om, x, theta)
                if metrics.tic_bits[theta] is not None:
                    bb.tic(ms, om, x, theta)
                    bb.local_transfer_entropy(ms, om, x, theta)
        with sp("aggregates.kl"):
            bb.kl_expected_tic(ms, om, x)
        with sp("aggregates.kl_classical"):
            bb.kl_classical(ms, om, x)
    with sp("oracle.mi"):
        bb.oracle_mi(table)
    with sp("aggregates.mi"):
        bb.mutual_information(ms, om)
    with sp("aggregates.mi_classical"):
        bb.mutual_information_classical(ms, om)


def best_of(k: int, fn: Callable[[], Any]) -> float:
    times = []
    for _ in range(k):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x): the scaling exponent."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def scaling_exponents(ladder: tuple[int, ...]) -> dict[str, float]:
    """Exponent in N of engine MI and of oracle enumerate+MI, per host.

    Fitted on the upper half of the ladder (uniform prior, best of 3),
    where fixed per-call costs no longer hide the growth.
    """
    sizes = ladder[len(ladder) // 2:] if len(ladder) >= 4 else ladder
    result = {}
    for policy in HOSTS:
        engine, oracle = [], []
        for n in sizes:
            s = bb.mhp_scenario(bb.MhpConfig(door_count=n, host_policy=bb.HostPolicy(policy)))
            ms, om = s.model_space, s.observation_model
            engine.append(best_of(3, lambda: bb.mutual_information(ms, om)))
            oracle.append(best_of(3, lambda: bb.oracle_mi(bb.enumerate_joint(s))))
        result[f"aggregates.mi_exponent_{policy}"] = slope(list(sizes), engine)
        result[f"oracle.mi_exponent_{policy}"] = slope(list(sizes), oracle)
    return result


def span_cost() -> float:
    """Seconds one recorded span adds, measured on a throwaway tracer."""
    probe, n = Tracer(), 5000
    start = time.perf_counter()
    for _ in range(n):
        with probe.span("x", -1, -1):
            pass
    return (time.perf_counter() - start) / n


def layer_metrics(tr: Tracer, records: list[dict[str, Any]], ladder: tuple[int, ...]) -> dict[str, float]:
    """Per-layer metrics of a traced run; times are means per call in ms.

    ``records`` holds the ``Op.result`` of every operation, in order.
    """
    spans = tr.spans
    roots = {i: s for i, s in enumerate(spans) if s.parent == -1 and s.name.startswith("op.")}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent in roots:
            children[s.parent].append(s)
    by_name: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.duration)

    def mean_ms(name: str) -> float:
        return statistics.fmean(by_name[name]) * 1e3 if by_name[name] else 0.0

    def share(kinds: tuple[str, ...], pick: Callable[[Span], bool]) -> tuple[float, float]:
        """Time in the child spans ``pick`` accepts, and in the roots, over ops of ``kinds``."""
        part = whole = 0.0
        for i, root in roots.items():
            if root.name[3:] in kinds:
                whole += root.duration
                part += sum(c.duration for c in children[i] if pick(c))
        return part, whole

    def self_ms(kind: str) -> float:
        selfs = [r.duration - sum(c.duration for c in children[i]) for i, r in roots.items()
                 if r.name == f"op.{kind}"]
        return statistics.fmean(selfs) * 1e3 if selfs else 0.0

    def mean_of(key: str, kinds: tuple[str, ...] = ("write", "solve", "verify")) -> float:
        values = [r[key] for r in records if r["kind"] in kinds and key in r]
        return statistics.fmean(values) if values else 0.0

    agg_solve, solve_total = share(("solve",), lambda c: c.layer == "aggregates")
    mi_part, _ = share(("verify",), lambda c: c.name == "aggregates.mi")
    oracle_part, _ = share(("verify",), lambda c: c.name in ("oracle.enumerate", "oracle.mi"))
    proc_part, op_total = share(("write", "solve", "verify"), lambda c: c.layer == "process")
    n_ops = max(len(records), 1)
    metrics: dict[str, float] = {
        "scenario.parse_ms": mean_ms("scenario.parse"),
        "scenario.parse_bytes": mean_of("parse_bytes", ("solve", "verify")),
        "scenario.write_ms": mean_ms("scenario.write"),
        "engine.evidence_ms": mean_ms("engine.evidence"),
        "engine.transfer_report_ms": mean_ms("engine.transfer_report"),
        "engine.pair_ms": mean_ms("engine.pair"),
        "aggregates.kl_ms": mean_ms("aggregates.kl"),
        "aggregates.mi_ms": mean_ms("aggregates.mi"),
        "aggregates.mi_over_oracle": mi_part / oracle_part if oracle_part else 0.0,
        "aggregates.solve_frac": agg_solve / solve_total if solve_total else 0.0,
        "oracle.enumerate_ms": mean_ms("oracle.enumerate"),
        "oracle.metrics_ms": mean_ms("oracle.metrics"),
        "oracle.mi_ms": mean_ms("oracle.mi"),
        "cli.solve_self_ms": self_ms("solve"),
        "cli.verify_self_ms": self_ms("verify"),
        "cli.verify_comparisons": mean_of("comparisons", ("verify",)),
        "cli.stdout_bytes": mean_of("stdout_bytes"),
        "process.start_ms": mean_ms("process.start"),
        "process.import_ms": mean_ms("process.import"),
        "process.op_frac": proc_part / op_total if op_total else 0.0,
        "core.models": mean_of("models"),
        "core.observations": mean_of("observations"),
        "core.cells": mean_of("cells"),
        "core.max_denominator_bits": max((r["max_denominator_bits"] for r in records), default=0),
    }
    metrics.update(scaling_exponents(ladder))
    for layer in LAYERS:
        in_ops = [c for i in roots for c in children[i] if c.layer == layer]
        if layer == "cli":
            # every write/solve/verify except the library writes runs main() once
            metrics["cli.calls"] = sum(r["main"] for r in records) / n_ops
            metrics["cli.errors"] = sum(r["main"] and r["failed"] for r in records)
        else:
            metrics[f"{layer}.calls"] = len(in_ops) / n_ops
            metrics[f"{layer}.errors"] = sum(s.error for s in spans if s.layer == layer)
    traced = sum(r.duration for r in roots.values()) + sum(c.duration for i in roots for c in children[i])
    metrics["trace.overhead_frac"] = len(spans) * span_cost() / traced if traced else 0.0
    return metrics
