"""Benchmark runner: closed loop, one caller, whole passes, checked outputs.

One caller issues the next operation only when the previous one has
returned, on one thread. ``mhp-ladder`` and ``random-sweep`` call
``bayesbits.cli.main(argv)`` in this process (and, for the sweep's
writes, the library's public constructors and ``save_scenario``);
``cli-presets`` runs ``python -m bayesbits.cli`` as one subprocess per
operation. Each operation is timed with ``time.perf_counter`` and then
checked by the gate, outside the timed region.

End-to-end metrics (untraced run):

* ``setup_s``: wall time of a fresh interpreter that imports
  ``bayesbits.cli``, median of SETUP_STARTS starts after one warm-up.
* ``<kind>_ms_p50``/``_p90`` for write, solve and verify: Harrell-Davis
  estimates of the 50th and 90th percentile (see ``percentile``). A run
  goes on past ``--seconds`` until each kind has MIN_SAMPLES samples, so
  at least ten lie beyond each p90.
* ``ops_per_s`` and ``cells_per_s``: operations, and models x
  observations summed over operations, per second of operation time.
* ``peak_rss_mib``: peak resident memory of the process that ran the
  program (this one, or the largest CLI subprocess).

Machine speed. On a shared host the interpreter's speed swings by up to
1.7x within seconds and drifts by 10-50% between runs, more than any
bound a regression gate could use. So between operations, at most every
REFERENCE_EVERY_S, the loop times ``reference_seconds()``: fixed work of
the kind the program does (exact fractions, logs, JSON) in benchmark code
that no change to the package can alter. Each operation (and each set-up
start) is reported at reference speed: its wall time scaled by
REFERENCE_S over the median of the LOCAL_REFERENCES reference samples
nearest to it in time, so a speed change in the middle of a run is
corrected where it happens. The run pins itself, and with it every
subprocess it starts, to one CPU: the cores of a shared host change speed
separately, so a reference taken on one core says little about work done
on the other (a subprocess start scaled by an unpinned reference varied
twice as much as its wall time). The summary above the result line prints
the wall-clock values as well. Per-layer times in a traced run are wall
clock.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from bayesbits.cli import main as cli_main

import gate
import spans
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
KINDS = ("write", "solve", "verify")
SETUP_STARTS = 11
MIN_SAMPLES = 100  # per kind, so ten samples lie beyond the p90
HARD_CAP_S = 150.0  # stop starting passes after this, to end within 180 s
# reference_seconds() on the host the benchmark was defined on (2-core
# Xeon VM, CPython 3.11.7); reported times are scaled to this speed.
REFERENCE_S = 0.0016
REFERENCE_EVERY_S = 0.1
LOCAL_REFERENCES = 5

# name -> (function making one pass, runs the CLI in this process?)
WORKLOADS: dict[str, tuple[Callable[[random.Random, Path, int], list[Op]], bool]] = {
    "mhp-ladder": (workloads.mhp_ladder_pass, True),
    "random-sweep": (workloads.random_sweep_pass, True),
    "cli-presets": (workloads.cli_presets_pass, False),
}


class TooFewSamples(RuntimeError):
    pass


def header(workload: str, seed: int, seconds: int, traced: bool) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "ladder": list(workloads.LADDER),
        "omitted_sizes": {str(n): why for n, why in workloads.OMITTED_SIZES.items()},
        "loop": "closed, one caller, one thread",
    }


def run_op(op: Op, in_process: bool) -> tuple[int, str, str, float, float]:
    """Run one operation: (exit code, stdout, stderr, start, end)."""
    if op.argv is None:
        start = time.perf_counter()
        try:
            spans.write_scenario(op.game, op.game.path)
            rc, err = 0, ""
        except Exception:
            rc, err = 1, traceback.format_exc()
        return rc, "", err, start, time.perf_counter()
    if not in_process:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "bayesbits.cli", *op.argv], env=ENV,
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr, start, time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli_main(op.argv)
        except Exception:
            # main() must map every error to an exit code; a traceback is a failure
            rc = 1
            err.write(traceback.format_exc())
        end = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), start, end


def reference_seconds() -> float:
    """Time a fixed computation of the kind the program does: fractions, logs, JSON."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    json.dumps({"acc": str(acc), "logs": [math.log2(i) for i in range(1, 400)]})
    return time.perf_counter() - start


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics,
    where a plain percentile takes one or two of them. The operations of
    a workload come in classes of very different cost (door count, host),
    so the plain p90 is the fastest of one class or the slowest of the
    next and jumps with the jitter of one operation; this estimate
    averages the ten-odd samples around the quantile instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    spread = math.sqrt(p * (1 - p) / (n + 2))  # standard deviation of the Beta weight
    first = max(0, int((p - 12 * spread) * n))
    last = min(n - 1, int((p + 12 * spread) * n))
    steps = 16  # midpoint rule for the Beta mass on each [i/n, (i+1)/n]
    logs = [[(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
             for x in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(first, last + 1)]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs[first:last + 1])) / sum(weights)


def p90(values: list[float]) -> float:
    return percentile(values, 0.9)


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict[str, Any]:
    make_pass, in_process = WORKLOADS[workload]
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(seed)
    head = header(workload, seed, seconds, traced)
    print("header: " + json.dumps(head))
    tracer = spans.Tracer() if traced else None
    OUT.mkdir(parents=True, exist_ok=True)
    records: list[dict[str, Any]] = []  # op.result of every operation, not the op
    failures: list[str] = []
    references: list[tuple[float, float]] = []  # (when, reference_seconds())

    def take_reference() -> float:
        references.append((time.perf_counter(), reference_seconds()))
        return time.perf_counter()

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        spans.import_probe(ENV)  # warm-up: byte-compiles the package once
        probes = []
        for _ in range(SETUP_STARTS):
            take_reference()
            probes.append(spans.import_probe(ENV))
        if tracer is not None:
            for probe in probes:
                root = tracer.add("setup", probe[0], probe[0] + probe[1])
                spans.add_probe_spans(tracer, probe, root, -1)
        began = last_reference = take_reference()
        pass_no = 0
        while True:
            ops = make_pass(rng, Path(tmp), pass_no)
            for op in ops:
                if op.kind == "write":
                    op.game.path.touch()  # untimed file creation, see workloads
            for op in ops:
                rc, out, err, start, end = run_op(op, in_process)
                reason = gate.check(op, rc, out, err)
                op.result.update(kind=op.kind, main=op.argv is not None,
                                 start=start, end=end, seconds=end - start, failed=reason is not None,
                                 cells=op.game.cells, models=len(op.game.models),
                                 observations=len(op.game.observations),
                                 max_denominator_bits=op.game.max_denominator_bits,
                                 stdout_bytes=len(out.encode()))
                if op.kind == "verify" and reason is None:
                    op.result["comparisons"] = op.game.oracle.comparisons
                if reason is not None:
                    failures.append(f"{op.label}: {reason}")
                records.append(op.result)
                if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                    last_reference = take_reference()
                if tracer is not None:
                    op_id = len(records) - 1
                    root = tracer.add(f"op.{op.kind}", start, end, op=op_id)
                    if not in_process:
                        spans.add_probe_spans(tracer, spans.import_probe(ENV), root, op_id)
                    with contextlib.suppress(Exception):  # errors stay recorded on the spans
                        spans.replay(tracer, root, op_id, op)
            pass_no += 1
            elapsed = time.perf_counter() - began
            counts = [sum(r["kind"] == k for r in records) for k in KINDS]
            if elapsed >= HARD_CAP_S or (elapsed >= seconds and (traced or min(counts) >= MIN_SAMPLES)):
                break
        take_reference()
        if not traced and min(counts) < MIN_SAMPLES:
            raise TooFewSamples(f"only {dict(zip(KINDS, counts))} samples after {elapsed:.0f} s")

    print(f"passes: {pass_no}, operations: {len(records)}, measured for {elapsed:.1f} s")
    for line in failures[:20]:
        print(f"FAILED {line}")
    failed = len(failures)
    print(f"failed_frac: {failed / len(records)!r} ({failed} of {len(records)} operations)")
    if tracer is not None:
        metrics = spans.layer_metrics(tracer, records, workloads.LADDER)
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write(path, head)
        print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        print(f"confirm: aggregates share of solve time = {metrics['aggregates.solve_frac']:.3f}; "
              f"process share of each operation = {metrics['process.op_frac']:.3f}")
    else:
        spans_of = [(r["start"], r["end"]) for r in records]
        setups = [(p[0], p[0] + p[1]) for p in probes]
        metrics = end_to_end(records, at_reference_speed(spans_of, references),
                             at_reference_speed(setups, references), in_process)
        wall = end_to_end(records, [r["seconds"] for r in records], [p[1] for p in probes], in_process)
        units = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
        ref_values = [v for _, v in references]
        print(f"reference: {len(references)} samples, median {statistics.median(ref_values) * 1e3:.4f} ms, "
              f"range {min(ref_values) * 1e3:.4f}-{max(ref_values) * 1e3:.4f} ms "
              f"(reference speed is {REFERENCE_S * 1e3:.4f} ms)")
        print("wall clock: " + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()))
        for kind in KINDS:
            values = [r["seconds"] for r in records if r["kind"] == kind]
            tail = p90(values)
            beyond = sum(v > tail for v in values)
            print(f"{kind}: {len(values)} samples, {beyond} beyond the p90")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def at_reference_speed(intervals: list[tuple[float, float]], references: list[tuple[float, float]]) -> list[float]:
    """Each (start, end) interval's length, scaled by the references taken nearest to it."""
    times = [when for when, _ in references]
    scaled = []
    for start, end in intervals:
        i = bisect.bisect(times, (start + end) / 2)
        lo = max(0, min(i - LOCAL_REFERENCES // 2, len(references) - LOCAL_REFERENCES))
        local = statistics.median(value for _, value in references[lo:lo + LOCAL_REFERENCES])
        scaled.append((end - start) * REFERENCE_S / local)
    return scaled


def end_to_end(records: list[dict[str, Any]], seconds: list[float], setups: list[float],
               in_process: bool) -> dict[str, float]:
    """Metrics from per-operation times ``seconds`` (parallel to records) and set-up times."""
    metrics = {"setup_s": statistics.median(setups)}
    for kind in KINDS:
        values = [t for r, t in zip(records, seconds) if r["kind"] == kind]
        metrics[f"{kind}_ms_p50"] = percentile(values, 0.5) * 1e3
        metrics[f"{kind}_ms_p90"] = p90(values) * 1e3
    busy = sum(seconds)
    metrics["ops_per_s"] = len(records) / busy
    metrics["cells_per_s"] = sum(r["cells"] for r in records) / busy
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
    return metrics


def bench_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
