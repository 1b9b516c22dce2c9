#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints every metric that
   ``BENCHMARK.json`` names, with its unit, and nothing else.
2. A deliberately wrong expected value trips the correctness gate: a
   verify comparison count off by one, and an oracle MI off by 1e-6
   bits, must each fail operations and name them.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402


def tiny_run(workload: str, traced: bool) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = bench.run(workload, seed=7, seconds=1, traced=traced)
    return result, out.getvalue()


def main() -> int:
    workloads.LADDER = (3, 4, 5)
    workloads.SWEEP_MAX_MODELS = workloads.SWEEP_MAX_OBSERVATIONS = 2
    bench.MIN_SAMPLES = 2
    spec = bench.bench_spec()
    problems = []
    for workload in bench.WORKLOADS:
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            result, printed = tiny_run(workload, traced)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} trace={int(traced)}"
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} differ from {section}")
            for name, unit in want.items():
                if not any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                           for line in printed.splitlines()):
                    problems.append(f"{where}: {name} not printed with unit {unit}")
            if not result["correct"]:
                problems.append(f"{where}: correct is false on the unmodified program")

    build_oracle = gate.build_oracle
    corruptions = {
        "verify": lambda o: dataclasses.replace(o, comparisons=o.comparisons + 1),
        "solve": lambda o: dataclasses.replace(o, mi=o.mi + 1e-6),
    }
    for kind, corrupt in corruptions.items():
        gate.build_oracle = lambda game, corrupt=corrupt: corrupt(build_oracle(game))
        try:
            result, printed = tiny_run("random-sweep", traced=False)
        finally:
            gate.build_oracle = build_oracle
        named = [line for line in printed.splitlines() if line.startswith(f"FAILED {kind} ")]
        if result["correct"] or result["failed"] == 0 or not named:
            problems.append(f"a wrong expected {kind} value did not trip the gate")

    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
