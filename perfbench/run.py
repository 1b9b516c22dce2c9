#!/usr/bin/env python3
"""Benchmark of the bayesbits CLI: solve, verify and write latency.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mhp-ladder --seed 1 --seconds 20 --trace 0

Workloads are ``mhp-ladder``, ``random-sweep`` and ``cli-presets``
(see ``BENCHMARK.json`` for why each exists). With ``--trace 0`` the last
line of stdout is one JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a replayed trace. Every
output is checked against the exact-rational oracle, and failed
operations are counted and named. The package is taken from ``src/``
of the checkout; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("mhp-ladder", "random-sweep", "cli-presets")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "bayesbits" / "__init__.py").is_file():
        print(f"error: no bayesbits package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.TooFewSamples as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
