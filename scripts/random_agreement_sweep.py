#!/usr/bin/env python3
"""Stress the engine against the exact oracle on random rational scenarios.

Generates seeded random scenarios (exact rationals, with occasional zero
priors and zero likelihoods to exercise the refuted-model paths), runs
the full engine-vs-oracle comparison on each, and reports the worst
deviation seen. A healthy run stays comfortably below 1e-9 bits.

Usage:
    python3 scripts/random_agreement_sweep.py [--count N] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from bayesbits import Distribution, ModelSpace, ObservationModel, Scenario
from bayesbits.verify import VERIFY_TOL, verify_scenario


def random_distribution(rng: random.Random, size: int) -> list[Fraction]:
    weights = [0 if rng.random() < 0.15 else rng.randint(1, 12) for _ in range(size)]
    if sum(weights) == 0:
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_scenario(rng: random.Random, max_models: int, max_observations: int) -> Scenario:
    n_models = rng.randint(1, max_models)
    n_obs = rng.randint(1, max_observations)
    prior = random_distribution(rng, n_models)
    columns = [random_distribution(rng, n_obs) for _ in range(n_models)]
    rows = [[columns[j][i] for j in range(n_models)] for i in range(n_obs)]
    return Scenario(
        name=f"random-{n_models}x{n_obs}",
        model_space=ModelSpace(
            prior=Distribution([f"M{i}" for i in range(n_models)], prior)
        ),
        observation_model=ObservationModel(
            observation_labels=[f"x{i}" for i in range(n_obs)],
            model_labels=[f"M{i}" for i in range(n_models)],
            likelihood=rows,
        ),
    )


def positive_int(text: str) -> int:
    """An argparse ``type``: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=positive_int, default=1000, help="scenarios to sweep")
    parser.add_argument("--seed", type=int, default=20260819, help="RNG seed")
    parser.add_argument("--max-models", type=positive_int, default=8)
    parser.add_argument("--max-observations", type=positive_int, default=8)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    worst = 0.0
    worst_name = ""
    total_checks = 0
    for i in range(args.count):
        scenario = random_scenario(rng, args.max_models, args.max_observations)
        max_dev, checks, _ = verify_scenario(scenario)
        total_checks += checks
        if max_dev > worst:
            worst = max_dev
            worst_name = f"#{i} ({scenario.name})"
    print(f"scenarios: {args.count}")
    print(f"comparisons: {total_checks}")
    print(f"worst deviation: {worst:.3e} bits" + (f" at {worst_name}" if worst_name else ""))
    print(f"tolerance: {VERIFY_TOL:.1e} bits")
    ok = worst <= VERIFY_TOL
    print(f"status: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
