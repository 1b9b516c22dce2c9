"""Shared test utilities: exact-rational scenarios with wide denominators."""

from __future__ import annotations

import random
from fractions import Fraction

from bayesbits import Distribution, ModelSpace, ObservationModel, Scenario


def same_bits(a: float, b: float) -> bool:
    """Equal as binary64 values, telling -0.0 from 0.0 (float.hex covers +/-inf)."""
    return a.hex() == b.hex()


# Primes up to 3000 (trial division up to sqrt(3000) < 55), pairwise coprime.
PRIMES = [p for p in range(1009, 3000) if all(p % q for q in range(2, 55))]


def wide_36_bit(rng: random.Random, k: int) -> list[int]:
    """``k`` random 36-bit denominators."""
    return [rng.randrange(1 << 35, 1 << 36) for _ in range(k)]


def wide_coprime(rng: random.Random, k: int) -> list[int]:
    """``k`` distinct primes, so pairwise coprime denominators."""
    return rng.sample(PRIMES, k)


def wide_rational_distribution(rng: random.Random, size: int, denominators) -> list[Fraction]:
    """Exact distribution whose entries have different denominators.

    ``denominators(rng, k)`` draws them. Every entry but the last is below
    ``1/size`` (or 0); the last is what remains, so its denominator is the
    least common multiple of the others'.
    """
    head = []
    for den in denominators(rng, size - 1):
        head.append(Fraction(0) if rng.random() < 0.15 else Fraction(rng.randrange(den // size), den))
    return head + [1 - sum(head)]


def wide_rational_scenario(rng: random.Random, denominators, max_size: int = 6) -> Scenario:
    """Random exact scenario whose prior and rows mix wide, different denominators."""
    n_models, n_obs = rng.randint(1, max_size), rng.randint(1, max_size)
    prior = wide_rational_distribution(rng, n_models, denominators)
    columns = [wide_rational_distribution(rng, n_obs, denominators) for _ in range(n_models)]
    model_labels = [f"M{i}" for i in range(n_models)]
    return Scenario(
        name=f"wide-{n_models}x{n_obs}",
        model_space=ModelSpace(prior=Distribution(model_labels, prior)),
        observation_model=ObservationModel(
            observation_labels=[f"x{i}" for i in range(n_obs)],
            model_labels=model_labels,
            likelihood=[[columns[j][i] for j in range(n_models)] for i in range(n_obs)],
        ),
    )
