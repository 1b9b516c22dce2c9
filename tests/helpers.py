"""Shared test utilities: random exact-rational scenario generation."""

from __future__ import annotations

import random
from fractions import Fraction

from bayesbits import Distribution, ModelSpace, ObservationModel, Scenario


def random_rational_distribution(
    rng: random.Random, size: int, allow_zero: bool = True
) -> list[Fraction]:
    """Random exact distribution from small integer weights."""
    weights = []
    for _ in range(size):
        if allow_zero and rng.random() < 0.15:
            weights.append(0)
        else:
            weights.append(rng.randint(1, 12))
    if sum(weights) == 0:
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_rational_scenario(
    rng: random.Random, max_models: int = 8, max_observations: int = 8
) -> Scenario:
    """Random exact scenario with occasional zero priors and likelihoods."""
    n_models = rng.randint(1, max_models)
    n_obs = rng.randint(1, max_observations)
    prior = random_rational_distribution(rng, n_models)
    columns = [random_rational_distribution(rng, n_obs) for _ in range(n_models)]
    rows = [[columns[j][i] for j in range(n_models)] for i in range(n_obs)]
    model_labels = [f"M{i}" for i in range(n_models)]
    observation_labels = [f"x{i}" for i in range(n_obs)]
    return Scenario(
        name=f"random-{n_models}x{n_obs}",
        model_space=ModelSpace(prior=Distribution(model_labels, prior)),
        observation_model=ObservationModel(
            observation_labels=observation_labels,
            model_labels=model_labels,
            likelihood=rows,
        ),
    )


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


def bits_gap(a: float | None, b: float | None) -> float:
    """Absolute difference that treats equal infinities (or two Nones) as 0."""
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    if a == b:
        return 0.0
    return abs(a - b)
