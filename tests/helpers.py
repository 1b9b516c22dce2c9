"""Shared test utilities: exact-rational scenarios with wide denominators, float scenarios."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from bayesbits import Distribution, ModelSpace, ObservationModel, Scenario


def same_bits(a: float, b: float) -> bool:
    """Equal as binary64 values, telling -0.0 from 0.0 (float.hex covers +/-inf)."""
    return a.hex() == b.hex()


def probability_types(record) -> list[type]:
    """The type of each probability a Scenario, ModelSpace, Distribution or ObservationModel holds.

    The prior's come first, then the likelihood's, row by row. Any other record holds none.
    """
    if isinstance(record, Scenario):
        return probability_types(record.model_space) + probability_types(record.observation_model)
    if isinstance(record, ModelSpace):
        record = record.prior
    if isinstance(record, Distribution):
        return list(map(type, record.probs))
    if isinstance(record, ObservationModel):
        return [type(p) for row in record.likelihood for p in row]
    return []


def likelihood(om: ObservationModel, x: str, theta: str):
    """``P(x | theta)``: the cell of observation ``x`` and model ``theta``."""
    return om.likelihood[om.observation_labels.index(x)][om.model_labels.index(theta)]


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


def random_float_distribution(rng: random.Random, size: int) -> list[float]:
    """Float weights over their float total, about 15% of them 0; sums 1 within rounding.

    The total is ``math.fsum``'s, correctly rounded, so the values are the
    same on every Python; ``sum`` of floats is compensated from CPython 3.12 on.
    """
    weights = [0.0 if rng.random() < 0.15 else rng.random() for _ in range(size)]
    if sum(weights) == 0:
        weights[0] = 1.0
    total = math.fsum(weights)
    return [w / total for w in weights]


def random_float_scenario(rng: random.Random, max_size: int = 8) -> Scenario:
    """Random float scenario of 2 to ``max_size`` models and observations."""
    n_models, n_obs = rng.randint(2, max_size), rng.randint(2, max_size)
    columns = [random_float_distribution(rng, n_obs) for _ in range(n_models)]
    model_labels = [f"M{i}" for i in range(n_models)]
    return Scenario(
        name=f"float-{n_models}x{n_obs}",
        model_space=ModelSpace(
            prior=Distribution(model_labels, random_float_distribution(rng, n_models))
        ),
        observation_model=ObservationModel(
            observation_labels=[f"x{i}" for i in range(n_obs)],
            model_labels=model_labels,
            likelihood=[[columns[j][i] for j in range(n_models)] for i in range(n_obs)],
        ),
    )


def float_edge_scenario(name: str) -> Scenario:
    """A float scenario at an edge of what the input types accept, by name.

    * ``columns-off``: eight models at 1/8, each of whose likelihoods sum to
      1 - 9e-10. The classical MI, whose prior entropy takes those sums as
      1, sits 2.7e-9 bits from the exact MI;
    * ``prior-over``: a prior summing to 1 + 9e-10, and one certain
      observation, whose evidence is then above 1. The engine counts it as
      0 bits, so its TICs, KL and MI sit 1.3e-9 bits from the exact ones;
    * ``prior-one``: a float prior that sums to exactly 1;
    * ``at-bound``: a prior and columns that each sum to 1 plus exactly
      the float 1e-9, so the joint cells total that excess twice plus its
      square.
    """
    prior, rows = {
        "columns-off": ([0.125] * 8, [[0.5] * 8, [0.5 - 9e-10] * 8]),
        "prior-over": ([0.5, 0.5 + 9e-10], [[1.0, 1.0]]),
        "prior-one": ([0.375, 0.625], [[0.1, 0.7], [0.9, 0.3]]),
        "at-bound": ([1.0, 1e-9], [[1.0, 1.0], [1e-9, 1e-9]]),
    }[name]
    labels = [f"M{i}" for i in range(len(prior))]
    return Scenario(name, ModelSpace(Distribution(labels, prior)),
                    ObservationModel([f"x{i}" for i in range(len(rows))], labels, rows))
