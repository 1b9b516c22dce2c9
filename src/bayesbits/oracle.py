"""Brute-force probability-space oracle over exact rationals.

This module re-derives evidence, posteriors, surprisal transfers, and
divergences by enumerating the full joint outcome table with
``fractions.Fraction`` arithmetic, taking a single logarithm per
reported quantity at the very end. It deliberately shares none of the
information-space arithmetic used elsewhere in the package, so agreement
between the two paths is meaningful evidence of correctness.

Only exact scenarios can be enumerated; float inputs are refused rather
than silently rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ExactnessError, ImpossibleObservationError, InvariantViolation
from .scenario import Scenario

__all__ = [
    "JointOutcomeTable",
    "JointRow",
    "OracleMetrics",
    "enumerate_joint",
    "oracle_metrics",
    "oracle_mi",
]


def _log2_ratio(fr: Fraction) -> float:
    # math.log2 handles arbitrarily large ints without overflow, so the
    # ratio never has to pass through a float before the log.
    return math.log2(fr.numerator) - math.log2(fr.denominator)


@dataclass(frozen=True)
class JointRow:
    model: str
    observation: str
    prob: Fraction


@dataclass(frozen=True)
class JointOutcomeTable:
    """Exhaustive P(model, observation) enumeration, exact throughout."""

    model_labels: tuple[str, ...]
    observation_labels: tuple[str, ...]
    prior: tuple[Fraction, ...]
    rows: tuple[JointRow, ...]
    # observation -> model -> joint cell, built once from ``rows``
    _cells: dict[str, dict[str, Fraction]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells: dict[str, dict[str, Fraction]] = {}
        for row in self.rows:
            cells.setdefault(row.observation, {})[row.model] = row.prob
        object.__setattr__(self, "_cells", cells)

    def joint(self, model: str, observation: str) -> Fraction:
        try:
            return self._cells[observation][model]
        except KeyError:
            raise KeyError(f"no joint cell for ({model!r}, {observation!r})") from None

    def evidence(self, observation: str) -> Fraction:
        if observation not in self.observation_labels:
            raise KeyError(f"unknown observation {observation!r}")
        return sum(self._cells.get(observation, {}).values(), Fraction(0))

    def prior_of(self, model: str) -> Fraction:
        return self.prior[self.model_labels.index(model)]


def enumerate_joint(scenario: Scenario) -> JointOutcomeTable:
    """Multiply out P(model) * P(observation | model) for every cell.

    Refuses float scenarios with ``ExactnessError``. Verifies that the
    table is a genuine joint distribution: cells total exactly 1 and the
    per-model marginals reproduce the prior exactly.
    """
    if not scenario.is_exact:
        raise ExactnessError(
            f"scenario {scenario.name!r} contains float probabilities; "
            "the oracle requires exact rationals"
        )
    ms = scenario.model_space
    om = scenario.observation_model
    rows: list[JointRow] = []
    marginals: list[Fraction] = []
    for i, theta in enumerate(om.model_labels):
        prior = Fraction(ms.prior.probs[i])
        marginal = Fraction(0)
        for j, x in enumerate(om.observation_labels):
            prob = prior * Fraction(om.likelihood[j][i])
            rows.append(JointRow(model=theta, observation=x, prob=prob))
            marginal += prob
        marginals.append(marginal)

    total = sum(marginals, Fraction(0))
    if total != 1:
        raise InvariantViolation(f"joint table sums to {total}, expected exactly 1")
    for i, (theta, marginal) in enumerate(zip(om.model_labels, marginals)):
        if marginal != Fraction(ms.prior.probs[i]):
            raise InvariantViolation(
                f"joint marginal for model {theta!r} is {marginal}, "
                f"expected the prior {ms.prior.probs[i]}"
            )
    return JointOutcomeTable(
        model_labels=tuple(om.model_labels),
        observation_labels=tuple(om.observation_labels),
        prior=tuple(Fraction(p) for p in ms.prior.probs),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class OracleMetrics:
    """Everything the oracle can say about one observation."""

    observation: str
    evidence: Fraction
    posterior: dict[str, Fraction]
    tic_bits: dict[str, float | None]
    kl_bits: float


def oracle_metrics(table: JointOutcomeTable, observation: str) -> OracleMetrics:
    """Evidence, posteriors, per-model bit transfers, and KL for one observation.

    Every probability stays an exact Fraction until the one log2 call
    that turns a ratio into bits. Models with zero prior get ``None``
    (their surprisal shift is undefined), and refuted models get -inf.
    """
    if observation not in table.observation_labels:
        raise KeyError(f"unknown observation {observation!r}")
    metrics = _metrics(table, observation)
    if metrics is None:
        raise ImpossibleObservationError(
            f"observation {observation!r} has zero probability under the prior"
        )
    return metrics


def _metrics(table: JointOutcomeTable, observation: str) -> OracleMetrics | None:
    """:func:`oracle_metrics` of a known observation; None when it has zero evidence."""
    joint_of = table._cells.get(observation, {})
    evidence = sum(joint_of.values(), Fraction(0))
    if evidence == 0:
        return None
    posterior: dict[str, Fraction] = {}
    tic_bits: dict[str, float | None] = {}
    for i, theta in enumerate(table.model_labels):
        joint = joint_of[theta]
        prior = table.prior[i]
        posterior[theta] = joint / evidence
        if prior == 0:
            tic_bits[theta] = None
            continue
        likelihood = joint / prior
        if likelihood == 0:
            tic_bits[theta] = float("-inf")
        else:
            tic_bits[theta] = _log2_ratio(likelihood / evidence)

    kl = 0.0
    for i, theta in enumerate(table.model_labels):
        post = posterior[theta]
        if post == 0:
            continue
        kl += float(post) * _log2_ratio(post / table.prior[i])
    return OracleMetrics(
        observation=observation,
        evidence=evidence,
        posterior=posterior,
        tic_bits=tic_bits,
        kl_bits=kl,
    )


def oracle_mi(table: JointOutcomeTable) -> float:
    """Mutual information in bits: evidence-weighted KL over observations."""
    mi = 0.0
    for x in table.observation_labels:
        metrics = _metrics(table, x)
        if metrics is None:
            continue
        mi += float(metrics.evidence) * metrics.kl_bits
    return mi
