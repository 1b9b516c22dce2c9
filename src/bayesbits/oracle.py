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
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import ExactnessError, ImpossibleObservationError, InvariantViolation
from .record import Record
from .scenario import Scenario

__all__ = [
    "JointOutcomeTable",
    "JointRow",
    "OracleMetrics",
    "enumerate_joint",
    "observation_metrics",
    "oracle_metrics",
    "oracle_mi",
    "oracle_mi_from_metrics",
]


def _exact_sum(values: list[Fraction]) -> Fraction:
    # Integer numerators over the least common denominator, normalised once.
    den = math.lcm(*[v.denominator for v in values])
    return Fraction(sum([v.numerator * (den // v.denominator) for v in values]), den)


def _log2_ratio(fr: Fraction) -> float:
    # math.log2 handles arbitrarily large ints without overflow, so the
    # ratio never has to pass through a float before the log.
    return math.log2(fr.numerator) - math.log2(fr.denominator)


class JointRow(NamedTuple):
    model: str
    observation: str
    prob: Fraction


class JointOutcomeTable(Record):
    """Exhaustive P(model, observation) enumeration, exact throughout."""

    __slots__ = _fields = ("model_labels", "observation_labels", "prior", "_cells")
    _hidden = ("_cells",)
    model_labels: tuple[str, ...]
    observation_labels: tuple[str, ...]
    prior: tuple[Fraction, ...]
    # observation -> model -> joint cell, models in order
    _cells: dict[str, dict[str, Fraction]]

    def __init__(
        self,
        model_labels: tuple[str, ...],
        observation_labels: tuple[str, ...],
        prior: tuple[Fraction, ...],
        _cells: dict[str, dict[str, Fraction]],
    ) -> None:
        self._set(
            model_labels=model_labels,
            observation_labels=observation_labels,
            prior=prior,
            _cells=_cells,
        )

    @property
    def rows(self) -> tuple[JointRow, ...]:
        """Every cell as a row, model-major; built on each access."""
        return tuple(
            [
                JointRow(model=theta, observation=x, prob=self._cells[x][theta])
                for theta in self.model_labels
                for x in self.observation_labels
            ]
        )

    def joint(self, model: str, observation: str) -> Fraction:
        try:
            return self._cells[observation][model]
        except KeyError:
            raise KeyError(f"no joint cell for ({model!r}, {observation!r})") from None

    def evidence(self, observation: str) -> Fraction:
        if observation not in self.observation_labels:
            raise KeyError(f"unknown observation {observation!r}")
        return _exact_sum(list(self._cells[observation].values()))

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
    prior = tuple(Fraction(p) for p in ms.prior.probs)
    cells: dict[str, dict[str, Fraction]] = {x: {} for x in om.observation_labels}
    by_observation = list(cells.values())
    marginals: list[Fraction] = []
    for i, theta in enumerate(om.model_labels):
        num, den = prior[i].numerator, prior[i].denominator
        column: list[Fraction] = []
        for joint_of, row in zip(by_observation, om.likelihood):
            lik = row[i]  # a Fraction: the scenario is exact
            joint_of[theta] = prob = Fraction(num * lik.numerator, den * lik.denominator)
            column.append(prob)
        marginals.append(_exact_sum(column))

    total = _exact_sum(marginals)
    if total != 1:
        raise InvariantViolation(f"joint table sums to {total}, expected exactly 1")
    for theta, marginal, p in zip(om.model_labels, marginals, prior):
        if marginal != p:
            raise InvariantViolation(
                f"joint marginal for model {theta!r} is {marginal}, expected the prior {p}"
            )
    return JointOutcomeTable(
        model_labels=tuple(om.model_labels),
        observation_labels=tuple(om.observation_labels),
        prior=prior,
        _cells=cells,
    )


class OracleMetrics(NamedTuple):
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
    """:func:`oracle_metrics` of a known observation; None when it has zero evidence.

    Each model's posterior ``joint / evidence`` and its ratio to the prior
    ``P(theta | x) / P(theta)``, which equals ``P(x | theta) / P(x)``, are
    built once from integer parts; that one ratio gives both the TIC and
    the model's KL term.
    """
    joint_of = table._cells[observation]
    evidence = _exact_sum(list(joint_of.values()))
    if evidence == 0:
        return None
    ev_num, ev_den = evidence.numerator, evidence.denominator
    posterior: dict[str, Fraction] = {}
    tic_bits: dict[str, float | None] = {}
    kl = 0.0
    for theta, prior in zip(table.model_labels, table.prior):
        joint = joint_of[theta]
        post = Fraction(joint.numerator * ev_den, joint.denominator * ev_num)
        posterior[theta] = post
        if prior == 0:
            tic_bits[theta] = None
        elif post == 0:
            tic_bits[theta] = float("-inf")
        else:
            ratio = Fraction(post.numerator * prior.denominator, post.denominator * prior.numerator)
            tic_bits[theta] = bits = _log2_ratio(ratio)
            kl += post.numerator / post.denominator * bits  # float(post), bit for bit
    return OracleMetrics(
        observation=observation,
        evidence=evidence,
        posterior=posterior,
        tic_bits=tic_bits,
        kl_bits=kl,
    )


def observation_metrics(table: JointOutcomeTable) -> tuple[OracleMetrics | None, ...]:
    """The metrics of every observation, in order; None where its evidence is 0."""
    return tuple([_metrics(table, x) for x in table.observation_labels])


def oracle_mi(table: JointOutcomeTable) -> float:
    """Mutual information in bits: evidence-weighted KL over observations."""
    return oracle_mi_from_metrics(observation_metrics(table))


def oracle_mi_from_metrics(metrics: Iterable[OracleMetrics | None]) -> float:
    """:func:`oracle_mi` from the metrics of every observation (None entries skipped)."""
    mi = 0.0
    for m in metrics:
        if m is None:
            continue
        mi += m.evidence.numerator / m.evidence.denominator * m.kl_bits  # float(evidence)
    return mi
