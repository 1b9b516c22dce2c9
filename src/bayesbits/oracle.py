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
from typing import Iterable, NamedTuple, Sequence

from .errors import ExactnessError, ImpossibleObservationError, InvariantViolation
from .record import Record
from .scenario import Scenario

__all__ = [
    "JointOutcomeTable",
    "OracleMetrics",
    "enumerate_joint",
    "observation_metrics",
    "oracle_metrics",
    "oracle_mi",
    "oracle_mi_from_metrics",
]


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    # The fractions n/d as numerators over their least common denominator,
    # so that they sum as integers: no gcd per value.
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


class JointOutcomeTable(Record):
    """Exhaustive P(model, observation) enumeration, exact throughout.

    Cells are unreduced (numerator, denominator) pairs; :meth:`joint` and
    :meth:`evidence` build Fractions on each call.
    """

    __slots__ = _fields = ("model_labels", "observation_labels", "prior", "_cells")
    _hidden = ("_cells",)
    model_labels: tuple[str, ...]
    observation_labels: tuple[str, ...]
    prior: tuple[Fraction, ...]
    # observation -> the joint cell of each model, in model order
    _cells: dict[str, list[tuple[int, int]]]

    def __init__(
        self,
        model_labels: tuple[str, ...],
        observation_labels: tuple[str, ...],
        prior: tuple[Fraction, ...],
        _cells: dict[str, list[tuple[int, int]]],
    ) -> None:
        self._set(
            model_labels=model_labels,
            observation_labels=observation_labels,
            prior=prior,
            _cells=_cells,
        )

    def joint(self, model: str, observation: str) -> Fraction:
        if model not in self.model_labels or observation not in self._cells:
            raise KeyError(f"no joint cell for ({model!r}, {observation!r})")
        return Fraction(*self._cells[observation][self.model_labels.index(model)])

    def evidence(self, observation: str) -> Fraction:
        if observation not in self.observation_labels:
            raise KeyError(f"unknown observation {observation!r}")
        nums, den = _over_lcm(self._cells[observation])
        return Fraction(sum(nums), den)


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
    prior = ms.prior.probs  # Fractions: the scenario is exact
    parts = [p.as_integer_ratio() for p in prior]
    # one integer pair per distinct likelihood value object, found by its
    # id; the scenario keeps every object alive
    pairs: dict[int, tuple[int, int]] = {}
    cells: dict[str, list[tuple[int, int]]] = {}
    for x, row in zip(om.observation_labels, om.likelihood):
        cells[x] = row_cells = []
        for (num, den), lik in zip(parts, row):
            pair = pairs.get(id(lik))
            if pair is None:
                pairs[id(lik)] = pair = lik.as_integer_ratio()
            row_cells.append((num * pair[0], den * pair[1]))
    marginals = [(sum(nums), den) for nums, den in map(_over_lcm, zip(*cells.values()))]
    nums, den = _over_lcm(marginals)
    if (total := sum(nums)) != den:
        raise InvariantViolation(f"joint table sums to {Fraction(total, den)}, expected exactly 1")
    for theta, (num, den), (p_num, p_den), p in zip(om.model_labels, marginals, parts, prior):
        if num * p_den != den * p_num:
            marginal = Fraction(num, den)
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
    """Everything the oracle can say about one observation.

    The posterior of ``models[i]`` is ``posterior_nums[i] / posterior_den``,
    unreduced, with ``posterior_floats[i]`` its correctly rounded float;
    ``posterior`` maps each model to it as a Fraction, built on each access.
    """

    observation: str
    models: tuple[str, ...]
    evidence: Fraction
    posterior_nums: tuple[int, ...]
    posterior_den: int
    posterior_floats: tuple[float, ...]
    tic_bits: dict[str, float | None]
    kl_bits: float

    @property
    def posterior(self) -> dict[str, Fraction]:
        den = self.posterior_den
        return {theta: Fraction(num, den) for theta, num in zip(self.models, self.posterior_nums)}


def oracle_metrics(table: JointOutcomeTable, observation: str) -> OracleMetrics:
    """Evidence, posteriors, per-model bit transfers, and KL for one observation.

    Every probability stays exact, as integers, until the one log2 call
    that turns a ratio into bits. Models with zero prior get ``None``
    (their surprisal shift is undefined), and refuted models get -inf.
    """
    if observation not in table.observation_labels:
        raise KeyError(f"unknown observation {observation!r}")
    metrics = _metrics(table, observation, [p.as_integer_ratio() for p in table.prior])
    if metrics is None:
        raise ImpossibleObservationError(
            f"observation {observation!r} has zero probability under the prior"
        )
    return metrics


def _metrics(
    table: JointOutcomeTable, observation: str, prior_pairs: list[tuple[int, int]]
) -> OracleMetrics | None:
    """:func:`oracle_metrics` of a known observation; None when it has zero evidence.

    ``prior_pairs`` holds the integer pair of each prior. Over the least
    common denominator of the observation's cells, each model's posterior
    ``joint / evidence`` is one integer over their sum.
    Its ratio to the prior ``P(theta | x) / P(theta)``, which equals
    ``P(x | theta) / P(x)``, is reduced before its logs, because the logs
    of an unreduced pair can differ in the last bits; that one ratio gives
    both the TIC and the model's KL term. It is reduced from reduced parts
    (the cross gcds of Knuth, *TAOCP* vol. 2, section 4.5.1): the joint
    cell over the prior, whose integers are small, times the reciprocal of
    the evidence, reduced once per observation. Each gcd then has one
    small operand, where a gcd of the unreduced pair would take two
    operands the size of the whole row's common denominator.
    """
    cells = table._cells[observation]
    joints, den = _over_lcm(cells)
    total = sum(joints)
    if total == 0:
        return None
    evidence = Fraction(total, den)
    ev_num, ev_den = evidence.as_integer_ratio()
    floats: list[float] = []
    tic_bits: dict[str, float | None] = {}
    kl = 0.0
    for theta, joint, (cell_num, cell_den), (prior_num, prior_den) in zip(
        table.model_labels, joints, cells, prior_pairs
    ):
        floats.append(post := joint / total)  # int true division: float(posterior)
        if prior_num == 0:
            tic_bits[theta] = None
        elif joint == 0:
            tic_bits[theta] = float("-inf")
        else:
            # P(x | theta) = cell / prior, reduced, then times ev_den / ev_num
            lik_num, lik_den = cell_num * prior_den, cell_den * prior_num
            g = math.gcd(lik_num, lik_den)
            lik_num, lik_den = lik_num // g, lik_den // g
            g_num, g_den = math.gcd(lik_num, ev_num), math.gcd(ev_den, lik_den)
            ratio_num = lik_num // g_num * (ev_den // g_den)
            ratio_den = lik_den // g_den * (ev_num // g_num)
            # math.log2 handles arbitrarily large ints without overflow, so
            # the ratio never has to pass through a float before the log.
            tic_bits[theta] = bits = math.log2(ratio_num) - math.log2(ratio_den)
            kl += post * bits
    return OracleMetrics(
        observation=observation,
        models=table.model_labels,
        evidence=evidence,
        posterior_nums=tuple(joints),
        posterior_den=total,
        posterior_floats=tuple(floats),
        tic_bits=tic_bits,
        kl_bits=kl,
    )


def observation_metrics(table: JointOutcomeTable) -> tuple[OracleMetrics | None, ...]:
    """The metrics of every observation, in order; None where its evidence is 0."""
    prior_pairs = [p.as_integer_ratio() for p in table.prior]  # once per table, not per cell
    return tuple([_metrics(table, x, prior_pairs) for x in table.observation_labels])


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
