"""Brute-force probability-space oracle over exact rationals.

This module re-derives evidence, posteriors, surprisal transfers, and
divergences by multiplying out the full joint outcome table,
P(model) * P(observation | model), in exact integer arithmetic, taking
a single logarithm per reported quantity at the very end. A float is
read as its exact dyadic value. Every quantity comes from one reader of
the scenario, :func:`scenario_metrics`, which streams one observation at
a time, and :func:`enumerate_joint` keeps what it gives. The module
deliberately shares none of the information-space arithmetic used
elsewhere in the package, so agreement between the two paths is
meaningful evidence of correctness.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import ImpossibleObservationError, InvariantViolation, UnknownLabelError
from .scenario import Scenario

__all__ = [
    "OracleMetrics",
    "enumerate_joint",
    "oracle_metrics",
    "oracle_mi",
    "oracle_mi_from_terms",
    "read_values",
    "scenario_metrics",
]

# What read_values gives: the prior's numerators and its denominators, in
# model order, each likelihood value's pair, aligned with
# ObservationModel.values, and whether every value was exact (no float)
Reading = tuple[tuple[list[int], list[int]], list[tuple[int, int]], bool]

# core.FLOAT_SUM_TOL, written out: how far off 1 a sum with a float may sit
_FLOAT_SUM_TOL = 1e-9


def read_values(scenario: Scenario) -> Reading:
    """The oracle's one reader of values: the prior's integer pairs, the
    pair of each distinct likelihood value, aligned with the observation
    model's ``values``, and whether every value was exact.

    A float's pair is its exact dyadic value.
    """
    prior, values = scenario.model_space.prior, scenario.observation_model.values
    exact = not any(map(float.__instancecheck__, chain(prior.probs, values)))
    nums, dens = map(list, zip(*[p.as_integer_ratio() for p in prior.probs]))
    return (nums, dens), [p.as_integer_ratio() for p in values], exact


# One observation as the oracle reads it: its label, each model's
# likelihood as a reduced integer pair, and the joint cells
# P(theta) * P(x | theta), in model order, as numerators over their least
# common denominator, so that they sum as integers: no gcd per cell
_Row = tuple[str, list[tuple[int, int]], list[int], int]


def _rows(scenario: Scenario, reading: Reading) -> Iterator[_Row]:
    """Each observation of the scenario as the oracle reads it, in order.

    ``reading`` is what :func:`read_values` gives. Each model's joint
    cells are summed as integers over the least common denominator of the
    rows so far. After the last observation the table is checked exactly,
    as the input types check the values: the prior sums to 1, and each
    model's marginal is its prior, within 0 when every value is exact and
    otherwise within ``_FLOAT_SUM_TOL`` (times the prior). So exact cells
    total 1; float cells may sit off by twice the bound plus its square.
    """
    prior, pairs, exact = reading
    om = scenario.observation_model
    sums, sums_den = [0] * len(prior[0]), 1  # each model's cells so far, over sums_den
    for x, row in zip(om.observation_labels, om.cells):
        liks = list(map(pairs.__getitem__, row))
        cells = [(p_num * l_num, p_den * l_den) for p_num, p_den, (l_num, l_den) in zip(*prior, liks)]
        den = math.lcm(*{d for _, d in cells})
        joints = [n * (den // d) for n, d in cells]
        if sums_den % den:
            factor = math.lcm(sums_den, den) // sums_den
            sums, sums_den = [s * factor for s in sums], sums_den * factor
        scaled = joints if den == sums_den else map(operator.mul, joints, repeat(sums_den // den))
        sums = list(map(operator.add, sums, scaled))
        yield x, liks, joints, den
    tol_num, tol_den = (0, 1) if exact else _FLOAT_SUM_TOL.as_integer_ratio()
    prior_den = math.lcm(*prior[1])
    total = sum([n * (prior_den // d) for n, d in zip(*prior)])
    if abs(total - prior_den) * tol_den > tol_num * prior_den:
        raise InvariantViolation(
            f"prior sums to {total / prior_den!r}, expected 1 within {tol_num / tol_den!r}"
        )
    probs = scenario.model_space.prior.probs
    for theta, num, p_num, p_den, p in zip(om.model_labels, sums, *prior, probs):
        if abs(num * p_den - sums_den * p_num) * tol_den > tol_num * sums_den * p_num:
            marginal = Fraction(num, sums_den)
            raise InvariantViolation(
                f"joint marginal for model {theta!r} is {marginal}, expected the prior {p}"
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


def _metrics(models: tuple[str, ...], prior_nums: list[int], row: _Row) -> OracleMetrics | None:
    """The oracle's one kernel: :func:`oracle_metrics` of an observation; None at evidence 0.

    ``prior_nums`` holds the prior's numerators, and ``row`` the
    observation as :func:`_rows` gives it. With the joint cells over their
    least common denominator, each model's posterior ``joint / evidence``
    is one integer over their sum. The TIC is the log of
    ``P(x | theta) / P(x)``, which equals ``P(theta | x) / P(theta)``;
    that one ratio gives both the TIC and the model's KL term. It is
    reduced before its logs, because the logs of an unreduced pair can
    differ in the last bits, and it is reduced from reduced parts (the
    cross gcds of Knuth, *TAOCP* vol. 2, section 4.5.1): the likelihood's
    own pair times the reciprocal of the evidence, reduced once per
    observation. Each gcd then has one small operand, where a gcd of the
    unreduced pair would take two operands the size of the whole row's
    common denominator. The ratio depends on the likelihood alone, so
    each distinct likelihood takes its logs once per observation.
    """
    observation, liks, joints, den = row
    total = sum(joints)
    if total == 0:
        return None
    evidence = Fraction(total, den)
    ev_num, ev_den = evidence.as_integer_ratio()
    floats = list(map(total.__rtruediv__, joints))  # int true division: float(posterior)
    # a likelihood's pair -> its TIC: a fast path, kept by BENCH_4.json
    # fast_paths["oracle_bits_of_cache"]
    bits_of: dict[tuple[int, int], float] = {}
    tics: list[float | None] = []
    kl = 0.0
    for joint, post, prior_num, pair in zip(joints, floats, prior_nums, liks):
        if joint == 0:  # no TIC where the prior is 0; -inf where the model is refuted
            tics.append(None if prior_num == 0 else -math.inf)
            continue
        bits = bits_of.get(pair)
        if bits is None:
            lik_num, lik_den = pair
            g_num, g_den = math.gcd(lik_num, ev_num), math.gcd(ev_den, lik_den)
            ratio_num = lik_num // g_num * (ev_den // g_den)
            ratio_den = lik_den // g_den * (ev_num // g_num)
            # math.log2 handles arbitrarily large ints without overflow, so
            # the ratio never has to pass through a float before the log.
            bits_of[pair] = bits = math.log2(ratio_num) - math.log2(ratio_den)
        tics.append(bits)
        kl += post * bits
    return OracleMetrics(
        observation=observation,
        models=models,
        evidence=evidence,
        posterior_nums=tuple(joints),
        posterior_den=total,
        posterior_floats=tuple(floats),
        tic_bits=dict(zip(models, tics)),
        kl_bits=kl,
    )


def scenario_metrics(scenario: Scenario, reading: Reading | None = None
                     ) -> Iterator[OracleMetrics | None]:
    """:func:`oracle_metrics` of every observation of the scenario, in order, one at a time.

    Every value is read at the call (see :func:`read_values`), before
    anything is given, unless ``reading`` is what :func:`read_values` gave
    for the scenario already. Then each observation's metrics come from its
    likelihood row, one row at a time, and are None where its evidence is
    0. Once the last observation has been given, the rows are checked as
    a joint distribution (see :func:`_rows`), so read to the end.
    """
    reading = reading or read_values(scenario)
    models = tuple(scenario.observation_model.model_labels)
    return (_metrics(models, reading[0][0], row) for row in _rows(scenario, reading))


def enumerate_joint(scenario: Scenario) -> dict[str, OracleMetrics | None]:
    """:func:`oracle_metrics` of every observation, keyed by label in the scenario's order.

    The value is None where the observation's evidence is 0. The whole
    scenario is read, so the joint-distribution checks of
    :func:`scenario_metrics` have run when this returns. The table keeps
    every observation's metrics; a large game is better streamed through
    :func:`scenario_metrics`, which holds one observation at a time.
    """
    labels = scenario.observation_model.observation_labels
    # strict: the stream is read to its end, where it checks the joint table
    return dict(zip(labels, scenario_metrics(scenario), strict=True))


def oracle_metrics(table: dict[str, OracleMetrics | None], observation: str) -> OracleMetrics:
    """Evidence, posteriors, per-model bit transfers, and KL for one observation.

    A lookup in the table :func:`enumerate_joint` gives. Every probability
    stays exact, as integers, until the one log2 call that turns a ratio
    into bits. Models with zero prior get ``None`` (their surprisal shift
    is undefined), and refuted models get -inf.
    """
    if observation not in table:
        raise UnknownLabelError(f"unknown observation {observation!r}")
    metrics = table[observation]
    if metrics is None:
        raise ImpossibleObservationError(
            f"observation {observation!r} has zero probability under the prior"
        )
    return metrics


def oracle_mi(table: dict[str, OracleMetrics | None]) -> float:
    """Mutual information in bits: evidence-weighted KL over observations."""
    return oracle_mi_from_terms((m.evidence, m.kl_bits) for m in table.values() if m is not None)


def oracle_mi_from_terms(terms: Iterable[tuple[Fraction, float]]) -> float:
    """:func:`oracle_mi` from each possible observation's evidence and KL, in observation order."""
    mi = 0.0
    for evidence, kl in terms:
        mi += evidence.numerator / evidence.denominator * kl  # float(evidence)
    return mi
