"""Single-observation Bayesian updating carried out in information space.

A Bayes update can be written entirely in bits. Taking -log2 of Bayes'
rule splits one observation's effect on a hypothesis into two opposing
surprisal terms:

* the evidence term ``info_content(P(x))``, which always lowers the
  posterior information content (raises the probability), and
* the likelihood term ``info_content(P(x | theta))``, which always
  raises it (lowers the probability).

Their difference is the transfer information content,

    tic(x -> theta) = info_content(P(x)) - info_content(P(x | theta)),

the net signed bits the observation delivers to that one hypothesis.
Positive TIC informs, negative TIC misleads, and the posterior falls out
as ``posterior_info = prior_info - tic``. One observation's work is one
:class:`Marginal`: the evidence, the TICs and the posteriors of Bayes'
rule in probability space, which KL, MI and ``verify`` read, and the
report columns (sign classes, posterior bits, the transfer report's
rows) that it computes from them on demand. Every probability, a float
too, enters as its exact integer pair, so each sum and sign is exact.
The exact-rational oracle in
:mod:`bayesbits.oracle` checks both routes. The input types,
``ModelSpace`` and ``ObservationModel``, live in :mod:`bayesbits.scenario`.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .core import (
    Bits,
    Probability,
    _info,
    _log2_quotient,
    _over_lcm,
    prob_from_info,
)
from .errors import (
    ImpossibleObservationError,
    InvariantViolation,
    UndefinedLogError,
    UnknownLabelError,
)
from .scenario import ModelSpace, ObservationModel

__all__ = [
    "ModelTransfer",
    "SignClass",
    "evidence",
    "local_transfer_entropy",
    "posterior_info",
    "posterior_prob_info_form",
    "tic",
    "transfer_report",
]


class SignClass(enum.Enum):
    """Three-way effect of an observation on one hypothesis."""

    INFORMS = "informs"
    NEUTRAL = "neutral"
    MISLEADS = "misleads"


def _check_pairing(ms: ModelSpace, om: ObservationModel) -> None:
    if ms.labels != om.model_labels:
        raise InvariantViolation(
            f"model space labels {list(ms.labels)} do not match "
            f"observation model columns {list(om.model_labels)}"
        )


def _joint_row(
    scaled_prior: tuple[Sequence[int], int], scaled_row: tuple[list[int], int]
) -> tuple[int, int, list[int], list[float]]:
    """Marginalise one likelihood row: ``P(x)`` and each ``P(theta | x)``.

    The one place a likelihood row is marginalised against the prior.
    ``scaled_prior`` and ``scaled_row`` are the values' numerators over one
    common denominator each, so the joints are integers. Returns ``P(x)``'s
    numerator (the joints' total) and denominator, and the posteriors, the
    joints over that total, as integers and as correctly rounded floats;
    these are empty when ``P(x)`` is 0.
    """
    prior_nums, prior_den = scaled_prior
    row_nums, row_den = scaled_row
    joints = list(map(operator.mul, row_nums, prior_nums))
    total = sum(joints)
    if total == 0:
        joints = []
    return total, prior_den * row_den, joints, [joint / total for joint in joints]


def _holds_float(*columns: Sequence[Probability]) -> bool:
    """Whether any value is a float: results worked from it are shown as floats."""
    return not all(isinstance(p, Fraction) for column in columns for p in column)


def evidence(ms: ModelSpace, om: ObservationModel, x: str) -> Probability:
    """Marginal probability of observation ``x`` under the prior mixture.

    Always computed by marginalizing the likelihood against the prior,
    exactly: a Fraction, or its correctly rounded float when the prior or
    the row holds a float. Never supplied externally, so the evidence can
    never disagree with the prior and likelihood.
    """
    _check_pairing(ms, om)
    probs, values = ms.prior.probs, om.values
    row = [values[k] for k in om.cells[om._x_index(x)]]
    scaled = [_over_lcm([p.as_integer_ratio() for p in ps]) for ps in (probs, row)]
    num, den, *_ = _joint_row(*scaled)
    return num / den if _holds_float(probs, row) else Fraction(num, den)


def tic(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Bits:
    """Transfer information content from observation ``x`` to model ``theta``.

    ``info_content(P(x)) - info_content(P(x | theta))`` in bits. Negative
    values mean the observation misleads about the model; ``-inf`` means
    the model is refuted outright (likelihood 0 for an observation that
    happened).
    """
    return transfer_report(ms, om, x).tics[om._theta_index(theta)]


def posterior_info(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Bits:
    """Posterior information content of ``theta`` after seeing ``x``.

    ``prior_info - tic``, the information-space form of the Bayes update.
    ``+inf`` means the posterior probability is 0.
    """
    return transfer_report(ms, om, x).posterior_infos[om._theta_index(theta)]


def posterior_prob_info_form(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> float:
    """Posterior probability recovered from the information-space route."""
    return prob_from_info(posterior_info(ms, om, x, theta))


class ModelTransfer(NamedTuple):
    """One model's row of a transfer report.

    ``tic`` and ``sign_class`` are None when the prior is 0: the transfer
    to an already-impossible model has no defined meaning, and recording
    None keeps NaN out of the report.
    """

    model: str
    prior_prob: Probability
    prior_info: Bits
    evidence_info: Bits
    likelihood_info: Bits
    tic: Bits | None
    sign_class: SignClass | None
    posterior_info: Bits
    posterior_prob: float


# What every observation reuses of the prior, worked out once per command:
# the model space, the prior's values over one common denominator, and
# their infos.
_PriorTerms = tuple[ModelSpace, tuple[list[int], int], tuple[Bits, ...]]


def _prior_terms(ms: ModelSpace) -> _PriorTerms:
    probs = ms.prior.probs
    return ms, _over_lcm([p.as_integer_ratio() for p in probs]), tuple([_info(p) for p in probs])


class Marginal(NamedTuple):
    """One observation applied to every model: its likelihood row marginalised against the prior.

    The one per-observation record. KL, both MI paths and ``verify`` read
    its fields; ``solve`` prints its report columns, which are computed
    on each access, whole (``columns``) or a row per model (``entries``).
    ``P(x)`` is held as a float (``evidence_float``) and in bits, and
    ``evidence`` is it as shown. Per-model lists line up with ``models``.
    ``tics`` and ``posterior_infos`` cover models with prior 0 too
    (``posterior_info`` is then ``+inf``); their ``signs`` entry is None.
    Bayes' rule in probability space gives posterior ``j`` as
    ``posterior_nums[j] / posterior_den``, unreduced integers, with
    ``posterior_floats`` their correctly rounded floats. ``scaled_row``
    holds the likelihood row's numerators over one denominator, ``cells``
    the row as indices into ``values``, and ``prior`` the prior's columns,
    shared by every observation of a command.
    """

    observation: str
    evidence_float: float
    evidence_info: Bits
    tics: list[Bits]
    posterior_nums: list[int]
    posterior_den: int
    posterior_floats: list[float]
    likelihood_infos: list[Bits]
    scaled_row: tuple[list[int], int]
    cells: tuple[int, ...]
    values: tuple[Probability, ...]
    prior: _PriorTerms

    @property
    def models(self) -> tuple[str, ...]:
        return self.prior[0].labels

    @property
    def prior_infos(self) -> tuple[Bits, ...]:
        return self.prior[2]

    @property
    def evidence(self) -> Probability:
        """``P(x)``: a Fraction, or its float when the prior or the row holds a float."""
        if _holds_float(self.prior[0].prior.probs, map(self.values.__getitem__, self.cells)):
            return self.evidence_float
        return Fraction(self.posterior_den, self.prior[1][1] * self.scaled_row[1])

    @property
    def posteriors(self) -> tuple[Probability, ...]:
        """``P(theta | x)`` per model: Fractions, or their floats as ``evidence`` is a float."""
        if _holds_float(self.prior[0].prior.probs, map(self.values.__getitem__, self.cells)):
            return tuple(self.posterior_floats)
        return tuple([Fraction(num, self.posterior_den) for num in self.posterior_nums])

    @property
    def posterior_infos(self) -> list[Bits]:
        """Each model's posterior information content, ``prior_info - tic``."""
        return list(map(operator.sub, self.prior[2], self.tics))

    @property
    def signs(self) -> list[SignClass | None]:
        """Each model's sign class, None where the prior is 0.

        ``P(x | theta)`` is compared with ``P(x)`` exactly.
        """
        prior_infos = self.prior[2]
        row_nums, prior_den = self.scaled_row[0], self.prior[1][1]
        total = self.posterior_den
        # (P(x | theta) - P(x)) * prior_den * row_den: its sign, without rounding
        excess = [lik * prior_den - total for lik in row_nums]
        informs, neutral, misleads = SignClass.INFORMS, SignClass.NEUTRAL, SignClass.MISLEADS
        return [None if prior_i == math.inf
                else informs if e > 0 else misleads if e < 0 else neutral
                for prior_i, e in zip(prior_infos, excess)]

    @property
    def columns(self) -> tuple[Sequence, ...]:
        """The transfer report a column at a time, in :class:`ModelTransfer` field order.

        Each column lines up with ``models``; the TIC is None where the
        sign is, at prior 0.
        """
        ms, _, prior_infos = self.prior
        signs, post_infos = self.signs, self.posterior_infos
        return (
            ms.labels,
            ms.prior.probs,
            prior_infos,
            [self.evidence_info for _ in signs],
            self.likelihood_infos,
            [None if sign is None else t for sign, t in zip(signs, self.tics)],
            signs,
            post_infos,
            list(map(prob_from_info, post_infos)),
        )

    @property
    def entries(self) -> tuple[ModelTransfer, ...]:
        """The transfer report: one :class:`ModelTransfer` row per model, in model order."""
        return tuple(map(ModelTransfer._make, zip(*self.columns)))

    def entry_for(self, theta: str) -> ModelTransfer:
        """The transfer report's entry of model ``theta``."""
        if theta not in self.models:
            raise UnknownLabelError(f"no entry for model {theta!r}")
        return self.entries[self.models.index(theta)]

    def log_odds_updates(self) -> list[Bits | None]:
        """Each model's log-odds update ``log2(P(theta | x) / P(theta))``, None where the prior is 0.

        The ratio equals ``P(x | theta) / P(x)``: the model's numerator in
        the scaled row times the prior's denominator, over the joints'
        total, with no Fraction division and no pair read.
        """
        _, scaled_prior, prior_infos = self.prior
        scale, total = scaled_prior[1], self.posterior_den
        return [None if prior_i == math.inf  # prior 0
                else -math.inf if lik == 0
                else _log2_quotient(lik * scale, total)
                for lik, prior_i in zip(self.scaled_row[0], prior_infos)]


def _marginal(pt: _PriorTerms, om: ObservationModel, i: int, infos, pairs) -> Marginal | None:
    """Marginalise observation ``i`` of ``om``; None when its evidence is 0.

    ``infos[k]`` and ``pairs[k]`` are the ``_info`` and the integer pair of
    ``om.values[k]``, so a value held by many cells takes one log and one pair read.
    """
    cells = om.cells[i]
    lik_infos = list(map(infos.__getitem__, cells))
    scaled_row = _over_lcm(list(map(pairs.__getitem__, cells)))
    num, den, joints, post_floats = _joint_row(pt[1], scaled_row)
    if not joints:
        return None
    # P(x) from its unreduced parts: int true division rounds correctly. A float
    # prior within FLOAT_SUM_TOL of 1 can make it exceed 1: certain, so 0 bits.
    lg = 0.0 if num >= den else _log2_quotient(num, den)
    ev_info = -lg if lg else 0.0
    tics = [ev_info - lik_i for lik_i in lik_infos]
    return Marginal(om.observation_labels[i], num / den, ev_info, tics, joints, num, post_floats,
                    lik_infos, scaled_row, cells, om.values, pt)


def transfer_report(ms: ModelSpace, om: ObservationModel, x: str) -> Marginal:
    """Apply observation ``x`` to every model at once: its :class:`Marginal`.

    The per-label functions (:func:`tic`, :func:`posterior_info`, ...)
    read their values from this record, and its ``entries`` are the
    transfer report, one row per model. Raises
    ``ImpossibleObservationError`` when ``P(x)`` is 0.
    """
    _check_pairing(ms, om)
    values = om.values
    infos, pairs = [_info(p) for p in values], [p.as_integer_ratio() for p in values]
    m = _marginal(_prior_terms(ms), om, om._x_index(x), infos, pairs)
    if m is None:
        raise ImpossibleObservationError(
            f"observation {x!r} has zero evidence; cannot condition on it"
        )
    return m


def marginals(ms: ModelSpace, om: ObservationModel) -> Iterator[Marginal | None]:
    """Each observation's :class:`Marginal`, in observation order, one at a time.

    An observation with zero evidence cannot be conditioned on; its entry
    is None. The prior's terms are worked out once, and each distinct
    likelihood value takes one log and one integer pair read.
    """
    _check_pairing(ms, om)
    pt, values = _prior_terms(ms), om.values
    infos, pairs = [_info(p) for p in values], [p.as_integer_ratio() for p in values]
    return (_marginal(pt, om, i, infos, pairs) for i in range(len(om.cells)))


def local_transfer_entropy(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Bits:
    """Log-odds update ``log2(P(theta|x) / P(theta))`` of a single model.

    Computed from the probability-space posterior, so it is an
    independent route to the same number as :func:`tic`. Undefined for a
    model with zero prior. One entry of :meth:`Marginal.log_odds_updates`.
    """
    bits = transfer_report(ms, om, x).log_odds_updates()[om._theta_index(theta)]
    if bits is None:
        raise UndefinedLogError(f"log-odds update of {theta!r} undefined: prior probability is 0")
    return bits
