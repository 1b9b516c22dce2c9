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
as ``posterior_info = prior_info - tic``. One observation's work comes in
two parts: its :class:`Marginal` (the evidence, the TICs and the posteriors
of Bayes' rule in probability space), all that KL, MI and ``verify``
read, and the report columns that :meth:`Marginal.report` adds to make
its :class:`ObservationUpdate`. The exact-rational oracle in
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
    _common_denominator,
    _info,
    _log2_positive,
    _log2_quotient,
    _over_lcm,
    _sum_in_order,
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
    "classify_tic",
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
    prior: tuple[Probability, ...],
    scaled_prior: tuple[Sequence[int], int] | None,
    row: tuple[Probability, ...],
    scaled_row: tuple[list[int], int] | None,
) -> tuple[Probability, int, list, int, list[float]]:
    """Marginalise one likelihood row: ``P(x)`` and each ``P(theta | x)``.

    The one place a likelihood row is marginalised against the prior.
    ``scaled_prior`` and ``scaled_row`` are the values over one common
    denominator, each None unless all are Fractions. With both, the joints
    are integers; otherwise they are worked in the values' own arithmetic,
    over 1. Returns ``P(x)`` as a numerator over a denominator, and the
    posteriors, the joints over ``P(x)``'s numerator, as numerators over
    one denominator and as floats; these are empty when ``P(x)`` is 0.
    """
    if scaled_prior is None or scaled_row is None:
        joints = [lik * p for lik, p in zip(row, prior)]
        ev = _sum_in_order(joints)
        posteriors = [] if ev == 0 else [joint / ev for joint in joints]
        return ev, 1, posteriors, 1, posteriors
    prior_nums, prior_den = scaled_prior
    row_nums, row_den = scaled_row
    joints = list(map(operator.mul, row_nums, prior_nums))
    total = sum(joints)
    if total == 0:
        joints = []
    return total, prior_den * row_den, joints, total, [joint / total for joint in joints]


def evidence(ms: ModelSpace, om: ObservationModel, x: str) -> Probability:
    """Marginal probability of observation ``x`` under the prior mixture.

    Always computed by marginalizing the likelihood against the prior;
    exact when both are rational. Never supplied externally, so the
    evidence can never disagree with the prior and likelihood.
    """
    _check_pairing(ms, om)
    probs, row = ms.prior.probs, om.likelihood[om._x_index(x)]
    num, den, *_ = _joint_row(probs, _common_denominator(probs), row, _common_denominator(row))
    return Fraction(num, den) if isinstance(num, int) else num


def tic(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Bits:
    """Transfer information content from observation ``x`` to model ``theta``.

    ``info_content(P(x)) - info_content(P(x | theta))`` in bits. Negative
    values mean the observation misleads about the model; ``-inf`` means
    the model is refuted outright (likelihood 0 for an observation that
    happened).
    """
    return update(ms, om, x).tics[om._theta_index(theta)]


def classify_tic(t: Bits) -> SignClass:
    """Sign classification of a TIC value with a neutral band around zero."""
    # Band around zero inside which a TIC counts as neutral; float-form
    # scenarios cannot hit 0 exactly. Exact rows need no band: their sign
    # comes from comparing P(x | theta) with P(x) exactly.
    TIC_NEUTRAL_TOL = 1e-12
    if math.isnan(t):
        raise InvariantViolation("TIC value must not be NaN")
    if t > TIC_NEUTRAL_TOL:
        return SignClass.INFORMS
    if t < -TIC_NEUTRAL_TOL:
        return SignClass.MISLEADS
    return SignClass.NEUTRAL


def posterior_info(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Bits:
    """Posterior information content of ``theta`` after seeing ``x``.

    ``prior_info - tic``, the information-space form of the Bayes update.
    ``+inf`` means the posterior probability is 0.
    """
    return update(ms, om, x).posterior_infos[om._theta_index(theta)]


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


class ObservationUpdate(NamedTuple):
    """One observation applied to every model in a single pass.

    The evidence ``P(x)`` is marginalised once and shared by every
    model's TIC and posterior. Per-model tuples line up with ``models``.
    ``tics`` and ``posterior_infos`` cover models with prior 0 too
    (``posterior_info`` is then ``+inf``); their ``signs`` entry is None.
    Bayes' rule in probability space gives posterior ``j`` as
    ``posterior_nums[j] / posterior_den``: unreduced integers on exact
    rows, the float over 1 on float rows. ``posterior_floats`` holds their
    correctly rounded floats; ``posteriors`` builds the values, exact on
    exact rows, on each access. ``scaled_prior`` and ``scaled_row`` are the
    prior's and the likelihood row's numerators, each over one
    denominator, None unless the row is exact. ``entries`` lays the same
    values out as a transfer report, one :class:`ModelTransfer` row per
    model.
    """

    observation: str
    models: tuple[str, ...]
    priors: tuple[Probability, ...]
    prior_infos: tuple[Bits, ...]
    evidence: Probability
    evidence_info: Bits
    likelihood_infos: tuple[Bits, ...]
    tics: tuple[Bits, ...]
    signs: tuple[SignClass | None, ...]
    posterior_nums: tuple[int, ...] | tuple[float, ...]
    posterior_den: int
    posterior_floats: tuple[float, ...]
    posterior_infos: tuple[Bits, ...]
    scaled_prior: tuple[tuple[int, ...], int] | None
    scaled_row: tuple[tuple[int, ...], int] | None

    @property
    def posteriors(self) -> tuple[Probability, ...]:
        """``P(theta | x)`` per model: Fractions on exact rows, floats otherwise."""
        if not isinstance(self.evidence, Fraction):
            return self.posterior_floats
        return tuple([Fraction(num, self.posterior_den) for num in self.posterior_nums])

    @property
    def entries(self) -> tuple[ModelTransfer, ...]:
        """One row per model, in model order, built on each access."""
        return tuple([self._entry(j) for j in range(len(self.models))])

    def entry_for(self, theta: str) -> ModelTransfer:
        """The transfer report's entry of model ``theta``."""
        if theta not in self.models:
            raise UnknownLabelError(f"no entry for model {theta!r}")
        return self._entry(self.models.index(theta))

    def _entry(self, j: int) -> ModelTransfer:
        post_i = self.posterior_infos[j]
        return ModelTransfer(
            model=self.models[j],
            prior_prob=self.priors[j],
            prior_info=self.prior_infos[j],
            evidence_info=self.evidence_info,
            likelihood_info=self.likelihood_infos[j],
            tic=None if self.signs[j] is None else self.tics[j],  # None: prior 0
            sign_class=self.signs[j],
            posterior_info=post_i,
            posterior_prob=prob_from_info(post_i),
        )

    def local_transfer_entropy(self, j: int) -> Bits:
        """Log-odds update ``log2(P(theta|x) / P(theta))`` of model ``j``.

        Computed from the probability-space posterior, so it is an
        independent route to the same number as the TIC. Undefined for a
        model with zero prior. One entry of :meth:`log_odds_updates`.
        """
        bits = self.log_odds_updates()[j]
        if bits is None:
            raise UndefinedLogError(
                f"log-odds update of {self.models[j]!r} undefined: prior probability is 0"
            )
        return bits

    def log_odds_updates(self) -> list[Bits | None]:
        """:meth:`local_transfer_entropy` of every model, None where the prior is 0."""
        return _log_odds_updates(self)


def _log_odds_updates(u: ObservationUpdate | Marginal) -> list[Bits | None]:
    """Each model's log-odds update ``log2(P(theta | x) / P(theta))``, None where the prior is 0.

    On exact rows the ratio equals ``P(x | theta) / P(x)``: the model's
    numerator in the scaled row times the prior's denominator, over the
    joints' total, with no Fraction division and no pair read. Its float
    depends on the rational alone, so each distinct numerator in the row
    takes one log.
    """
    if u.scaled_row is None:
        return [None if prior_i == math.inf else -math.inf if num == 0 else _log2_positive(num / p)
                for num, p, prior_i in zip(u.posterior_nums, u.priors, u.prior_infos)]
    scale, total = u.scaled_prior[1], u.posterior_den
    logs: dict[int, Bits] = {}  # a row numerator -> its log-odds update
    row: list[Bits | None] = []
    for lik, prior_i in zip(u.scaled_row[0], u.prior_infos):
        if prior_i == math.inf:  # prior 0
            row.append(None)
        elif lik == 0:
            row.append(-math.inf)
        else:
            bits = logs.get(lik)
            if bits is None:
                logs[lik] = bits = _log2_quotient(lik * scale, total)
            row.append(bits)
    return row


# What every observation reuses of the prior, worked out once per command:
# the model space, the prior's values over one common denominator (None
# unless all are Fractions), and their infos.
_PriorTerms = tuple[ModelSpace, tuple[tuple[int, ...], int] | None, tuple[Bits, ...]]


def _prior_terms(ms: ModelSpace) -> _PriorTerms:
    probs = ms.prior.probs
    scaled = _common_denominator(probs)
    scaled = scaled and (tuple(scaled[0]), scaled[1])  # tuples keep an update hashable
    return ms, scaled, tuple([_info(p) for p in probs])


class Marginal(NamedTuple):
    """One observation's likelihood row marginalised against the prior.

    All that KL, both MI paths and ``verify`` read: ``P(x)`` as a float
    (``evidence``) and in bits, and each model's TIC and posterior as
    :class:`ObservationUpdate` holds them. :meth:`report` adds the report
    columns from ``likelihood_infos`` and, on exact rows, ``scaled_row``,
    the row's numerators over one denominator. The prior's columns are
    read from ``prior``, shared by every observation of a command.
    """

    observation: str
    evidence: float
    evidence_info: Bits
    tics: list[Bits]
    posterior_nums: list[int] | list[float]
    posterior_den: int
    posterior_floats: list[float]
    likelihood_infos: list[Bits]
    scaled_row: tuple[list[int], int] | None
    prior: _PriorTerms

    @property
    def priors(self) -> tuple[Probability, ...]:
        return self.prior[0].prior.probs

    @property
    def scaled_prior(self) -> tuple[tuple[int, ...], int] | None:
        return self.prior[1]

    @property
    def prior_infos(self) -> tuple[Bits, ...]:
        return self.prior[2]

    @property
    def posterior_infos(self) -> list[Bits]:
        """Each model's posterior information content, ``prior_info - tic``."""
        return list(map(operator.sub, self.prior[2], self.tics))

    def log_odds_updates(self) -> list[Bits | None]:
        """The update's :meth:`ObservationUpdate.log_odds_updates`, with no report built."""
        return _log_odds_updates(self)

    def report(self) -> ObservationUpdate:
        """The observation's full update: sign classes, posterior bits and exact evidence added."""
        ms, scaled_prior, prior_infos = self.prior
        tics = self.tics
        if self.scaled_row is None:
            ev = self.evidence
            signs = [None if prior_i == math.inf else classify_tic(t)  # inf: prior 0
                     for prior_i, t in zip(prior_infos, tics)]
        else:
            (row_nums, row_den), prior_den = self.scaled_row, scaled_prior[1]
            total = self.posterior_den
            ev = Fraction(total, prior_den * row_den)
            # (P(x | theta) - P(x)) * prior_den * row_den: its sign, without rounding
            excess = [lik * prior_den - total for lik in row_nums]
            informs, neutral, misleads = SignClass.INFORMS, SignClass.NEUTRAL, SignClass.MISLEADS
            signs = [None if prior_i == math.inf
                     else informs if e > 0 else misleads if e < 0 else neutral
                     for prior_i, e in zip(prior_infos, excess)]
        return ObservationUpdate(
            observation=self.observation,
            models=ms.labels,
            priors=ms.prior.probs,
            prior_infos=prior_infos,
            evidence=ev,
            evidence_info=self.evidence_info,
            likelihood_infos=tuple(self.likelihood_infos),
            tics=tuple(tics),
            signs=tuple(signs),
            posterior_nums=tuple(self.posterior_nums),
            posterior_den=self.posterior_den,
            posterior_floats=tuple(self.posterior_floats),
            posterior_infos=tuple(self.posterior_infos),
            scaled_prior=scaled_prior,
            scaled_row=self.scaled_row and (tuple(self.scaled_row[0]), self.scaled_row[1]),
        )


def _marginal(
    pt: _PriorTerms, x: str, row: tuple[Probability, ...], cache: dict[int, tuple]
) -> Marginal | None:
    """Marginalise observation ``x``; None when its evidence is 0.

    ``cache`` maps the ``id`` of each likelihood value object seen so far
    to its ``_info`` and its integer pair (None for a float), so a value
    object shared by many cells and rows takes one log and one pair read
    per command; the caller keeps the objects alive while it is in use.
    """
    cells = list(map(cache.get, map(id, row)))
    if None in cells:  # value objects this command has not seen yet
        for j, lik in enumerate(row):
            if cells[j] is None:
                cell = cache.get(id(lik))
                if cell is None:
                    pair = lik.as_integer_ratio() if isinstance(lik, Fraction) else None
                    cache[id(lik)] = cell = (_info(lik), pair)
                cells[j] = cell
    # two passes, not zip(*cells), which makes one iterator object per cell
    lik_infos, pairs = [info for info, _ in cells], [pair for _, pair in cells]
    ms, scaled_prior, _ = pt
    scaled_row = None if scaled_prior is None or None in pairs else _over_lcm(pairs)
    num, den, post_nums, post_den, post_floats = _joint_row(
        ms.prior.probs, scaled_prior, row, scaled_row
    )
    if not post_nums:
        return None
    # P(x) from its unreduced parts: int true division rounds correctly.
    # A float evidence can round a step above 1 (a prior summing to
    # 1 + 2**-52, within FLOAT_SUM_TOL); it is certain, so 0 bits.
    lg = 0.0 if num >= den else _log2_quotient(num, den)
    ev_info = -lg if lg else 0.0
    tics = [ev_info - lik_i for lik_i in lik_infos]
    return Marginal(x, num / den, ev_info, tics, post_nums, post_den, post_floats, lik_infos,
                    scaled_row, pt)


def update_from(m: Marginal | None, x: str) -> ObservationUpdate:
    """The update of ``x`` from its marginal ``m``, which is None when ``P(x)`` is 0."""
    if m is None:
        raise ImpossibleObservationError(
            f"observation {x!r} has zero evidence; cannot condition on it"
        )
    return m.report()


def update(ms: ModelSpace, om: ObservationModel, x: str) -> ObservationUpdate:
    """Apply observation ``x`` to every model at once.

    The per-label functions (:func:`tic`, :func:`posterior_info`, ...)
    read their values from this update; :func:`transfer_report` returns it.
    """
    _check_pairing(ms, om)
    return update_from(_marginal(_prior_terms(ms), x, om.likelihood[om._x_index(x)], {}), x)


def marginals(ms: ModelSpace, om: ObservationModel) -> Iterator[Marginal | None]:
    """Each observation's :class:`Marginal`, in observation order, one at a time.

    An observation with zero evidence cannot be conditioned on; its entry
    is None. The prior's terms are worked out once, and each likelihood
    value object takes one log and one integer pair read.
    """
    _check_pairing(ms, om)
    pt, cache = _prior_terms(ms), {}
    return (_marginal(pt, x, row, cache) for x, row in zip(om.observation_labels, om.likelihood))


def updates(ms: ModelSpace, om: ObservationModel) -> tuple[ObservationUpdate | None, ...]:
    """The update of every observation, in observation order; None where the evidence is 0.

    :func:`marginals` with the report columns of each.
    """
    return tuple([None if m is None else m.report() for m in marginals(ms, om)])


def transfer_report(ms: ModelSpace, om: ObservationModel, x: str) -> ObservationUpdate:
    """Full information-transfer decomposition of observation ``x``: its update.

    The update's ``entries`` hold one row per model: both surprisal
    sources, the TIC, its sign class, and the posterior computed via the
    information-space route.
    """
    return update(ms, om, x)


def local_transfer_entropy(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Bits:
    """Log-odds update ``log2(P(theta|x) / P(theta))`` of a single model.

    Computed from the probability-space posterior, so it is an
    independent route to the same number as :func:`tic`. Undefined for a
    model with zero prior.
    """
    return update(ms, om, x).local_transfer_entropy(om._theta_index(theta))
