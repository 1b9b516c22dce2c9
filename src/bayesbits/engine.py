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
as ``posterior_info = prior_info - tic``. The probability-space Bayes
rule is kept alongside as :func:`posterior_prob_oracle` so the two
routes can always be checked against each other.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .core import (
    Bits,
    Distribution,
    Probability,
    _common_denominator,
    _info,
    _log2_positive,
    _sum_unless_one,
    as_probability,
    info_content,
    prob_from_info,
)
from .errors import (
    ImpossibleObservationError,
    InvariantViolation,
    UndefinedLogError,
    UnknownLabelError,
    ZeroLikelihoodRatioError,
)
from .record import Record

__all__ = [
    "BayesFactor",
    "ModelSpace",
    "ModelTransfer",
    "ObservationModel",
    "SignClass",
    "bayes_factor",
    "classify_tic",
    "evidence",
    "local_transfer_entropy",
    "log2_bayes_factor",
    "posterior_info",
    "posterior_prob_info_form",
    "posterior_prob_oracle",
    "tic",
    "transfer_report",
]

class ModelSpace(Record):
    """The hypothesis space: a prior distribution over model labels."""

    __slots__ = _fields = ("prior",)
    prior: Distribution

    def __init__(self, prior: Distribution) -> None:
        self._set(prior=prior)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.prior.labels

    def prior_of(self, theta: str) -> Probability:
        return self.prior.prob_of(theta)


class ObservationModel(Record):
    """Likelihood matrix P(x | theta), rows = observations, columns = models.

    Every column is itself a distribution over the observation space: for
    each model the likelihoods must sum to 1 (exactly when the column is
    all rationals, within the float tolerance otherwise).
    """

    __slots__ = _fields = ("observation_labels", "model_labels", "likelihood")
    observation_labels: tuple[str, ...]
    model_labels: tuple[str, ...]
    likelihood: tuple[tuple[Probability, ...], ...]

    def __init__(
        self,
        observation_labels: Sequence[str],
        model_labels: Sequence[str],
        likelihood: Iterable[Iterable[Probability | int | str]],
    ) -> None:
        self._set(
            observation_labels=tuple(observation_labels),
            model_labels=tuple(model_labels),
            likelihood=tuple([tuple([as_probability(p) for p in row]) for row in likelihood]),
        )
        self._check()

    def _check(self) -> None:
        if not self.observation_labels or not self.model_labels:
            raise InvariantViolation("observation model needs >= 1 observation and >= 1 model")
        if len(set(self.observation_labels)) != len(self.observation_labels):
            raise InvariantViolation(f"duplicate observation labels in {self.observation_labels}")
        if len(set(self.model_labels)) != len(self.model_labels):
            raise InvariantViolation(f"duplicate model labels in {self.model_labels}")
        if len(self.likelihood) != len(self.observation_labels):
            raise InvariantViolation(
                f"{len(self.likelihood)} likelihood rows for "
                f"{len(self.observation_labels)} observations"
            )
        for x, row in zip(self.observation_labels, self.likelihood):
            if len(row) != len(self.model_labels):
                raise InvariantViolation(
                    f"likelihood row {x!r} has {len(row)} entries for "
                    f"{len(self.model_labels)} models"
                )
        for j, theta in enumerate(self.model_labels):
            total = _sum_unless_one([row[j] for row in self.likelihood])
            if total is not None:
                raise InvariantViolation(
                    f"likelihood column for model {theta!r} sums to {total}, expected 1"
                )

    @property
    def is_exact(self) -> bool:
        return all(isinstance(p, Fraction) for row in self.likelihood for p in row)

    def _x_index(self, x: str) -> int:
        try:
            return self.observation_labels.index(x)
        except ValueError:
            raise UnknownLabelError(
                f"unknown observation {x!r}; have {list(self.observation_labels)}"
            ) from None

    def _theta_index(self, theta: str) -> int:
        try:
            return self.model_labels.index(theta)
        except ValueError:
            raise UnknownLabelError(
                f"unknown model {theta!r}; have {list(self.model_labels)}"
            ) from None

    def likelihood_of(self, x: str, theta: str) -> Probability:
        return self.likelihood[self._x_index(x)][self._theta_index(theta)]


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
    scaled_prior: tuple[list[int], int] | None,
    row: tuple[Probability, ...],
) -> tuple[Probability, list[Probability], list[int] | None]:
    """Marginalise one likelihood row: ``P(x)``, each ``P(theta | x)``, exact signs.

    The one place a likelihood row is marginalised against the prior.
    ``scaled_prior`` is ``_common_denominator(prior)``, worked out once
    per command. The posteriors are empty when ``P(x)`` is 0.

    When the prior and the row are all Fractions, the joints are integer
    numerators over one common denominator: ``P(x)`` is their sum as one
    Fraction, each posterior is one Fraction of joint over sum, and the
    third value holds, per model, an integer with the sign of
    ``P(x | theta) - P(x)``. Otherwise the row is worked in the values'
    own arithmetic and the third value is None.
    """
    scaled_row = None if scaled_prior is None else _common_denominator(row)
    if scaled_prior is None or scaled_row is None:
        joints = [lik * p for lik, p in zip(row, prior)]
        ev = sum(joints)
        return ev, ([] if ev == 0 else [joint / ev for joint in joints]), None
    prior_nums, prior_den = scaled_prior
    row_nums, row_den = scaled_row
    joints = [lik * p for lik, p in zip(row_nums, prior_nums)]
    total = sum(joints)
    ev = Fraction(total, prior_den * row_den)
    if total == 0:
        return ev, [], None
    # (P(x | theta) - P(x)) * prior_den * row_den
    excess = [lik * prior_den - total for lik in row_nums]
    return ev, [Fraction(joint, total) for joint in joints], excess


def evidence(ms: ModelSpace, om: ObservationModel, x: str) -> Probability:
    """Marginal probability of observation ``x`` under the prior mixture.

    Always computed by marginalizing the likelihood against the prior;
    exact when both are rational. Never supplied externally, so the
    evidence can never disagree with the prior and likelihood.
    """
    _check_pairing(ms, om)
    probs = ms.prior.probs
    return _joint_row(probs, _common_denominator(probs), om.likelihood[om._x_index(x)])[0]


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


def posterior_prob_oracle(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Probability:
    """Posterior probability straight from Bayes' rule in probability space.

    Exact when the inputs are rational. This is the in-engine check the
    information-space route is validated against.
    """
    return update(ms, om, x).posteriors[om._theta_index(theta)]


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
    ``posteriors`` come from Bayes' rule in probability space, exact
    when the inputs are rational. ``entries`` lays the same values out
    as a transfer report, one :class:`ModelTransfer` row per model.
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
    posteriors: tuple[Probability, ...]
    posterior_infos: tuple[Bits, ...]

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
        prior_p, post_i = self.priors[j], self.posterior_infos[j]
        return ModelTransfer(
            model=self.models[j],
            prior_prob=prior_p,
            prior_info=self.prior_infos[j],
            evidence_info=self.evidence_info,
            likelihood_info=self.likelihood_infos[j],
            tic=None if prior_p == 0 else self.tics[j],
            sign_class=self.signs[j],
            posterior_info=post_i,
            posterior_prob=prob_from_info(post_i),
        )

    def local_transfer_entropy(self, j: int) -> Bits:
        """Log-odds update ``log2(P(theta|x) / P(theta))`` of model ``j``.

        Computed from the probability-space posterior, so it is an
        independent route to the same number as the TIC. Undefined for a
        model with zero prior.
        """
        prior_p = self.priors[j]
        if prior_p == 0:
            raise UndefinedLogError(
                f"log-odds update of {self.models[j]!r} undefined: prior probability is 0"
            )
        post = self.posteriors[j]
        if post == 0:
            return -math.inf
        if not (isinstance(post, Fraction) and isinstance(prior_p, Fraction)):
            return _log2_positive(post / prior_p)
        # The ratio's integer parts, unreduced: int true division rounds
        # correctly, so its float is that of the reduced ratio.
        num = post.numerator * prior_p.denominator
        den = post.denominator * prior_p.numerator
        try:
            x = num / den
        except OverflowError:
            x = 0.0
        if x == 0.0 or x == 1.0:
            # these paths of _log2_positive read the representation itself
            return _log2_positive(Fraction(num, den))
        return math.log2(x)


# What every observation's update reuses of the prior: its values over a
# common denominator (None unless all are Fractions), and their infos.
_PriorTerms = tuple[tuple[list[int], int] | None, tuple[Bits, ...]]


def _prior_terms(ms: ModelSpace) -> _PriorTerms:
    probs = ms.prior.probs
    return _common_denominator(probs), tuple([_info(p) for p in probs])


def _exact_sign(excess: int) -> SignClass:
    """Sign class from the sign of ``P(x | theta) - P(x)``, decided without rounding."""
    if excess > 0:
        return SignClass.INFORMS
    if excess < 0:
        return SignClass.MISLEADS
    return SignClass.NEUTRAL


def _apply(
    ms: ModelSpace, x: str, row: tuple[Probability, ...], prior_terms: _PriorTerms
) -> ObservationUpdate | None:
    """Update every model on observation ``x``; None when its evidence is 0.

    Exact rows take their sign classes from the exact comparison of each
    likelihood with the evidence; float rows classify the TIC with
    :func:`classify_tic`.
    """
    scaled_prior, prior_infos = prior_terms
    ev, posteriors, excess = _joint_row(ms.prior.probs, scaled_prior, row)
    if ev == 0:
        return None
    # A float evidence can round a step above 1 (a prior summing to
    # 1 + 2**-52, within FLOAT_SUM_TOL); it is certain, so 0 bits.
    ev_info = 0.0 if ev > 1 else info_content(ev)
    # One pass into plain lists: building these tuples from generators left
    # about 0.6 MiB more resident over a few hundred calls (CPython 3.11).
    lik_infos, tics, signs, posterior_infos = [], [], [], []
    for j, (lik, prior_p, prior_i) in enumerate(zip(row, ms.prior.probs, prior_infos)):
        lik_i = _info(lik)
        t = ev_info - lik_i
        lik_infos.append(lik_i)
        tics.append(t)
        if prior_p == 0:
            signs.append(None)
        elif excess is None:
            signs.append(classify_tic(t))
        else:
            signs.append(_exact_sign(excess[j]))
        posterior_infos.append(prior_i - t)
    return ObservationUpdate(
        observation=x,
        models=ms.labels,
        priors=ms.prior.probs,
        prior_infos=prior_infos,
        evidence=ev,
        evidence_info=ev_info,
        likelihood_infos=tuple(lik_infos),
        tics=tuple(tics),
        signs=tuple(signs),
        posteriors=tuple(posteriors),
        posterior_infos=tuple(posterior_infos),
    )


def _require_possible(u: ObservationUpdate | None, x: str) -> ObservationUpdate:
    if u is None:
        raise ImpossibleObservationError(
            f"observation {x!r} has zero evidence; cannot condition on it"
        )
    return u


def update(ms: ModelSpace, om: ObservationModel, x: str) -> ObservationUpdate:
    """Apply observation ``x`` to every model at once.

    The per-label functions (:func:`tic`, :func:`posterior_prob_oracle`,
    ...) read their values from this update; :func:`transfer_report`
    returns it.
    """
    _check_pairing(ms, om)
    row = om.likelihood[om._x_index(x)]
    return _require_possible(_apply(ms, x, row, _prior_terms(ms)), x)


def updates(ms: ModelSpace, om: ObservationModel) -> tuple[ObservationUpdate | None, ...]:
    """The update of every observation, in observation order.

    An observation with zero evidence cannot be conditioned on; its
    entry is None. A command that needs several quantities of the same
    scenario computes these once and shares them.
    """
    _check_pairing(ms, om)
    prior_terms = _prior_terms(ms)
    return tuple(
        [_apply(ms, x, row, prior_terms) for x, row in zip(om.observation_labels, om.likelihood)]
    )


def select_update(
    us: tuple[ObservationUpdate | None, ...], om: ObservationModel, x: str
) -> ObservationUpdate:
    """The update of ``x`` among ``updates(ms, om)``.

    Raises like :func:`update` when ``x`` is unknown or has zero evidence.
    """
    return _require_possible(us[om._x_index(x)], x)


def transfer_report(ms: ModelSpace, om: ObservationModel, x: str) -> ObservationUpdate:
    """Full information-transfer decomposition of observation ``x``: its update.

    The update's ``entries`` hold one row per model: both surprisal
    sources, the TIC, its sign class, and the posterior computed via the
    information-space route.
    """
    return update(ms, om, x)


class BayesFactor(NamedTuple):
    """Likelihood ratio of two models for one observation, plus its log."""

    ratio: Probability
    log2: Bits


def log2_bayes_factor(om: ObservationModel, x: str, theta1: str, theta2: str) -> Bits:
    """log2 of the Bayes factor K = P(x|theta1) / P(x|theta2).

    Returns ``+inf`` when only the denominator likelihood is 0 and
    ``-inf`` when only the numerator is; rejects 0/0. Equals the TIC
    difference ``tic(x -> theta1) - tic(x -> theta2)``.
    """
    lik1 = om.likelihood_of(x, theta1)
    lik2 = om.likelihood_of(x, theta2)
    if lik1 == 0 and lik2 == 0:
        raise ZeroLikelihoodRatioError(
            f"Bayes factor for {x!r} is 0/0: both {theta1!r} and {theta2!r} are refuted"
        )
    return info_content(lik2) - info_content(lik1)


def bayes_factor(om: ObservationModel, x: str, theta1: str, theta2: str) -> BayesFactor:
    """Bayes factor of ``theta1`` over ``theta2`` on observation ``x``.

    The ratio form requires a nonzero denominator likelihood; use
    :func:`log2_bayes_factor` when an infinite log form is acceptable.
    """
    lik1 = om.likelihood_of(x, theta1)
    lik2 = om.likelihood_of(x, theta2)
    if lik2 == 0:
        raise ZeroLikelihoodRatioError(
            f"Bayes factor ratio for {x!r} undefined: P(x|{theta2!r}) = 0"
        )
    return BayesFactor(ratio=lik1 / lik2, log2=log2_bayes_factor(om, x, theta1, theta2))


def local_transfer_entropy(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Bits:
    """Log-odds update ``log2(P(theta|x) / P(theta))`` of a single model.

    Computed from the probability-space posterior, so it is an
    independent route to the same number as :func:`tic`. Undefined for a
    model with zero prior.
    """
    return update(ms, om, x).local_transfer_entropy(om._theta_index(theta))
