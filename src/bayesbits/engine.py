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
as ``posterior_info = prior_info - tic``. Each update also carries the
probability-space Bayes rule's posteriors; the independent check of both
routes is the exact-rational oracle in :mod:`bayesbits.oracle`. The input
types, ``ModelSpace`` and ``ObservationModel``, live in :mod:`bayesbits.scenario`.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple

from .core import (
    Bits,
    Probability,
    _common_denominator,
    _info,
    _log2_positive,
    _log2_quotient,
    _over_lcm,
    _sum_in_order,
    info_content,
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
    scaled_prior: tuple[list[int], int] | None,
    row: tuple[Probability, ...],
    exact_row: bool = False,
) -> tuple[Probability, list, int, list[float], list[int] | None]:
    """Marginalise one likelihood row: ``P(x)``, each ``P(theta | x)``, exact signs.

    The one place a likelihood row is marginalised against the prior.
    ``scaled_prior`` is ``_common_denominator(prior)``, worked out once
    per command, and ``exact_row`` says that the row is known to hold
    only Fractions, so its values need no type test. The posteriors, as
    numerators over one denominator and as floats, are empty when
    ``P(x)`` is 0.

    When the prior and the row are all Fractions, the joints are integer
    numerators over one common denominator: ``P(x)`` is their sum as one
    Fraction, the posteriors are the joints over that sum, and the last
    value holds, per model, an integer with the sign of
    ``P(x | theta) - P(x)``. Otherwise the row is worked in the values'
    own arithmetic, the posteriors are over 1 and the last value is None.
    """
    scaled = _over_lcm if exact_row else _common_denominator
    scaled_row = None if scaled_prior is None else scaled(row)
    if scaled_prior is None or scaled_row is None:
        joints = [lik * p for lik, p in zip(row, prior)]
        ev = _sum_in_order(joints)
        posteriors = [] if ev == 0 else [joint / ev for joint in joints]
        return ev, posteriors, 1, posteriors, None
    prior_nums, prior_den = scaled_prior
    row_nums, row_den = scaled_row
    joints = [lik * p for lik, p in zip(row_nums, prior_nums)]
    total = sum(joints)
    ev = Fraction(total, prior_den * row_den)
    if total == 0:
        return ev, [], total, [], None
    # (P(x | theta) - P(x)) * prior_den * row_den
    excess = [lik * prior_den - total for lik in row_nums]
    return ev, joints, total, [joint / total for joint in joints], excess


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
    exact rows, on each access. ``entries`` lays the same values out as a
    transfer report, one :class:`ModelTransfer` row per model.
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
        model with zero prior. :meth:`log_odds_updates` for one model.
        """
        [bits] = _log_odds(
            (self.posterior_nums[j],), self.posterior_den, (self.priors[j],), (self.signs[j],),
            isinstance(self.evidence, Fraction),
        )
        if bits is None:
            raise UndefinedLogError(
                f"log-odds update of {self.models[j]!r} undefined: prior probability is 0"
            )
        return bits

    def log_odds_updates(self) -> list[Bits | None]:
        """:meth:`local_transfer_entropy` of every model, None where the prior is 0."""
        return _log_odds(
            self.posterior_nums, self.posterior_den, self.priors, self.signs,
            isinstance(self.evidence, Fraction),
        )


def _log_odds(
    nums: Iterable[int] | Iterable[float],
    den: int,
    priors: Iterable[Probability],
    signs: Iterable[SignClass | None],
    exact: bool,
) -> list[Bits | None]:
    """``log2`` of each posterior ``nums[j] / den`` over its prior ``priors[j]``.

    None where ``signs[j]`` is None (prior 0) and -inf where the posterior
    is 0. On exact rows the ratio is taken from integer parts, with no
    Fraction division: each prior's integer pair is read once.
    """
    if not exact:
        return [None if sign is None else -math.inf if num == 0 else _log2_positive(num / p)
                for num, p, sign in zip(nums, priors, signs)]
    return [
        None if sign is None
        else -math.inf if num == 0
        else _log2_quotient(num * prior_den, den * prior_num)
        for num, (prior_num, prior_den), sign
        in zip(nums, map(Fraction.as_integer_ratio, priors), signs)
    ]


# What every observation's update reuses of the prior: its values over a
# common denominator (None unless all are Fractions), and their infos.
_PriorTerms = tuple[tuple[list[int], int] | None, tuple[Bits, ...]]


def _prior_terms(ms: ModelSpace) -> _PriorTerms:
    probs = ms.prior.probs
    return _common_denominator(probs), tuple([_info(p) for p in probs])


def _apply(
    ms: ModelSpace,
    x: str,
    row: tuple[Probability, ...],
    prior_terms: _PriorTerms,
    infos: dict[int, Bits],
    exact_row: bool = False,
) -> ObservationUpdate | None:
    """Update every model on observation ``x``; None when its evidence is 0.

    ``infos`` maps the ``id`` of each likelihood value object seen so far
    to its ``_info``, so a value object shared by many cells and rows
    takes one log per call; the caller keeps the objects alive while it
    is in use. ``exact_row`` is as in :func:`_joint_row`. Exact rows take
    their sign classes from the exact comparison of each likelihood with
    the evidence; float rows classify the TIC with :func:`classify_tic`.
    """
    scaled_prior, prior_infos = prior_terms
    ev, post_nums, post_den, post_floats, excess = _joint_row(
        ms.prior.probs, scaled_prior, row, exact_row
    )
    if not post_nums:
        return None
    # A float evidence can round a step above 1 (a prior summing to
    # 1 + 2**-52, within FLOAT_SUM_TOL); it is certain, so 0 bits.
    ev_info = 0.0 if ev > 1 else info_content(ev)
    lik_infos = []
    for lik in row:
        lik_i = infos.get(id(lik))
        if lik_i is None:
            infos[id(lik)] = lik_i = _info(lik)
        lik_infos.append(lik_i)
    # Whole columns as plain lists: building these tuples from generators
    # left about 0.6 MiB more resident over a few hundred calls (CPython 3.11).
    tics = [ev_info - lik_i for lik_i in lik_infos]
    if excess is None:
        signs = [None if prior_i == math.inf else classify_tic(t)  # inf: prior 0
                 for prior_i, t in zip(prior_infos, tics)]
    else:
        # the sign of P(x | theta) - P(x), decided without rounding
        informs, neutral, misleads = SignClass.INFORMS, SignClass.NEUTRAL, SignClass.MISLEADS
        signs = [None if prior_i == math.inf
                 else informs if e > 0 else misleads if e < 0 else neutral
                 for prior_i, e in zip(prior_infos, excess)]
    posterior_infos = list(map(operator.sub, prior_infos, tics))
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
        posterior_nums=tuple(post_nums),
        posterior_den=post_den,
        posterior_floats=tuple(post_floats),
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

    The per-label functions (:func:`tic`, :func:`posterior_info`, ...)
    read their values from this update; :func:`transfer_report` returns it.
    """
    _check_pairing(ms, om)
    row = om.likelihood[om._x_index(x)]
    return _require_possible(_apply(ms, x, row, _prior_terms(ms), {}), x)


def updates(ms: ModelSpace, om: ObservationModel) -> tuple[ObservationUpdate | None, ...]:
    """The update of every observation, in observation order.

    An observation with zero evidence cannot be conditioned on; its
    entry is None. A command that needs several quantities of the same
    scenario computes these once and shares them. Whether the whole
    matrix is exact is decided once, not per row, and each likelihood
    value object takes one log.
    """
    _check_pairing(ms, om)
    prior_terms, infos, exact = _prior_terms(ms), {}, om.is_exact
    return tuple([
        _apply(ms, x, row, prior_terms, infos, exact)
        for x, row in zip(om.observation_labels, om.likelihood)
    ])


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


def local_transfer_entropy(ms: ModelSpace, om: ObservationModel, x: str, theta: str) -> Bits:
    """Log-odds update ``log2(P(theta|x) / P(theta))`` of a single model.

    Computed from the probability-space posterior, so it is an
    independent route to the same number as :func:`tic`. Undefined for a
    model with zero prior.
    """
    return update(ms, om, x).local_transfer_entropy(om._theta_index(theta))
