"""Shannon information functions assembled from per-model transfers.

The KL divergence of the posterior from the prior is the posterior-
weighted average of the per-model TICs for one observation; mutual
information is that average taken again over the evidence distribution
of observations. Both come with classical-form twins computed directly
from probabilities, so the TIC route is always cross-checkable.

Individual TIC terms can be negative or ``-inf``; the expectations stay
nonnegative because a refuted model carries posterior weight 0 and
``0 * (+/-inf)`` counts as 0 inside these sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Bits, Distribution, Probability, entropy, info_content
from .engine import ModelSpace, ObservationModel, ObservationUpdate, update, updates

__all__ = [
    "KlResult",
    "KlTerm",
    "MiResult",
    "MiTerm",
    "kl_classical",
    "kl_expected_tic",
    "mutual_information",
    "mutual_information_classical",
]


@dataclass(frozen=True)
class KlTerm:
    """One model's contribution: posterior weight times its TIC."""

    model: str
    weight: Probability
    tic: Bits


@dataclass(frozen=True)
class KlResult:
    """KL(posterior || prior) for one observation, with its term breakdown.

    ``value`` is the raw sum and may dip a hair below 0 from float noise;
    ``clamped`` is the display form pinned at 0.
    """

    observation: str
    value: Bits
    terms: tuple[KlTerm, ...]

    @property
    def clamped(self) -> Bits:
        return max(0.0, self.value)


def kl_expected_tic(ms: ModelSpace, om: ObservationModel, x: str) -> KlResult:
    """KL divergence as the posterior-weighted expected TIC of ``x``.

    Zero-weight terms contribute exactly 0 even when their TIC is
    ``-inf``, so refuted models drop out of the sum.
    """
    return kl_from_update(update(ms, om, x))


def kl_from_update(u: ObservationUpdate) -> KlResult:
    """:func:`kl_expected_tic` of an observation already applied."""
    terms = []
    value = 0.0
    for theta, weight, t in zip(u.models, u.posteriors, u.tics):
        terms.append(KlTerm(model=theta, weight=weight, tic=t))
        if weight != 0:
            value += float(weight) * t
    return KlResult(observation=u.observation, value=value, terms=tuple(terms))


def kl_classical(ms: ModelSpace, om: ObservationModel, x: str) -> Bits:
    """KL(posterior || prior) summed directly over posterior log-odds."""
    return kl_classical_from_update(update(ms, om, x))


def kl_classical_from_update(u: ObservationUpdate) -> Bits:
    """:func:`kl_classical` of an observation already applied."""
    value = 0.0
    for post, prior_i in zip(u.posteriors, u.prior_infos):
        if post == 0:
            continue
        value += float(post) * (prior_i - info_content(post))
    return value


@dataclass(frozen=True)
class MiTerm:
    """One observation's contribution: evidence weight times its KL."""

    observation: str
    evidence: Probability
    kl: KlResult


@dataclass(frozen=True)
class MiResult:
    """Mutual information between models and observations, with breakdown."""

    value: Bits
    per_observation: tuple[MiTerm, ...]

    @property
    def clamped(self) -> Bits:
        return max(0.0, self.value)


def mutual_information(ms: ModelSpace, om: ObservationModel) -> MiResult:
    """Mutual information as the evidence-weighted average per-observation KL.

    Observations with zero evidence cannot occur and are skipped; they
    would contribute weight 0 anyway.
    """
    return mi_from_updates(updates(ms, om))


def mi_from_updates(us: tuple[ObservationUpdate | None, ...]) -> MiResult:
    """:func:`mutual_information` from the updates of every observation."""
    terms = []
    value = 0.0
    for u in us:
        if u is None:
            continue
        kl = kl_from_update(u)
        terms.append(MiTerm(observation=u.observation, evidence=u.evidence, kl=kl))
        value += float(u.evidence) * kl.value
    return MiResult(value=value, per_observation=tuple(terms))


def mutual_information_classical(ms: ModelSpace, om: ObservationModel) -> Bits:
    """Mutual information as prior entropy minus expected posterior entropy."""
    return mi_classical_from_updates(ms.prior, updates(ms, om))


def mi_classical_from_updates(prior: Distribution, us: tuple[ObservationUpdate | None, ...]) -> Bits:
    """:func:`mutual_information_classical` from the updates of every observation."""
    conditional = 0.0
    for u in us:
        if u is None:
            continue
        conditional += float(u.evidence) * entropy(Distribution(prior.labels, u.posteriors))
    return entropy(prior) - conditional
