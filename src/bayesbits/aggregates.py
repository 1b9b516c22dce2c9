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

from functools import cached_property
from typing import NamedTuple, Sequence

from .core import Bits, Distribution, Probability, _entropy, _float, _info, entropy
from .engine import ModelSpace, ObservationModel, ObservationUpdate, update, updates
from .record import Record

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


class KlTerm(NamedTuple):
    """One model's contribution: posterior weight times its TIC."""

    model: str
    weight: Probability
    tic: Bits


class KlResult(Record):
    """KL(posterior || prior) for one observation, with its term breakdown.

    ``value`` is the raw sum and may dip a hair below 0 from float noise;
    ``clamped`` is the display form pinned at 0. ``terms`` is built from
    ``update`` on first access: the sum itself needs no per-model object.
    """

    _fields = ("observation", "value", "update")
    _hidden = ("update",)
    __slots__ = _fields + ("__dict__",)  # the dict holds the cached terms
    observation: str
    value: Bits
    update: ObservationUpdate

    def __init__(self, observation: str, value: Bits, update: ObservationUpdate) -> None:
        self._set(observation=observation, value=value, update=update)

    @cached_property
    def terms(self) -> tuple[KlTerm, ...]:
        u = self.update
        return tuple(
            [KlTerm(model=m, weight=w, tic=t) for m, w, t in zip(u.models, u.posteriors, u.tics)]
        )

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
    value = 0.0
    for weight, t in zip(u.posteriors, u.tics):
        if weight != 0:
            value += _float(weight) * t
    return KlResult(observation=u.observation, value=value, update=u)


def kl_classical(ms: ModelSpace, om: ObservationModel, x: str) -> Bits:
    """KL(posterior || prior) summed directly over posterior log-odds."""
    return kl_classical_from_update(update(ms, om, x))


def kl_classical_from_update(u: ObservationUpdate) -> Bits:
    """:func:`kl_classical` of an observation already applied."""
    value = 0.0
    for post, prior_i in zip(u.posteriors, u.prior_infos):
        if post == 0:
            continue
        value += _float(post) * (prior_i - _info(post))
    return value


class MiTerm(NamedTuple):
    """One observation's contribution: evidence weight times its KL."""

    observation: str
    evidence: Probability
    kl: KlResult


class MiResult(NamedTuple):
    """Mutual information between models and observations, with breakdown.

    ``kls`` holds the KL of every observation with nonzero evidence;
    ``per_observation`` is built from them on each access.
    """

    value: Bits
    kls: tuple[KlResult, ...]

    @property
    def per_observation(self) -> tuple[MiTerm, ...]:
        return tuple(
            [MiTerm(observation=k.observation, evidence=k.update.evidence, kl=k) for k in self.kls]
        )

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
    return mi_from_kls([kl_from_update(u) for u in us if u is not None])


def mi_from_kls(kls: Sequence[KlResult]) -> MiResult:
    """:func:`mutual_information` from the KL of every observation with nonzero evidence."""
    value = 0.0
    for kl in kls:
        value += _float(kl.update.evidence) * kl.value
    return MiResult(value=value, kls=tuple(kls))


def mutual_information_classical(ms: ModelSpace, om: ObservationModel) -> Bits:
    """Mutual information as prior entropy minus expected posterior entropy."""
    return mi_classical_from_updates(ms.prior, updates(ms, om))


def mi_classical_from_updates(prior: Distribution, us: tuple[ObservationUpdate | None, ...]) -> Bits:
    """:func:`mutual_information_classical` from the updates of every observation.

    The engine's posteriors already form a distribution, so their entropy
    is taken as they are, without building and checking a new one.
    """
    conditional = 0.0
    for u in us:
        if u is None:
            continue
        conditional += _float(u.evidence) * _entropy(u.posteriors)
    return entropy(prior) - conditional
