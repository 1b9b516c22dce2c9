"""Shannon information functions assembled from per-model transfers.

The KL divergence of the posterior from the prior is the posterior-
weighted average of the per-model TICs for one observation; mutual
information is that average taken again over the evidence distribution
of observations. Both come with classical-form twins computed directly
from probabilities, so the TIC route is always cross-checkable.

Individual TIC terms can be negative or ``-inf``; the expectations stay
nonnegative because a refuted model carries posterior weight 0 and
``0 * (+/-inf)`` counts as 0 inside these sums.

Each function returns bits as a plain float. The terms it sums are
columns of the engine's :class:`~bayesbits.engine.ObservationUpdate`.
"""

from __future__ import annotations

from typing import Iterable

from .core import Bits, Distribution, Probability, _float, _log2_quotient, entropy
from .engine import ObservationUpdate, update, updates
from .scenario import ModelSpace, ObservationModel

__all__ = [
    "kl_classical",
    "kl_expected_tic",
    "mutual_information",
    "mutual_information_classical",
]


def kl_expected_tic(ms: ModelSpace, om: ObservationModel, x: str) -> Bits:
    """KL divergence as the posterior-weighted expected TIC of ``x``.

    Zero-weight terms contribute exactly 0 even when their TIC is
    ``-inf``, so refuted models drop out of the sum. The raw sum may dip
    a hair below 0 from float noise; the CLI displays it clamped at 0.
    """
    return kl_from_update(update(ms, om, x))


def kl_from_update(u: ObservationUpdate) -> Bits:
    """:func:`kl_expected_tic` of an observation already applied."""
    value = 0.0
    for num, weight, t in zip(u.posterior_nums, u.posterior_floats, u.tics):
        if num != 0:
            value += weight * t
    return value


def kl_classical(ms: ModelSpace, om: ObservationModel, x: str) -> Bits:
    """KL(posterior || prior) summed directly over posterior log-odds."""
    return kl_classical_from_update(update(ms, om, x))


def kl_classical_from_update(u: ObservationUpdate) -> Bits:
    """:func:`kl_classical` of an observation already applied."""
    value, den = 0.0, u.posterior_den
    for num, post, prior_i in zip(u.posterior_nums, u.posterior_floats, u.prior_infos):
        if num != 0:
            # prior_i - info(posterior), the posterior's log from its exact parts
            value += post * (prior_i + _log2_quotient(num, den))
    return value


def mutual_information(ms: ModelSpace, om: ObservationModel) -> Bits:
    """Mutual information as the evidence-weighted average per-observation KL.

    Observations with zero evidence cannot occur and are skipped; they
    would contribute weight 0 anyway.
    """
    return mi_from_updates(updates(ms, om))


def mi_from_updates(us: tuple[ObservationUpdate | None, ...]) -> Bits:
    """:func:`mutual_information` from the updates of every observation."""
    return mi_from_kls([(u.evidence, kl_from_update(u)) for u in us if u is not None])


def mi_from_kls(kls: Iterable[tuple[Probability, Bits]]) -> Bits:
    """:func:`mutual_information` from the (evidence, KL) pair of every possible observation."""
    value = 0.0
    for ev, kl in kls:
        value += _float(ev) * kl
    return value


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
        h, den = 0.0, u.posterior_den
        for num, post in zip(u.posterior_nums, u.posterior_floats):
            if num != 0:
                h -= post * _log2_quotient(num, den)
        conditional += _float(u.evidence) * h
    return entropy(prior) - conditional
