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
columns of one observation's engine ``Marginal``; MI folds the
observations' marginals into its sum one at a time. Each quantity has
one reduction, which ``kl``, ``mi`` and ``verify`` all call.
"""

from __future__ import annotations

from typing import Iterable

from .core import Bits, Distribution, _log2_quotient, entropy
from .engine import Marginal, marginals, transfer_report
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
    return kl_from_update(transfer_report(ms, om, x))


def kl_from_update(u: Marginal) -> Bits:
    """:func:`kl_expected_tic` of an observation's marginal."""
    value = 0.0
    for num, weight, t in zip(u.posterior_nums, u.posterior_floats, u.tics):
        if num != 0:
            value += weight * t
    return value


def kl_classical(ms: ModelSpace, om: ObservationModel, x: str) -> Bits:
    """KL(posterior || prior) summed directly over posterior log-odds."""
    return kl_classical_and_entropy(transfer_report(ms, om, x))[0]


def kl_classical_and_entropy(u: Marginal) -> tuple[Bits, Bits]:
    """:func:`kl_classical` of an observation's marginal, and its posterior entropy.

    Both come from one log per posterior. This is the one posterior-entropy
    reduction: the classical MI path takes its entropy from here.
    """
    kl = h = 0.0
    den = u.posterior_den
    for num, post, prior_i in zip(u.posterior_nums, u.posterior_floats, u.prior_infos):
        if num != 0:
            lg = _log2_quotient(num, den)  # -info(posterior), from its exact parts
            kl += post * (prior_i + lg)
            h -= post * lg
    return kl, h


def mutual_information(ms: ModelSpace, om: ObservationModel) -> Bits:
    """Mutual information as the evidence-weighted average per-observation KL.

    Observations with zero evidence cannot occur and are skipped; they
    would contribute weight 0 anyway.
    """
    return mi_from_kls((m.evidence_float, kl_from_update(m))
                       for m in marginals(ms, om) if m is not None)


def mi_from_kls(kls: Iterable[tuple[float, Bits]]) -> Bits:
    """:func:`mutual_information` from (evidence, KL) pairs: their evidence-weighted sum, in order."""
    value = 0.0
    for ev, kl in kls:
        value += ev * kl
    return value


def mutual_information_classical(ms: ModelSpace, om: ObservationModel) -> Bits:
    """Mutual information as prior entropy minus expected posterior entropy."""
    return mi_both_paths(ms, om)[1]


def mi_both_paths(ms: ModelSpace, om: ObservationModel) -> tuple[Bits, Bits]:
    """:func:`mutual_information` and :func:`mutual_information_classical` from one pass.

    Each observation's marginal is reduced to its evidence, its KL and
    its :func:`kl_classical_and_entropy`, and dropped.
    """
    terms = [(m.evidence_float, kl_from_update(m), kl_classical_and_entropy(m))
             for m in marginals(ms, om) if m is not None]
    return mi_from_terms(ms.prior, terms)


def mi_from_terms(
    prior: Distribution, terms: list[tuple[float, Bits, tuple[Bits, Bits]]]
) -> tuple[Bits, Bits]:
    """:func:`mi_both_paths` from each possible observation's evidence, KL and
    :func:`kl_classical_and_entropy`, in observation order."""
    return (mi_from_kls([(ev, kl) for ev, kl, _ in terms]),
            entropy(prior) - mi_from_kls([(ev, h) for ev, _, (_, h) in terms]))
