"""Engine-versus-oracle agreement check.

Recomputes every quantity of an exact scenario on both paths (the
information-space engine and the exact-rational oracle) and reports the
largest gap in bits, with the number of comparisons made.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .aggregates import (
    kl_classical_from_update,
    kl_from_update,
    mi_classical_from_updates,
    mi_from_kls,
)
from .core import Distribution, info_content, prob_from_info
from .engine import updates
from .oracle import enumerate_joint, observation_metrics, oracle_mi_from_metrics
from .scenario import Scenario

__all__ = ["VERIFY_TOL", "bits_deviation", "verify_scenario"]

# Largest engine-vs-oracle gap, in bits, that still counts as agreement.
VERIFY_TOL = 1e-9


def bits_deviation(a: float | None, b: float | None) -> float:
    """Absolute gap between two bit values; equal infinities count as 0."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b)


def verify_scenario(scenario: Scenario) -> tuple[float, int]:
    """Max engine-vs-oracle deviation in bits, and the comparison count.

    Each quantity is an engine column against an oracle column. An
    observation only one path finds impossible counts as one comparison
    at deviation ``inf``; one both find impossible is skipped.
    """
    ms, om = scenario.model_space, scenario.observation_model
    pairs = list(zip(updates(ms, om), observation_metrics(enumerate_joint(scenario))))
    one_sided = sum([(u is None) != (m is None) for u, m in pairs])
    reduced = [(max(map(bits_deviation, a, b), default=0.0), len(b)) for a, b in _columns(ms.prior, pairs)]
    max_dev = max([dev for dev, _ in reduced])
    return (math.inf if one_sided else max_dev), sum([n for _, n in reduced]) + one_sided


def _columns(prior: Distribution, pairs: list) -> Iterator[tuple[Iterable, list]]:
    """The engine's and the oracle's column of each quantity, from (update, metrics) pairs.

    Engine columns are lazy, so a per-cell column is never held in full.
    """
    both = [(u, m) for u, m in pairs if u is not None and m is not None]
    us, oracle = [u for u, _ in both], [m for _, m in both]
    kls, oracle_kls = [kl_from_update(u) for u in us], [m.kl_bits for m in oracle]
    mi_oracle = oracle_mi_from_metrics([m for _, m in pairs])
    yield [mi_from_kls(zip([u.evidence for u in us], kls))], [mi_oracle]
    yield [mi_classical_from_updates(prior, [u for u, _ in pairs])], [mi_oracle]
    yield kls, oracle_kls
    yield map(kl_classical_from_update, us), oracle_kls
    yield (u.evidence_info for u in us), [info_content(m.evidence) for m in oracle]
    yield (
        (prob_from_info(i) for u in us for i in u.posterior_infos),
        [p for m in oracle for p in m.posterior_floats],
    )
    # per cell, the oracle's TIC: None where the prior is 0
    oracle_tics = [o for m in oracle for o in m.tic_bits.values()]
    tics = (t for u in us for t in u.tics)
    yield (None if o is None else t for t, o in zip(tics, oracle_tics)), oracle_tics
    defined = ((u, j) for u, m in both for j, o in enumerate(m.tic_bits.values()) if o is not None)
    yield (u.local_transfer_entropy(j) for u, j in defined), [o for o in oracle_tics if o is not None]
