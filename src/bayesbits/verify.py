"""Engine-versus-oracle agreement check.

Recomputes every quantity of an exact scenario on both paths (the
information-space engine and the exact-rational oracle) and reports the
largest gap in bits, with the number of comparisons made.
"""

from __future__ import annotations

import math

from .aggregates import (
    kl_classical_from_update,
    kl_from_update,
    mi_classical_from_updates,
    mi_from_kls,
)
from .core import _float, info_content, prob_from_info
from .engine import updates
from .errors import ImpossibleObservationError
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
    """Max engine-vs-oracle deviation in bits, and the comparison count."""
    ms, om = scenario.model_space, scenario.observation_model
    table = enumerate_joint(scenario)
    max_dev = 0.0
    checks = 0

    def check(a: float | None, b: float | None) -> None:
        nonlocal max_dev, checks
        max_dev = max(max_dev, bits_deviation(a, b))
        checks += 1

    all_updates = updates(ms, om)
    all_metrics = observation_metrics(table)
    kls = []
    for u, metrics in zip(all_updates, all_metrics):
        if u is None:
            continue
        if metrics is None:
            raise ImpossibleObservationError(
                f"observation {u.observation!r} has zero probability under the prior"
            )
        check(u.evidence_info, info_content(metrics.evidence))
        for j, theta in enumerate(om.model_labels):
            check(prob_from_info(u.posterior_infos[j]), _float(metrics.posterior[theta]))
            oracle_tic = metrics.tic_bits[theta]
            check(u.tics[j] if oracle_tic is not None else None, oracle_tic)
            if oracle_tic is not None:
                check(u.local_transfer_entropy(j), oracle_tic)
        kl = kl_from_update(u)
        kls.append((u.evidence, kl))
        check(kl, metrics.kl_bits)
        check(kl_classical_from_update(u), metrics.kl_bits)
    mi_oracle = oracle_mi_from_metrics(all_metrics)
    check(mi_from_kls(kls), mi_oracle)
    check(mi_classical_from_updates(ms.prior, all_updates), mi_oracle)
    return max_dev, checks
