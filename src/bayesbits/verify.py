"""Engine-versus-oracle agreement check.

Recomputes every quantity of an exact scenario on both paths (the
information-space engine and the exact-rational oracle) and reports the
largest gap in bits, with the number of comparisons made.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, compress, repeat
from typing import Iterable, Iterator

from .aggregates import kl_classical_from_update, kl_from_update
from .aggregates import mi_classical_from_updates, mi_from_kls
from .core import Distribution, info_content, prob_from_info
from .engine import updates
from .errors import DomainError
from .oracle import enumerate_joint, observation_metrics, oracle_mi_from_metrics
from .scenario import Scenario

__all__ = ["VERIFY_TOL", "bits_deviation", "verify_scenario"]

# Largest engine-vs-oracle gap, in bits, that still counts as agreement.
VERIFY_TOL = 1e-9


def bits_deviation(a: float | None, b: float | None) -> float:
    """Absolute gap between two bit values; equal infinities count as 0.

    None against None is 0 and None against a value is ``inf``, as is a
    NaN on either side. :func:`max_deviation` of one pair.
    """
    return max_deviation((a,), (b,))


def max_deviation(a: Iterable[float | None], b: Iterable[float | None]) -> float:
    """Largest :func:`bits_deviation` between paired values of two columns; 0 when empty.

    The test is written out once, here, and run without a call per pair.
    """
    return max(
        (
            0.0 if x == y  # None against None, or equal values and infinities
            else math.inf if x is None or y is None or x != x or y != y  # x != x: NaN
            else abs(x - y)
            for x, y in zip(a, b)
        ),
        default=0.0,
    )


def verify_scenario(scenario: Scenario) -> tuple[float, int]:
    """Max engine-vs-oracle deviation in bits, and the comparison count.

    Each quantity is an engine column against an oracle column. An
    observation only one path finds impossible counts as one comparison
    at deviation ``inf``; one both find impossible is skipped.
    """
    ms, om = scenario.model_space, scenario.observation_model
    pairs = list(zip(updates(ms, om), observation_metrics(enumerate_joint(scenario))))
    one_sided = sum([(u is None) != (m is None) for u, m in pairs])
    devs, counts = zip(*_deviations(ms.prior, pairs))
    return (math.inf if one_sided else max(devs)), sum(counts) + one_sided


def _deviations(prior: Distribution, pairs: list) -> Iterator[tuple[float, int]]:
    """Each quantity's engine-vs-oracle deviation, from (update, metrics) pairs, and its count.

    Engine columns are lazy, so a per-cell column is never held in full.
    """
    both = [(u, m) for u, m in pairs if u is not None and m is not None]
    us, oracle = [u for u, _ in both], [m for _, m in both]
    kls, oracle_kls = [kl_from_update(u) for u in us], [m.kl_bits for m in oracle]
    mi_oracle = oracle_mi_from_metrics([m for _, m in pairs])
    yield max_deviation([mi_from_kls(zip([u.evidence for u in us], kls))], [mi_oracle]), 1
    yield max_deviation([mi_classical_from_updates(prior, [u for u, _ in pairs])], [mi_oracle]), 1
    yield max_deviation(kls, oracle_kls), len(oracle_kls)
    yield max_deviation(map(kl_classical_from_update, us), oracle_kls), len(oracle_kls)
    evidence = [info_content(m.evidence) for m in oracle]
    yield max_deviation((u.evidence_info for u in us), evidence), len(oracle)
    posteriors = [p for m in oracle for p in m.posterior_floats]
    infos = chain.from_iterable([u.posterior_infos for u in us])
    try:  # a NaN, or an information content below -noise, has no probability
        yield max_deviation(map(prob_from_info, infos), posteriors), len(posteriors)
    except DomainError:
        yield math.inf, len(posteriors)
    # The oracle gives no TIC (None) where the prior is 0. There the
    # engine's TIC and log-odds update are not compared, but each such
    # cell still counts as one TIC comparison, of None with None.
    defined = [o for m in oracle for o in m.tic_bits.values() if o is not None]

    def where_defined(rows: Iterable[Iterable]) -> Iterable:
        masks = (map(operator.is_not, m.tic_bits.values(), repeat(None)) for m in oracle)
        return chain.from_iterable(map(compress, rows, masks))

    yield max_deviation(where_defined(u.tics for u in us), defined), len(posteriors)
    yield max_deviation(where_defined(u.log_odds_updates() for u in us), defined), len(defined)
