"""Engine-versus-oracle agreement check.

Recomputes every quantity of a scenario on both paths (the
information-space engine and the exact-rational oracle) and reports the
largest gap in bits, the number of comparisons made and the gap allowed.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, compress, islice, repeat
from typing import Iterable

from .aggregates import kl_classical_and_entropy, kl_from_update, mi_from_terms
from .core import FLOAT_SUM_TOL, info_content, prob_from_info
from .engine import marginals
from .errors import DomainError
from .oracle import oracle_mi_from_terms, read_values, scenario_metrics
from .scenario import Scenario

__all__ = ["VERIFY_TOL", "verify_scenario"]

# Largest engine-vs-oracle gap, in bits, that still counts as agreement.
VERIFY_TOL = 1e-9

# Values with a float may sum to within FLOAT_SUM_TOL (e) of 1, and there
# the engine's conventions part from the oracle's exact definitions. An
# evidence above 1 (at most 1 + e) counts as 0 bits, which moves TICs and
# KLs by log2(1 + e) < 1.45 e, posteriors by e, and the TIC-path MI (its
# evidences sum to (1 + e)**2) by under 2 e. The classical MI's prior
# entropy takes each column sum c as 1, which moves it by
# |sum p (c - 1) log2 p| < e (1 + log2 M) for M models. So a float
# scenario passes within VERIFY_TOL + e (2 + log2 M).


def max_deviation(a: Iterable[float | None], b: Iterable[float | None]) -> float:
    """Largest gap between paired bit values of two columns; 0 when empty.

    Equal values and equal infinities are 0 apart, and so is None against
    None. None against a value is ``inf``, as is a NaN on either side.
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


# Observations are compared in batches of about this many cells. Each
# quantity is one column per batch, so the comparison makes a few calls
# per batch, not per observation, and memory stays within one batch.
_BATCH_CELLS = 4096


def verify_scenario(scenario: Scenario) -> tuple[float, int, float]:
    """Max engine-vs-oracle deviation in bits, the comparison count, and the tolerance in bits.

    One pass pairs each observation's engine marginal with its oracle
    metrics; neither path builds a joint table or a per-model report.
    The pairs are compared a batch at a time and dropped. An observation
    only one path finds impossible counts as one comparison at deviation
    ``inf``; one both find impossible is skipped. Both MIs are summed
    over the observations possible on both paths, in order. The
    tolerance is widened as above where the oracle's reader finds a float.
    """
    ms, om = scenario.model_space, scenario.observation_model
    batch_size = max(1, _BATCH_CELLS // len(ms.labels))
    reading = read_values(scenario)
    # strict: the oracle is read to its end, where it checks the joint table
    pairs = zip(marginals(ms, om), scenario_metrics(scenario, reading), strict=True)
    dev, checks, one_sided = 0.0, 2, 0  # 2: the MI of each engine path
    terms: list[tuple] = []  # each observation's MI terms, from _compare
    while batch := list(islice(pairs, batch_size)):
        one_sided += sum([(m is None) != (o is None) for m, o in batch])
        batch_dev, batch_checks, batch_terms = _compare([p for p in batch if None not in p])
        dev, checks = max(dev, batch_dev), checks + batch_checks
        terms += batch_terms
    mi_oracle = oracle_mi_from_terms([(ev, kl) for *_, ev, kl in terms])
    mi, mi_classical = mi_from_terms(ms.prior, [(ev, kl, c) for ev, kl, c, _, _ in terms])
    dev = max(dev, max_deviation((mi, mi_classical), (mi_oracle, mi_oracle)))
    float_tol = 0.0 if reading[2] else FLOAT_SUM_TOL * (2 + math.log2(len(ms.labels)))
    return (math.inf if one_sided else dev), checks + one_sided, VERIFY_TOL + float_tol


def _compare(both: list) -> tuple[float, int, list[tuple]]:
    """Largest deviation and comparison count of a batch of (marginal, metrics) pairs.

    Each quantity is an engine column against an oracle column. Per-cell
    engine columns are lazy, so they are never held in full. Also returns
    each pair's MI terms: the engine's evidence, KL, classical KL and
    posterior entropy, then the oracle's evidence and KL.
    """
    engine, oracle = [m for m, _ in both], [o for _, o in both]
    kls, oracle_kls = [kl_from_update(m) for m in engine], [o.kl_bits for o in oracle]
    classical = [kl_classical_and_entropy(m) for m in engine]
    terms = [(m.evidence_float, kl, c, o.evidence, o.kl_bits)
             for m, o, kl, c in zip(engine, oracle, kls, classical)]
    devs = [
        max_deviation(kls, oracle_kls),
        max_deviation([kl for kl, _ in classical], oracle_kls),
        # the engine counts an evidence above 1, which a float prior can give, as 0 bits
        max_deviation((m.evidence_info for m in engine),
                      [info_content(e if e.numerator <= e.denominator else 1) for *_, e, _ in terms]),
    ]
    posteriors = [p for o in oracle for p in o.posterior_floats]
    try:  # a TIC of None or NaN, or an information content below -noise, has no probability
        infos = chain.from_iterable([m.posterior_infos for m in engine])
        devs.append(max_deviation(map(prob_from_info, infos), posteriors))
    except (DomainError, TypeError):
        devs.append(math.inf)
    # The oracle gives no TIC (None) where the prior is 0. There the
    # engine's TIC and log-odds update are not compared, but each such
    # cell still counts as one TIC comparison, of None with None.
    defined = [t for o in oracle for t in o.tic_bits.values() if t is not None]

    def where_defined(rows: Iterable[Iterable]) -> Iterable:
        masks = (map(operator.is_not, o.tic_bits.values(), repeat(None)) for o in oracle)
        return chain.from_iterable(map(compress, rows, masks))

    devs.append(max_deviation(where_defined(m.tics for m in engine), defined))
    devs.append(max_deviation(where_defined(m.log_odds_updates() for m in engine), defined))
    # evidence and both KLs per observation, each posterior and TIC, each
    # defined log-odds update
    return max(devs), 3 * len(oracle) + 2 * len(posteriors) + len(defined), terms
