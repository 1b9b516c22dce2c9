"""``verify``'s result, pinned bit for bit on a fixed corpus of scenarios.

Each case's line in ``tests/golden/verify-table.txt`` holds its name, the
comparison count and ``repr`` of the maximum deviation in bits that
``verify_scenario`` returns. The corpus:

* the first 64 scenarios of ``scripts/random_agreement_sweep.py`` at its
  default seed (up to 8 models and 8 observations). They hold zero
  priors, zero likelihoods and observations that every model with a
  prior rules out, which :func:`corpus_gaps` checks;
* the 14- and 16-door games with the standard and the forgetful host,
  each with a prior of random weights over their 36-bit sum, the shape
  of the benchmark's wide priors;
* ``near-one``: a prior of ``1 - 2**-60`` and ``2**-60``, whose values
  and posteriors lie within 2**-53 of 1, where ``core._log2_quotient``
  takes its ``log1p`` branch;
* 8 float scenarios of ``tests/helpers.py``'s ``random_float_scenario``
  (2 to 8 models and observations, about 15% zeros);
* the float edges ``columns-off`` and ``prior-over`` of
  ``float_edge_scenario``, whose sums sit 9e-10 off 1 and move the
  engine from the exact values by more than ``VERIFY_TOL``.

A rewrite of the engine, the oracle or the check must reproduce every
line. The cases need no pytest to run. To compare them on any
interpreter:

    python3 tests/test_verify_table.py --check

After a deliberate change of ``verify``'s result, regenerate the table
with

    python3 tests/test_verify_table.py

and review the diff before committing it.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TABLE = TESTS / "golden" / "verify-table.txt"
SWEEP_SEED = 20260819  # random_agreement_sweep.py's default
SWEEP_CASES = 64
PRIOR_SEED = 20261019
FLOAT_SEED = 20261020
FLOAT_CASES = 8
GAMES = [(n, policy) for n in (14, 16) for policy in ("standard", "forgetful")]


def scenarios() -> dict:
    """Every case of the corpus, by name, in table order."""
    from bayesbits import (Distribution, HostPolicy, MhpConfig, ModelSpace, ObservationModel,
                           Scenario, mhp_scenario)
    from bayesbits.scenario import door_labels
    from helpers import float_edge_scenario, random_float_scenario
    from random_agreement_sweep import random_scenario

    rng = random.Random(SWEEP_SEED)
    cases = {f"random-{i:02d}": random_scenario(rng, 8, 8) for i in range(SWEEP_CASES)}
    rng = random.Random(PRIOR_SEED)
    for n, policy in GAMES:
        weights = [rng.randint(1, 2**32) for _ in range(n)]
        prior = Distribution(door_labels(n), [Fraction(w, sum(weights)) for w in weights])
        cfg = MhpConfig(door_count=n, prior=prior, host_policy=HostPolicy(policy))
        cases[f"custom{n}-{policy}"] = mhp_scenario(cfg)
    tiny = Fraction(1, 2**60)
    cases["near-one"] = Scenario("near-one", ModelSpace(Distribution(["A", "B"], [1 - tiny, tiny])),
                                 ObservationModel(["x0", "x1"], ["A", "B"],
                                                  [[Fraction(1, 2), Fraction(1, 3)],
                                                   [Fraction(1, 2), Fraction(2, 3)]]))
    rng = random.Random(FLOAT_SEED)
    cases.update((f"float-{i}", random_float_scenario(rng)) for i in range(FLOAT_CASES))
    cases.update((name, float_edge_scenario(name)) for name in ("columns-off", "prior-over"))
    return cases


def verify_line(name: str, scenario) -> str:
    """The table line of one case: its name, comparison count and ``repr`` of its deviation."""
    from bayesbits.verify import verify_scenario

    max_dev, checks, _ = verify_scenario(scenario)
    return f"{name} {checks} {max_dev!r}"


def pinned() -> dict[str, str]:
    """The committed line of each case, by name."""
    lines = TABLE.read_text(encoding="utf-8").splitlines()
    return {line.split(" ", 1)[0]: line for line in lines}


def differing(cases: dict) -> list[str]:
    """The cases whose line differs from the committed table, and cases missing from either."""
    table = pinned()
    found = [name for name, s in cases.items() if table.get(name) != verify_line(name, s)]
    return found + sorted(set(table) - set(cases))


def corpus_gaps(cases: dict) -> list[str]:
    """Each edge case the random scenarios, or for a value near 1 any case, fail to reach."""
    zero_prior = zero_likelihood = impossible = near_one = False
    for name, s in cases.items():
        prior, rows = s.model_space.prior.probs, s.observation_model.likelihood
        # an exact value that rounds to the float 1.0: its bits come from
        # core._log2_quotient's log1p branch, with a non-zero argument
        near_one |= any(p != 1 and float(p) == 1.0 for p in chain(prior, *rows))
        if not name.startswith("random-"):
            continue
        zero_prior |= 0 in prior
        zero_likelihood |= any(0 in row for row in rows)
        impossible |= any(all(p * lik == 0 for p, lik in zip(prior, row)) for row in rows)
    gaps = {"random case with a zero prior": zero_prior,
            "random case with a zero likelihood": zero_likelihood,
            "random case with an impossible observation": impossible,
            "case with a value within 2**-53 of 1": near_one}
    return [gap for gap, reached in gaps.items() if not reached]


if __name__ != "__main__":  # collected by pytest; the script below runs without it
    import pytest

    @pytest.fixture(scope="module")
    def cases():
        return scenarios()

    def test_verify_matches_the_table(cases):
        assert differing(cases) == []

    def test_random_cases_reach_every_edge(cases):
        assert corpus_gaps(cases) == []


def main(argv: list[str]) -> int:
    """Compare every case with the table (``--check``), or rewrite the table."""
    check = argv == ["--check"]
    if argv and not check:
        print("usage: python3 tests/test_verify_table.py [--check]", file=sys.stderr)
        return 2
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS.parent / "scripts")]
    cases = scenarios()
    if not check:
        TABLE.write_text("".join(f"{verify_line(n, s)}\n" for n, s in cases.items()), "utf-8")
        print(f"wrote {len(cases)} verify lines to {TABLE}")
        return 0
    failed, gaps = differing(cases), corpus_gaps(cases)
    python = ".".join(map(str, sys.version_info[:3]))
    for name in failed:
        print(f"differs: {name}")
    for gap in gaps:
        print(f"corpus: no {gap}")
    print(f"{len(cases) - len(failed)} of {len(cases)} verify lines match on Python {python}")
    return 1 if failed or gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
