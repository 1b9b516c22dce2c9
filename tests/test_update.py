"""The per-observation update: agreement with the per-label functions, and cost.

``update`` applies one observation to every model at once. The per-label
functions (``evidence``, ``tic``, ``posterior_prob_oracle``, ...) must
return exactly what it holds, and both must match the textbook formulas
bit for bit, so CLI output does not depend on which route computed a
number.
"""

import random
from fractions import Fraction

import pytest

from bayesbits import (
    HostPolicy,
    ImpossibleObservationError,
    MhpConfig,
    evidence,
    info_content,
    local_transfer_entropy,
    mhp_scenario,
    mutual_information,
    posterior_info,
    posterior_prob_oracle,
    tic,
    transfer_report,
)
from bayesbits import engine
from bayesbits.cli import verify_scenario
from bayesbits.engine import update, updates

from helpers import random_rational_scenario


def same_bits(a: float, b: float) -> bool:
    """Equal as binary64 values, telling -0.0 from 0.0 (float.hex covers +/-inf)."""
    return a.hex() == b.hex()


def test_update_matches_wrappers_and_formulas():
    rng = random.Random(20261017)
    impossible = 0
    for _ in range(300):
        scenario = random_rational_scenario(rng, max_models=6, max_observations=6)
        ms, om = scenario.model_space, scenario.observation_model
        all_updates = updates(ms, om)
        for x, row, shared in zip(om.observation_labels, om.likelihood, all_updates):
            ev = sum(lik * p for lik, p in zip(row, ms.prior.probs))
            assert evidence(ms, om, x) == ev and isinstance(ev, Fraction)
            if ev == 0:
                impossible += 1
                assert shared is None
                for call in (lambda: update(ms, om, x), lambda: tic(ms, om, x, ms.labels[0])):
                    with pytest.raises(ImpossibleObservationError):
                        call()
                continue
            u = update(ms, om, x)
            assert u == shared
            assert u.evidence == ev
            report = transfer_report(ms, om, x)
            assert report == u.report()
            for j, theta in enumerate(ms.labels):
                lik, prior_p = row[j], ms.prior.probs[j]
                post = posterior_prob_oracle(ms, om, x, theta)
                assert isinstance(post, Fraction)
                assert post == u.posteriors[j] == lik * prior_p / ev
                t = tic(ms, om, x, theta)
                assert same_bits(t, u.tics[j])
                assert same_bits(t, info_content(ev) - info_content(lik))
                post_i = posterior_info(ms, om, x, theta)
                assert same_bits(post_i, u.posterior_infos[j])
                assert same_bits(post_i, info_content(prior_p) - t)
                if prior_p != 0:
                    assert same_bits(
                        local_transfer_entropy(ms, om, x, theta), u.local_transfer_entropy(j)
                    )
    # the seed must reach the zero-evidence branch, or that half is untested
    assert impossible > 0


def test_one_marginalisation_per_observation(monkeypatch):
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    ms, om = scenario.model_space, scenario.observation_model
    n_obs = len(om.observation_labels)
    calls = 0
    joint_row = engine._joint_row

    def counting(*args):
        nonlocal calls
        calls += 1
        return joint_row(*args)

    monkeypatch.setattr(engine, "_joint_row", counting)
    # Each command marginalises each likelihood row once. A bound in the
    # model count (12 here) would admit per-model re-marginalisation.
    assert verify_scenario(scenario)[0] <= 1e-9
    assert calls <= 2 * n_obs
    calls = 0
    mutual_information(ms, om)
    assert calls <= 2 * n_obs
