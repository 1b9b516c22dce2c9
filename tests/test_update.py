"""The per-observation update: agreement with the per-label functions, and cost.

``update`` applies one observation to every model at once. The per-label
functions (``evidence``, ``tic``, ``posterior_prob_oracle``, ...) must
return exactly what it holds, and both must match the textbook formulas
bit for bit, so CLI output does not depend on which route computed a
number.
"""

import math
import random
from fractions import Fraction

import pytest

from bayesbits import (
    Distribution,
    HostPolicy,
    MhpConfig,
    ModelSpace,
    ObservationModel,
    Scenario,
    evidence,
    local_transfer_entropy,
    mhp_scenario,
    mutual_information,
    tic,
    transfer_report,
)
from bayesbits import aggregates, engine, oracle, verify
from bayesbits.core import _log2_positive, info_content
from bayesbits.engine import (
    SignClass,
    classify_tic,
    posterior_info,
    posterior_prob_oracle,
    update,
    updates,
)
from bayesbits.errors import ImpossibleObservationError
from bayesbits.verify import verify_scenario

from helpers import same_bits, wide_36_bit, wide_coprime, wide_rational_scenario
from random_agreement_sweep import random_scenario


def log_odds_reference(u, j: int) -> float:
    """``log2(posterior / prior)`` of the reduced ratio: the integer-part kernel must give its bits."""
    post = u.posteriors[j]
    return -math.inf if post == 0 else _log2_positive(post / u.priors[j])


def expected_sign(lik, ev, t):
    """Textbook sign class: exact comparison for Fractions, the TIC band for floats."""
    if isinstance(lik, Fraction) and isinstance(ev, Fraction):
        if lik == ev:
            return SignClass.NEUTRAL
        return SignClass.INFORMS if lik > ev else SignClass.MISLEADS
    return classify_tic(t)


def check_against_formulas(scenario) -> int:
    """Assert the update, the wrappers and the textbook formulas agree.

    Returns the number of observations with zero evidence.
    """
    ms, om = scenario.model_space, scenario.observation_model
    exact = scenario.is_exact
    impossible = 0
    all_updates = updates(ms, om)
    for x, row, shared in zip(om.observation_labels, om.likelihood, all_updates):
        ev = sum(lik * p for lik, p in zip(row, ms.prior.probs))
        assert evidence(ms, om, x) == ev and isinstance(ev, Fraction) == exact
        assert same_bits(float(evidence(ms, om, x)), float(ev))
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
        assert report == u
        assert report.entries == tuple([report.entry_for(theta) for theta in ms.labels])
        assert same_bits(report.evidence_info, info_content(ev))
        assert all(same_bits(e.evidence_info, report.evidence_info) for e in report.entries)
        for j, theta in enumerate(ms.labels):
            lik, prior_p = row[j], ms.prior.probs[j]
            post = posterior_prob_oracle(ms, om, x, theta)
            assert isinstance(post, Fraction) == exact
            assert post == u.posteriors[j] == lik * prior_p / ev
            assert same_bits(float(post), float(lik * prior_p / ev))
            t = tic(ms, om, x, theta)
            assert same_bits(t, u.tics[j])
            assert same_bits(t, info_content(ev) - info_content(lik))
            assert u.signs[j] == (None if prior_p == 0 else expected_sign(lik, ev, t))
            post_i = posterior_info(ms, om, x, theta)
            assert same_bits(post_i, u.posterior_infos[j])
            assert same_bits(post_i, info_content(prior_p) - t)
            if prior_p != 0:
                lte = u.local_transfer_entropy(j)
                assert same_bits(local_transfer_entropy(ms, om, x, theta), lte)
                assert same_bits(lte, log_odds_reference(u, j))
    return impossible


def test_update_matches_wrappers_and_formulas():
    rng = random.Random(20261017)
    impossible = 0
    for _ in range(300):
        scenario = random_scenario(rng, max_models=6, max_observations=6)
        impossible += check_against_formulas(scenario)
    # the seed must reach the zero-evidence branch, or that half is untested
    assert impossible > 0


@pytest.mark.parametrize(
    "denominators",
    [
        pytest.param(wide_36_bit, id="36-bit"),
        pytest.param(wide_coprime, id="pairwise-coprime"),
    ],
)
def test_update_matches_formulas_on_wide_denominators(denominators):
    # The integer kernel scales every entry to one common denominator;
    # entries with different, large denominators stress that scaling.
    rng = random.Random(20261018)
    for _ in range(150):
        scenario = wide_rational_scenario(rng, denominators)
        assert scenario.is_exact
        check_against_formulas(scenario)


def test_mixed_exact_prior_float_likelihood_takes_float_path():
    # An exact prior with a float row is worked in float arithmetic, as before.
    rng = random.Random(7)
    for _ in range(100):
        base = random_scenario(rng, max_models=5, max_observations=5)
        om = base.observation_model
        floats = [[float(p) for p in row] for row in om.likelihood]
        scenario = Scenario(
            name="mixed",
            model_space=base.model_space,
            observation_model=ObservationModel(om.observation_labels, om.model_labels, floats),
        )
        assert scenario.model_space.prior.is_exact and not scenario.is_exact
        check_against_formulas(scenario)


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


def test_one_oracle_pass_per_observation(monkeypatch):
    # verify reuses each observation's oracle metrics for the oracle MI
    # instead of computing them a second time inside oracle_mi.
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    n_obs = len(scenario.observation_model.observation_labels)
    calls = 0
    metrics = oracle._metrics

    def counting(*args):
        nonlocal calls
        calls += 1
        return metrics(*args)

    monkeypatch.setattr(oracle, "_metrics", counting)
    assert verify_scenario(scenario)[0] <= 1e-9
    assert 0 < calls <= n_obs

def two_model_update(prior_0: Fraction, lik_0: Fraction, lik_1: Fraction):
    """Observation ``x`` of a two-model scenario, from model 0's prior and both likelihoods."""
    prior = Distribution(["M0", "M1"], [prior_0, 1 - prior_0])
    om = ObservationModel(["x", "y"], prior.labels, [[lik_0, lik_1], [1 - lik_0, 1 - lik_1]])
    return update(ModelSpace(prior), om, "x")


@pytest.mark.parametrize(
    "prior_0, lik_0, lik_1, bits",
    [
        # ratio 1 / (1 + 2**-60) rounds to 1.0: the log1p path
        pytest.param(
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2**60),
            -(2.0**-60) / math.log(2), id="within-2**-53-of-1",
        ),
        # ratio about 2**-1199 underflows to 0.0: integer logs
        pytest.param(Fraction(1, 2), Fraction(1, 2**1200), Fraction(1), -1199.0, id="below-2**-1074"),
        # prior 1/3**700, posterior 1: ratio 3**700 overflows the float range
        pytest.param(Fraction(1, 3**700), Fraction(1), Fraction(0), 700 * math.log2(3), id="overflow"),
    ],
)
def test_log_odds_edge_ratios(prior_0, lik_0, lik_1, bits):
    u = two_model_update(prior_0, lik_0, lik_1)
    lte = u.local_transfer_entropy(0)
    assert same_bits(lte, log_odds_reference(u, 0))
    assert lte == pytest.approx(bits, rel=1e-12)


def call_counter(monkeypatch, owner, name: str) -> list[int]:
    """Count calls of ``owner.name`` from now on, in the returned one-item list."""
    calls = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_verify_sums_each_kl_once(monkeypatch):
    # MI reuses the KL that verify already summed for each observation
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    n_obs = len(scenario.observation_model.observation_labels)
    direct = call_counter(monkeypatch, verify, "kl_from_update")
    inner = call_counter(monkeypatch, aggregates, "kl_from_update")
    assert verify_scenario(scenario)[0] <= 1e-9
    assert 0 < direct[0] + inner[0] <= n_obs == 22


def test_classical_mi_builds_no_distribution(monkeypatch):
    # the engine's posteriors are a distribution already: no re-validation per observation
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    calls = call_counter(monkeypatch, aggregates, "Distribution")
    ms, om = scenario.model_space, scenario.observation_model
    assert aggregates.mi_classical_from_updates(ms.prior, updates(ms, om)) == pytest.approx(
        oracle.oracle_mi(oracle.enumerate_joint(scenario)), abs=1e-9
    )
    assert verify_scenario(scenario)[0] <= 1e-9
    assert calls == [0]


def test_log_odds_updates_divide_no_fractions(monkeypatch):
    # each log-odds update takes its ratio from integer parts
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    divisions = call_counter(monkeypatch, Fraction, "__truediv__")
    reflected = call_counter(monkeypatch, Fraction, "__rtruediv__")
    per_call = []
    log_odds = engine.ObservationUpdate.local_transfer_entropy

    def watched(self, j):
        before = divisions[0] + reflected[0]
        result = log_odds(self, j)
        per_call.append(divisions[0] + reflected[0] - before)
        return result

    monkeypatch.setattr(engine.ObservationUpdate, "local_transfer_entropy", watched)
    assert verify_scenario(scenario)[0] <= 1e-9
    assert per_call and not any(per_call)


def test_float_evidence_above_one_carries_zero_bits():
    # A float prior summing to 1.0000000000000002 is accepted within
    # FLOAT_SUM_TOL; a certain observation's evidence rounds to that sum.
    prior = Distribution([f"M{i}" for i in range(5)], [1 / 3, 1 / 24, 7 / 24, 7 / 24, 1 / 24])
    om = ObservationModel(["x"], prior.labels, [[1.0] * 5])
    u = update(ModelSpace(prior), om, "x")
    assert u.evidence > 1
    assert u.evidence_info == 0.0
    assert [e.evidence_info for e in u.entries] == [0.0] * 5
    assert u.tics == (0.0,) * 5
    assert u.posterior_infos == u.prior_infos
