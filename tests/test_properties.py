"""Property-based checks over randomized exact-rational scenarios."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bayesbits import (
    Distribution,
    ModelSpace,
    ObservationModel,
    Scenario,
    enumerate_joint,
    kl_expected_tic,
    local_transfer_entropy,
    mutual_information,
    oracle_metrics,
    posterior_prob_info_form,
    tic,
    transfer_report,
)
from bayesbits.cli import build_report
from bayesbits.core import entropy, info_content, prob_from_info
from bayesbits.engine import log2_bayes_factor, posterior_info
from bayesbits.errors import InvariantViolation
from bayesbits.scenario import scenario_from_json_text, scenario_to_json_text
from bayesbits.verify import bits_deviation

weight_lists = st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(
    lambda w: sum(w) > 0
)


def dist_from_weights(weights):
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@st.composite
def rational_scenarios(draw):
    n_models = draw(st.integers(1, 5))
    n_obs = draw(st.integers(1, 5))
    prior = dist_from_weights(
        draw(
            st.lists(st.integers(0, 9), min_size=n_models, max_size=n_models).filter(
                lambda w: sum(w) > 0
            )
        )
    )
    columns = []
    for _ in range(n_models):
        weights = draw(
            st.lists(st.integers(0, 9), min_size=n_obs, max_size=n_obs).filter(
                lambda w: sum(w) > 0
            )
        )
        columns.append(dist_from_weights(weights))
    rows = [[columns[j][i] for j in range(n_models)] for i in range(n_obs)]
    model_labels = [f"M{i}" for i in range(n_models)]
    observation_labels = [f"x{i}" for i in range(n_obs)]
    return Scenario(
        name="generated",
        model_space=ModelSpace(prior=Distribution(model_labels, prior)),
        observation_model=ObservationModel(
            observation_labels=observation_labels,
            model_labels=model_labels,
            likelihood=rows,
        ),
    )


def possible_observations(scenario):
    table = enumerate_joint(scenario)
    return table, [x for x in table.observation_labels if table.evidence(x) > 0]


class TestConversionProperties:
    @given(st.floats(min_value=1e-300, max_value=1.0, allow_nan=False))
    def test_info_roundtrip(self, p):
        assert prob_from_info(info_content(p)) == pytest.approx(p, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
    def test_bits_roundtrip(self, bits):
        assert info_content(prob_from_info(bits)) == pytest.approx(bits, abs=1e-9)

    @given(
        st.fractions(min_value=0, max_value=1).filter(lambda f: f > 0),
        st.fractions(min_value=0, max_value=1).filter(lambda f: f > 0),
    )
    def test_monotone_decreasing(self, p, q):
        assume(p < q)
        assert info_content(p) > info_content(q) or p == q

    @given(st.fractions(min_value=0, max_value=1))
    def test_never_nan(self, p):
        assert not math.isnan(info_content(p))

    @given(weight_lists)
    def test_entropy_bounds(self, weights):
        probs = dist_from_weights(weights)
        d = Distribution([f"e{i}" for i in range(len(probs))], probs)
        h = entropy(d)
        assert -1e-12 <= h <= math.log2(len(probs)) + 1e-12


class TestDistributionProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6))
    def test_float_normalization_accepted(self, raw):
        total = sum(raw)
        probs = [x / total for x in raw]
        labels = [f"e{i}" for i in range(len(probs))]
        Distribution(labels, probs)

    @given(weight_lists)
    def test_exact_sums_accepted(self, weights):
        probs = dist_from_weights(weights)
        Distribution([f"e{i}" for i in range(len(probs))], probs)

    @given(st.floats(min_value=1e-6, max_value=0.1))
    def test_off_by_epsilon_rejected(self, epsilon):
        with pytest.raises(InvariantViolation):
            Distribution(("a", "b"), (0.5, 0.5 + epsilon))


class TestUpdateProperties:
    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_info_form_posterior_matches_oracle(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        table, xs = possible_observations(scenario)
        for x in xs:
            metrics = oracle_metrics(table, x)
            for theta in om.model_labels:
                gap = bits_deviation(
                    posterior_prob_info_form(ms, om, x, theta),
                    float(metrics.posterior[theta]),
                )
                assert gap <= 1e-9

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_posterior_identity_is_float_exact(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            for theta in om.model_labels:
                lhs = posterior_info(ms, om, x, theta)
                rhs = info_content(ms.prior_of(theta)) - tic(ms, om, x, theta)
                assert lhs == rhs or (math.isnan(lhs) and math.isnan(rhs))

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_local_transfer_entropy_equals_tic(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            for theta in om.model_labels:
                if ms.prior_of(theta) == 0:
                    continue
                assert bits_deviation(
                    local_transfer_entropy(ms, om, x, theta), tic(ms, om, x, theta)
                ) <= 1e-9

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_bayes_factor_bridge(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            for t1 in om.model_labels:
                for t2 in om.model_labels:
                    lik1 = om.likelihood_of(x, t1)
                    lik2 = om.likelihood_of(x, t2)
                    if lik1 == 0 and lik2 == 0:
                        continue
                    log_k = log2_bayes_factor(om, x, t1, t2)
                    tic1 = tic(ms, om, x, t1)
                    tic2 = tic(ms, om, x, t2)
                    if math.isinf(log_k):
                        assert tic1 - tic2 == log_k
                    else:
                        assert abs(log_k - (tic1 - tic2)) <= 1e-12

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_sign_tracks_posterior_direction(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            for entry in transfer_report(ms, om, x).entries:
                if entry.tic is None:
                    continue
                prior = float(entry.prior_prob)
                if entry.tic > 1e-9:
                    assert entry.posterior_prob > prior - 1e-12
                elif entry.tic < -1e-9:
                    assert entry.posterior_prob < prior + 1e-12

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_posterior_probs_sum_to_one(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            report = transfer_report(ms, om, x)
            assert sum(e.posterior_prob for e in report.entries) == pytest.approx(
                1.0, abs=1e-9
            )


class TestAggregateProperties:
    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_kl_nonnegative_up_to_noise(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            assert kl_expected_tic(ms, om, x) >= -1e-9
            assert build_report(scenario, x).kl_bits >= 0.0

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_mi_nonnegative_and_bounded(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        result = mutual_information(ms, om)
        assert result >= -1e-9
        assert result <= entropy(ms.prior) + 1e-9


class TestFileFormatProperties:
    @given(rational_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_exact(self, scenario):
        text = scenario_to_json_text(scenario)
        again = scenario_from_json_text(text)
        assert again == scenario
