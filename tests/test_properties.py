"""Property-based checks over randomized exact-rational scenarios."""

import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    mutual_information_classical,
    oracle_metrics,
    posterior_prob_info_form,
    tic,
    transfer_report,
)
from bayesbits.aggregates import kl_classical_and_entropy, kl_from_update
from bayesbits.core import entropy, info_content, prob_from_info
from bayesbits.engine import marginals, posterior_info
from bayesbits.errors import InvariantViolation
from bayesbits.oracle import scenario_metrics
from bayesbits.report import build_report
from bayesbits.scenario import load_scenario, scenario_from_json_text, scenario_to_json_text
from bayesbits.verify import max_deviation
from helpers import likelihood, same_bits, wide_36_bit, wide_coprime, wide_rational_scenario

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
    return table, [x for x, m in table.items() if m is not None]


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
                gap = max_deviation(
                    (posterior_prob_info_form(ms, om, x, theta),),
                    (float(metrics.posterior[theta]),),
                )
                assert gap <= 1e-9

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_posterior_identity_is_float_exact(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            for theta, prior_p in zip(om.model_labels, ms.prior.probs):
                lhs = posterior_info(ms, om, x, theta)
                rhs = info_content(prior_p) - tic(ms, om, x, theta)
                assert lhs == rhs or (math.isnan(lhs) and math.isnan(rhs))

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_local_transfer_entropy_equals_tic(self, scenario):
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            for theta, prior_p in zip(om.model_labels, ms.prior.probs):
                if prior_p == 0:
                    continue
                assert max_deviation(
                    (local_transfer_entropy(ms, om, x, theta),), (tic(ms, om, x, theta),)
                ) <= 1e-9

    @given(rational_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_bayes_factor_bridge(self, scenario):
        # log2 of the Bayes factor P(x|t1) / P(x|t2) is the TIC difference
        ms, om = scenario.model_space, scenario.observation_model
        _, xs = possible_observations(scenario)
        for x in xs:
            u = transfer_report(ms, om, x)
            lik_infos = u.likelihood_infos
            for j, theta in enumerate(om.model_labels):
                assert same_bits(lik_infos[j], info_content(likelihood(om, x, theta)))
            for t1, tic1 in enumerate(u.tics):
                for t2, tic2 in enumerate(u.tics):
                    if lik_infos[t1] == lik_infos[t2] == math.inf:  # both likelihoods 0
                        continue
                    log_k = lik_infos[t2] - lik_infos[t1]
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


def log2_reference(p: Fraction, paths: Counter) -> float:
    """log2 of a positive Fraction by plain Fraction arithmetic; counts the rare paths taken."""
    try:
        x = float(p)
    except OverflowError:
        x = 0.0
    if x == 1.0 and p != 1:
        paths["log1p"] += 1
    if x == 1.0:
        return math.log1p(float(p - 1)) / math.log(2)
    if x > 0.0:
        return math.log2(x)
    paths["out of float range"] += 1
    return math.log2(p.numerator) - math.log2(p.denominator)


def info_reference(p: Fraction, paths: Counter) -> float:
    if p == 0:
        return math.inf
    lg = log2_reference(p, paths)
    return 0.0 if lg == 0.0 else -lg


def check_integer_kernels(scenario) -> Counter:
    """The integer kernels of engine, aggregates and oracle against Fraction formulas, bit for bit.

    Returns how often the reference took each rare path.
    """
    paths: Counter = Counter()
    ms, om = scenario.model_space, scenario.observation_model
    prior = ms.prior.probs
    all_updates = tuple(marginals(ms, om))
    all_metrics = tuple(scenario_metrics(scenario))
    conditional = 0.0
    for row, u, m in zip(om.likelihood, all_updates, all_metrics):
        ev = sum((lik * p for lik, p in zip(row, prior)), Fraction(0))
        assert (u is None) == (m is None) == (ev == 0)
        if ev == 0:
            continue
        posteriors = [lik * p / ev for lik, p in zip(row, prior)]
        assert u.posteriors == tuple(posteriors)
        assert list(m.posterior.values()) == posteriors
        kl = kl_classical = entropy_x = 0.0
        for j, (lik, p, post) in enumerate(zip(row, prior, posteriors)):
            assert same_bits(u.posterior_floats[j], float(post))
            assert same_bits(m.posterior_floats[j], float(post))
            lik_info = info_reference(lik, paths)
            assert same_bits(u.likelihood_infos[j], lik_info)
            t = info_reference(ev, paths) - lik_info
            assert same_bits(u.tics[j], t)
            if p == 0:
                assert m.tic_bits[ms.labels[j]] is None
                continue
            if post == 0:
                assert u.log_odds_updates()[j] == m.tic_bits[ms.labels[j]] == -math.inf
                continue
            ratio = post / p
            assert same_bits(u.log_odds_updates()[j], log2_reference(ratio, paths))
            oracle_tic = math.log2(ratio.numerator) - math.log2(ratio.denominator)
            assert same_bits(m.tic_bits[ms.labels[j]], oracle_tic)
            post_info = info_reference(post, paths)
            kl += float(post) * t
            kl_classical += float(post) * (info_reference(p, paths) - post_info)
            entropy_x += float(post) * post_info
        assert same_bits(kl_from_update(u), kl)
        assert same_bits(kl_classical_and_entropy(u)[0], kl_classical)
        conditional += float(ev) * entropy_x
    prior_entropy = sum([float(p) * info_reference(p, paths) for p in prior if p != 0])
    assert same_bits(mutual_information_classical(ms, om), prior_entropy - conditional)
    return paths


class TestIntegerKernels:
    """Integer numerators and unreduced pairs give the bits of the Fraction route."""

    @given(st.randoms(use_true_random=False), st.sampled_from([wide_coprime, wide_36_bit]))
    @settings(max_examples=120, deadline=None)
    def test_wide_denominators(self, rng, denominators):
        check_integer_kernels(wide_rational_scenario(rng, denominators))

    @given(rational_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_small_denominators(self, scenario):
        check_integer_kernels(scenario)

    def test_values_within_2_53_of_one_and_out_of_float_range(self):
        # the committed edge scenario: a 1/3**700 prior, posteriors and
        # log-odds ratios that round to 1.0, posteriors that underflow
        edge = Path(__file__).resolve().parent / "golden" / "edge.json"
        paths = check_integer_kernels(load_scenario(edge))
        assert paths["log1p"] > 0 and paths["out of float range"] > 0

    def test_ratio_below_the_float_range(self):
        # P(x | M0) = 5**-500: M0's posterior and log-odds ratio on x
        # underflow, and the ratio's unreduced integer parts share a factor
        # 3, whose logs would differ from the reduced ratio's in the last bit
        prior = Distribution(["M0", "M1"], [Fraction(1, 3), Fraction(2, 3)])
        lik = Fraction(1, 5**500)
        om = ObservationModel(["x", "y"], prior.labels, [[lik, Fraction(1)], [1 - lik, Fraction(0)]])
        scenario = Scenario(name="tiny", model_space=ModelSpace(prior), observation_model=om)
        assert check_integer_kernels(scenario)["out of float range"] >= 2
