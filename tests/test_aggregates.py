"""KL divergence and mutual information via TIC expectations."""

import math
import random
from fractions import Fraction

import pytest

from bayesbits import (
    Distribution,
    ModelSpace,
    ObservationModel,
    kl_classical,
    kl_expected_tic,
    mutual_information,
    mutual_information_classical,
)
from bayesbits.engine import updates
from random_agreement_sweep import random_scenario

LOG2_3 = 1.584962500721156


def parts(scenario):
    return scenario.model_space, scenario.observation_model


class TestKl:
    def test_traditional_two_thirds(self, traditional):
        ms, om = parts(traditional)
        assert kl_expected_tic(ms, om, "Monty_B").value == pytest.approx(2 / 3, abs=1e-9)
        assert kl_classical(ms, om, "Monty_B") == pytest.approx(2 / 3, abs=1e-9)

    def test_biased_monty_c(self, biased):
        ms, om = parts(biased)
        assert kl_expected_tic(ms, om, "Monty_C").value == pytest.approx(
            0.3490361500921235, abs=1e-9
        )
        assert kl_classical(ms, om, "Monty_C") == pytest.approx(
            0.3490361500921235, abs=1e-9
        )

    def test_biased_monty_b(self, biased):
        ms, om = parts(biased)
        assert kl_expected_tic(ms, om, "Monty_B").value == pytest.approx(
            0.6630344058337938, abs=1e-9
        )

    def test_forgetful_goat_reveal(self, forgetful):
        ms, om = parts(forgetful)
        assert kl_expected_tic(ms, om, "Monty_B").value == pytest.approx(
            LOG2_3 - 1.0, abs=1e-9
        )

    def test_both_paths_agree(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            for x in om.observation_labels:
                assert kl_expected_tic(ms, om, x).value == pytest.approx(
                    kl_classical(ms, om, x), abs=1e-9
                )

    def test_positive_despite_negative_term(self, biased):
        # Monty_C misleads about A, yet the expectation stays positive
        ms, om = parts(biased)
        result = kl_expected_tic(ms, om, "Monty_C")
        term_a = next(t for t in result.terms if t.model == "A")
        assert term_a.tic < 0
        assert result.value > 0

    def test_refuted_model_contributes_exactly_zero(self, traditional):
        ms, om = parts(traditional)
        result = kl_expected_tic(ms, om, "Monty_B")
        term_b = next(t for t in result.terms if t.model == "B")
        assert term_b.weight == 0
        assert term_b.tic == -math.inf
        without_b = sum(
            float(t.weight) * t.tic for t in result.terms if t.weight != 0
        )
        assert result.value == without_b

    def test_terms_are_the_update_triples(self):
        # terms are built from the update on first access, then kept
        rng = random.Random(20261019)
        for _ in range(100):
            scenario = random_scenario(rng, max_models=6, max_observations=6)
            for u in updates(*parts(scenario)):
                if u is None:
                    continue
                result = kl_expected_tic(*parts(scenario), u.observation)
                assert [(t.model, t.weight, t.tic) for t in result.terms] == list(
                    zip(u.models, u.posteriors, u.tics)
                )
                assert result.terms is result.terms

    def test_value_is_finite(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            for x in om.observation_labels:
                assert math.isfinite(kl_expected_tic(ms, om, x).value)

    def test_clamped_floors_at_zero(self, traditional):
        ms, om = parts(traditional)
        result = kl_expected_tic(ms, om, "Monty_B")
        assert result.clamped == max(0.0, result.value)

    def test_nonnegative_up_to_noise(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            for x in om.observation_labels:
                assert kl_expected_tic(ms, om, x).value >= -1e-9

    def test_identical_posterior_gives_zero(self):
        # an uninformative observation moves nothing
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1, 2), Fraction(1, 2))))
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
        )
        assert kl_expected_tic(ms, om, "x").value == 0.0
        assert kl_classical(ms, om, "x") == 0.0


class TestMutualInformation:
    def test_traditional_two_thirds(self, traditional):
        ms, om = parts(traditional)
        assert mutual_information(ms, om).value == pytest.approx(2 / 3, abs=1e-9)
        assert mutual_information_classical(ms, om) == pytest.approx(2 / 3, abs=1e-9)

    def test_biased(self, biased):
        ms, om = parts(biased)
        assert mutual_information(ms, om).value == pytest.approx(
            0.4798687566511528, abs=1e-9
        )
        assert mutual_information_classical(ms, om) == pytest.approx(
            0.4798687566511528, abs=1e-9
        )

    def test_forgetful(self, forgetful):
        # car reveals carry log2(3) bits each, goat reveals log2(3) - 1
        ms, om = parts(forgetful)
        expected = LOG2_3 - 2 / 3
        assert mutual_information(ms, om).value == pytest.approx(expected, abs=1e-9)
        assert mutual_information_classical(ms, om) == pytest.approx(expected, abs=1e-9)

    def test_is_evidence_weighted_kl(self, biased):
        ms, om = parts(biased)
        result = mutual_information(ms, om)
        manual = sum(
            float(term.evidence) * term.kl.value for term in result.per_observation
        )
        assert result.value == pytest.approx(manual, abs=0.0)

    def test_independent_channel_has_zero_mi(self):
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1, 3), Fraction(2, 3))))
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(1, 4), Fraction(1, 4)], [Fraction(3, 4), Fraction(3, 4)]],
        )
        assert mutual_information(ms, om).value == 0.0
        assert mutual_information_classical(ms, om) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            assert mutual_information(ms, om).value >= -1e-9

    def test_bounded_by_prior_entropy(self, traditional, biased, forgetful):
        from bayesbits.core import entropy

        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            assert mutual_information(ms, om).value <= entropy(ms.prior) + 1e-9

    def test_zero_evidence_observation_skipped(self):
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1), Fraction(0))))
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
        )
        result = mutual_information(ms, om)
        assert [t.observation for t in result.per_observation] == ["x"]
        assert result.value == 0.0
