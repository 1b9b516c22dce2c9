"""KL divergence and mutual information via TIC expectations."""

import math
import random
from fractions import Fraction

import pytest

from bayesbits import (
    Distribution,
    ModelSpace,
    ObservationModel,
    Scenario,
    kl_classical,
    kl_expected_tic,
    mutual_information,
    mutual_information_classical,
    save_scenario,
    transfer_report,
)
from bayesbits import cli
from bayesbits.engine import marginals
from bayesbits.report import build_report
from random_agreement_sweep import random_scenario

LOG2_3 = 1.584962500721156


def parts(scenario):
    return scenario.model_space, scenario.observation_model


class TestKl:
    def test_traditional_two_thirds(self, traditional):
        ms, om = parts(traditional)
        assert kl_expected_tic(ms, om, "Monty_B") == pytest.approx(2 / 3, abs=1e-9)
        assert kl_classical(ms, om, "Monty_B") == pytest.approx(2 / 3, abs=1e-9)

    def test_biased_monty_c(self, biased):
        ms, om = parts(biased)
        assert kl_expected_tic(ms, om, "Monty_C") == pytest.approx(
            0.3490361500921235, abs=1e-9
        )
        assert kl_classical(ms, om, "Monty_C") == pytest.approx(
            0.3490361500921235, abs=1e-9
        )

    def test_biased_monty_b(self, biased):
        ms, om = parts(biased)
        assert kl_expected_tic(ms, om, "Monty_B") == pytest.approx(
            0.6630344058337938, abs=1e-9
        )

    def test_forgetful_goat_reveal(self, forgetful):
        ms, om = parts(forgetful)
        assert kl_expected_tic(ms, om, "Monty_B") == pytest.approx(
            LOG2_3 - 1.0, abs=1e-9
        )

    def test_both_paths_agree(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            for x in om.observation_labels:
                assert kl_expected_tic(ms, om, x) == pytest.approx(
                    kl_classical(ms, om, x), abs=1e-9
                )

    def test_positive_despite_negative_term(self, biased):
        # Monty_C misleads about A, yet the expectation stays positive
        ms, om = parts(biased)
        assert transfer_report(ms, om, "Monty_C").entry_for("A").tic < 0
        assert kl_expected_tic(ms, om, "Monty_C") > 0

    def test_refuted_model_contributes_exactly_zero(self, traditional):
        ms, om = parts(traditional)
        u = transfer_report(ms, om, "Monty_B")
        b = u.models.index("B")
        assert u.posteriors[b] == 0
        assert u.tics[b] == -math.inf
        without_b = sum(float(w) * t for w, t in zip(u.posteriors, u.tics) if w != 0)
        assert kl_expected_tic(ms, om, "Monty_B") == without_b

    def test_kl_is_the_posterior_weighted_tic_sum(self):
        # KL sums posteriors[j] * tics[j] over the nonzero weights, in model order
        rng = random.Random(20261019)
        for _ in range(100):
            scenario = random_scenario(rng, max_models=6, max_observations=6)
            for u in marginals(*parts(scenario)):
                if u is None:
                    continue
                expected = sum(float(w) * t for w, t in zip(u.posteriors, u.tics) if w != 0)
                assert kl_expected_tic(*parts(scenario), u.observation) == expected

    def test_value_is_finite(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            for x in om.observation_labels:
                assert math.isfinite(kl_expected_tic(ms, om, x))

    def test_clamped_floors_at_zero(self, tmp_path, capsys):
        # A float channel uninformative up to one float step: C's likelihood
        # of x is 2**-56 below 0.1. KL and MI round a hair below 0 on both
        # paths, and the CLI displays them clamped at 0.
        ms = ModelSpace(prior=Distribution(("A", "B", "C"), (0.2, 0.4, 0.4)))
        om = ObservationModel(("x", "y"), ms.labels, [[0.1, 0.1, 0.1 - 2**-56], [0.9] * 3])
        scenario = Scenario("uninformative", ms, om)
        assert kl_expected_tic(ms, om, "x") < 0 and mutual_information(ms, om) < 0
        assert kl_classical(ms, om, "x") < 0 and mutual_information_classical(ms, om) < 0
        doc = build_report(scenario, "x")
        assert (doc.kl_bits, doc.mi_bits) == (0.0, 0.0)
        path = str(tmp_path / "uninformative.json")
        save_scenario(scenario, path)
        assert cli.main(["kl", path, "--observe", "x"]) == 0
        assert "kl_expected_tic_bits: 0.000000\n" in capsys.readouterr().out
        assert cli.main(["mi", path]) == 0
        assert "mi_expected_tic_bits: 0.000000\n" in capsys.readouterr().out

    def test_nonnegative_up_to_noise(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            for x in om.observation_labels:
                assert kl_expected_tic(ms, om, x) >= -1e-9

    def test_identical_posterior_gives_zero(self):
        # an uninformative observation moves nothing
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1, 2), Fraction(1, 2))))
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
        )
        assert kl_expected_tic(ms, om, "x") == 0.0
        assert kl_classical(ms, om, "x") == 0.0


class TestMutualInformation:
    def test_traditional_two_thirds(self, traditional):
        ms, om = parts(traditional)
        assert mutual_information(ms, om) == pytest.approx(2 / 3, abs=1e-9)
        assert mutual_information_classical(ms, om) == pytest.approx(2 / 3, abs=1e-9)

    def test_biased(self, biased):
        ms, om = parts(biased)
        assert mutual_information(ms, om) == pytest.approx(
            0.4798687566511528, abs=1e-9
        )
        assert mutual_information_classical(ms, om) == pytest.approx(
            0.4798687566511528, abs=1e-9
        )

    def test_forgetful(self, forgetful):
        # car reveals carry log2(3) bits each, goat reveals log2(3) - 1
        ms, om = parts(forgetful)
        expected = LOG2_3 - 2 / 3
        assert mutual_information(ms, om) == pytest.approx(expected, abs=1e-9)
        assert mutual_information_classical(ms, om) == pytest.approx(expected, abs=1e-9)

    def test_is_evidence_weighted_kl(self, biased):
        ms, om = parts(biased)
        manual = sum(
            float(u.evidence) * kl_expected_tic(ms, om, u.observation)
            for u in marginals(ms, om)
            if u is not None
        )
        assert mutual_information(ms, om) == pytest.approx(manual, abs=0.0)

    def test_independent_channel_has_zero_mi(self):
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1, 3), Fraction(2, 3))))
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(1, 4), Fraction(1, 4)], [Fraction(3, 4), Fraction(3, 4)]],
        )
        assert mutual_information(ms, om) == 0.0
        assert mutual_information_classical(ms, om) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            assert mutual_information(ms, om) >= -1e-9

    def test_bounded_by_prior_entropy(self, traditional, biased, forgetful):
        from bayesbits.core import entropy

        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            assert mutual_information(ms, om) <= entropy(ms.prior) + 1e-9

    def test_zero_evidence_observation_skipped(self):
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1), Fraction(0))))
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
        )
        assert [u is None for u in marginals(ms, om)] == [False, True]
        assert mutual_information(ms, om) == 0.0
