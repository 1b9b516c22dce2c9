"""Information-space Bayes updates: TIC, posteriors, Bayes factors."""

import math
from fractions import Fraction

import pytest

from bayesbits import (
    Distribution,
    ModelSpace,
    ObservationModel,
    evidence,
    local_transfer_entropy,
    posterior_prob_info_form,
    tic,
    transfer_report,
)
from bayesbits.core import info_content
from bayesbits.engine import (
    SignClass,
    bayes_factor,
    classify_tic,
    log2_bayes_factor,
    posterior_info,
    posterior_prob_oracle,
)
from bayesbits.errors import (
    ImpossibleObservationError,
    InvariantViolation,
    UndefinedLogError,
    UnknownLabelError,
    ZeroLikelihoodRatioError,
)

LOG2_3 = 1.584962500721156


def parts(scenario):
    return scenario.model_space, scenario.observation_model


class TestObservationModel:
    def test_column_must_sum_to_one(self):
        with pytest.raises(InvariantViolation) as exc:
            ObservationModel(
                observation_labels=("x", "y"),
                model_labels=("A", "B"),
                likelihood=[[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(5, 12)]],
            )
        assert "'B'" in str(exc.value)
        assert "11/12" in str(exc.value)

    def test_float_column_tolerance(self):
        om = ObservationModel(
            observation_labels=("x", "y"),
            model_labels=("A",),
            likelihood=[[0.3], [0.7 + 1e-12]],
        )
        assert not om.is_exact

    def test_float_column_beyond_tolerance(self):
        with pytest.raises(InvariantViolation):
            ObservationModel(
                observation_labels=("x", "y"),
                model_labels=("A",),
                likelihood=[[0.3], [0.8]],
            )

    def test_row_count_mismatch(self):
        with pytest.raises(InvariantViolation):
            ObservationModel(
                observation_labels=("x", "y"),
                model_labels=("A",),
                likelihood=[[Fraction(1)]],
            )

    def test_row_width_mismatch(self):
        with pytest.raises(InvariantViolation):
            ObservationModel(
                observation_labels=("x",),
                model_labels=("A", "B"),
                likelihood=[[Fraction(1)]],
            )

    def test_duplicate_observation_labels(self):
        with pytest.raises(InvariantViolation):
            ObservationModel(
                observation_labels=("x", "x"),
                model_labels=("A",),
                likelihood=[[Fraction(1, 2)], [Fraction(1, 2)]],
            )

    def test_likelihood_of_unknown_labels(self):
        om = ObservationModel(("x",), ("A",), [[Fraction(1)]])
        with pytest.raises(UnknownLabelError):
            om.likelihood_of("zzz", "A")
        with pytest.raises(UnknownLabelError):
            om.likelihood_of("x", "zzz")


class TestEvidence:
    def test_traditional(self, traditional):
        ms, om = parts(traditional)
        assert evidence(ms, om, "Monty_B") == Fraction(1, 2)

    def test_biased(self, biased):
        ms, om = parts(biased)
        assert evidence(ms, om, "Monty_C") == Fraction(7, 12)
        assert evidence(ms, om, "Monty_B") == Fraction(5, 12)

    def test_forgetful(self, forgetful):
        ms, om = parts(forgetful)
        assert evidence(ms, om, "Monty_B") == Fraction(1, 3)
        assert evidence(ms, om, "Monty_B_car") == Fraction(1, 6)

    def test_exact_stays_exact(self, biased):
        ms, om = parts(biased)
        assert isinstance(evidence(ms, om, "Monty_C"), Fraction)

    def test_pairing_mismatch(self, traditional):
        ms = ModelSpace(prior=Distribution(("X", "Y", "Z"), [Fraction(1, 3)] * 3))
        with pytest.raises(InvariantViolation):
            evidence(ms, traditional.observation_model, "Monty_B")


class TestTic:
    def test_traditional_neutral_and_full_bit(self, traditional):
        ms, om = parts(traditional)
        assert tic(ms, om, "Monty_B", "A") == 0.0
        assert tic(ms, om, "Monty_B", "C") == 1.0
        assert tic(ms, om, "Monty_B", "B") == -math.inf

    def test_biased_negative_transfer(self, biased):
        ms, om = parts(biased)
        t = tic(ms, om, "Monty_C", "A")
        assert t == pytest.approx(-0.22239242133644793, abs=1e-12)
        assert t == pytest.approx(math.log2(Fraction(12, 7)) - 1.0, abs=1e-12)

    def test_forgetful_symmetric_gain(self, forgetful):
        ms, om = parts(forgetful)
        expected = LOG2_3 - 1.0
        assert tic(ms, om, "Monty_B", "A") == pytest.approx(expected, abs=1e-12)
        assert tic(ms, om, "Monty_B", "C") == pytest.approx(expected, abs=1e-12)

    def test_impossible_observation(self):
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1), Fraction(0))))
        om = ObservationModel(
            ("x", "y"), ("A", "B"), [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        )
        with pytest.raises(ImpossibleObservationError):
            tic(ms, om, "y", "A")

    def test_never_nan(self, biased):
        ms, om = parts(biased)
        for x in om.observation_labels:
            for theta in om.model_labels:
                assert not math.isnan(tic(ms, om, x, theta))


class TestClassifyTic:
    def test_three_way(self):
        assert classify_tic(0.5) is SignClass.INFORMS
        assert classify_tic(-0.5) is SignClass.MISLEADS
        assert classify_tic(0.0) is SignClass.NEUTRAL

    def test_neutral_band(self):
        assert classify_tic(5e-13) is SignClass.NEUTRAL
        assert classify_tic(-5e-13) is SignClass.NEUTRAL
        assert classify_tic(5e-12) is SignClass.INFORMS

    def test_infinite(self):
        assert classify_tic(math.inf) is SignClass.INFORMS
        assert classify_tic(-math.inf) is SignClass.MISLEADS

    def test_nan_rejected(self):
        with pytest.raises(InvariantViolation):
            classify_tic(float("nan"))


class TestExactSign:
    """Exact inputs get their sign class from an exact comparison, not the TIC band."""

    EPS = Fraction(1, 10**14)

    def near_neutral(self, exact: bool):
        half = Fraction(1, 2)
        up, down = half + self.EPS, half - self.EPS
        if not exact:
            half, up, down = float(half), float(up), float(down)
        ms = ModelSpace(prior=Distribution(("A", "B"), (half, half)))
        om = ObservationModel(("x", "y"), ("A", "B"), [[up, down], [down, up]])
        return ms, om

    def test_exact_tiny_tic_is_signed(self):
        ms, om = self.near_neutral(exact=True)
        report = transfer_report(ms, om, "x")
        assert report.evidence == Fraction(1, 2)
        # |TIC| is ~2.9e-14 bits, inside the float neutral band
        assert report.entry_for("A").tic > 0
        assert classify_tic(report.entry_for("A").tic) is SignClass.NEUTRAL
        assert report.entry_for("A").sign_class is SignClass.INFORMS
        assert report.entry_for("B").sign_class is SignClass.MISLEADS

    def test_float_tiny_tic_stays_neutral(self):
        ms, om = self.near_neutral(exact=False)
        report = transfer_report(ms, om, "x")
        assert report.entry_for("A").sign_class is SignClass.NEUTRAL
        assert report.entry_for("B").sign_class is SignClass.NEUTRAL

    def test_exact_equality_is_neutral(self, traditional):
        # P(Monty_B | A) = 1/2 = P(Monty_B)
        ms, om = parts(traditional)
        assert transfer_report(ms, om, "Monty_B").entry_for("A").sign_class is SignClass.NEUTRAL


class TestPosterior:
    def test_info_identity_is_float_exact(self, biased):
        # posterior_info must equal prior_info - tic bit for bit
        ms, om = parts(biased)
        for x in om.observation_labels:
            for theta in om.model_labels:
                lhs = posterior_info(ms, om, x, theta)
                rhs = info_content(ms.prior_of(theta)) - tic(ms, om, x, theta)
                assert lhs == rhs

    def test_biased_posterior_info_value(self, biased):
        ms, om = parts(biased)
        assert posterior_info(ms, om, "Monty_C", "A") == pytest.approx(
            1.2223924213364479, abs=1e-12
        )

    def test_info_form_matches_oracle_form(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            for x in om.observation_labels:
                for theta in om.model_labels:
                    via_info = posterior_prob_info_form(ms, om, x, theta)
                    via_bayes = float(posterior_prob_oracle(ms, om, x, theta))
                    assert via_info == pytest.approx(via_bayes, abs=1e-9)

    def test_traditional_switch_doubles(self, traditional):
        ms, om = parts(traditional)
        assert posterior_prob_oracle(ms, om, "Monty_B", "A") == Fraction(1, 3)
        assert posterior_prob_oracle(ms, om, "Monty_B", "C") == Fraction(2, 3)

    def test_refuted_model_lands_at_zero(self, traditional):
        ms, om = parts(traditional)
        assert posterior_info(ms, om, "Monty_B", "B") == math.inf
        assert posterior_prob_info_form(ms, om, "Monty_B", "B") == 0.0


class TestTransferReport:
    def test_entries_align_with_standalone_functions(self, biased):
        ms, om = parts(biased)
        report = transfer_report(ms, om, "Monty_C")
        for entry in report.entries:
            assert entry.tic == tic(ms, om, "Monty_C", entry.model)
            assert entry.posterior_info == posterior_info(ms, om, "Monty_C", entry.model)

    def test_sign_classes(self, biased):
        ms, om = parts(biased)
        report = transfer_report(ms, om, "Monty_C")
        assert report.entry_for("A").sign_class is SignClass.MISLEADS
        assert report.entry_for("B").sign_class is SignClass.INFORMS
        assert report.entry_for("C").sign_class is SignClass.MISLEADS

    def test_evidence_recorded(self, biased):
        ms, om = parts(biased)
        assert transfer_report(ms, om, "Monty_C").evidence == Fraction(7, 12)

    def test_zero_prior_model_has_undefined_transfer(self):
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1), Fraction(0))))
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
        )
        entry = transfer_report(ms, om, "x").entry_for("B")
        assert entry.tic is None
        assert entry.sign_class is None
        assert entry.posterior_info == math.inf
        assert entry.posterior_prob == 0.0

    def test_unknown_entry(self, traditional):
        ms, om = parts(traditional)
        with pytest.raises(UnknownLabelError):
            transfer_report(ms, om, "Monty_B").entry_for("zzz")

    def test_posterior_probs_sum_to_one(self, forgetful):
        ms, om = parts(forgetful)
        report = transfer_report(ms, om, "Monty_C")
        assert sum(e.posterior_prob for e in report.entries) == pytest.approx(1.0, abs=1e-9)


class TestBayesFactor:
    def test_ratio_and_log(self, biased):
        ms, om = parts(biased)
        bf = bayes_factor(om, "Monty_C", "B", "A")
        assert bf.ratio == Fraction(2)
        assert bf.log2 == 1.0

    def test_log_equals_tic_difference(self, biased):
        ms, om = parts(biased)
        lhs = log2_bayes_factor(om, "Monty_C", "B", "A")
        rhs = tic(ms, om, "Monty_C", "B") - tic(ms, om, "Monty_C", "A")
        assert abs(lhs - rhs) <= 1e-12

    def test_refuted_denominator_is_infinite_log(self, traditional):
        ms, om = parts(traditional)
        assert log2_bayes_factor(om, "Monty_B", "C", "B") == math.inf
        assert log2_bayes_factor(om, "Monty_B", "B", "C") == -math.inf

    def test_refuted_denominator_ratio_raises(self, traditional):
        ms, om = parts(traditional)
        with pytest.raises(ZeroLikelihoodRatioError):
            bayes_factor(om, "Monty_B", "C", "B")

    def test_zero_over_zero_raises(self):
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(1)]],
        )
        with pytest.raises(ZeroLikelihoodRatioError):
            log2_bayes_factor(om, "x", "A", "B")


class TestLocalTransferEntropy:
    def test_equals_tic(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = parts(scenario)
            for x in om.observation_labels:
                for theta in om.model_labels:
                    lte = local_transfer_entropy(ms, om, x, theta)
                    t = tic(ms, om, x, theta)
                    if math.isinf(t):
                        assert lte == t
                    else:
                        assert abs(lte - t) <= 1e-9

    def test_zero_prior_undefined(self):
        ms = ModelSpace(prior=Distribution(("A", "B"), (Fraction(1), Fraction(0))))
        om = ObservationModel(
            ("x", "y"),
            ("A", "B"),
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
        )
        with pytest.raises(UndefinedLogError):
            local_transfer_entropy(ms, om, "x", "B")
