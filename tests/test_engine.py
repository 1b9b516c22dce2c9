"""Information-space Bayes updates: TIC, posteriors, Bayes factors as TIC differences."""

import math
from fractions import Fraction

import pytest

from bayesbits import (
    Distribution,
    evidence,
    local_transfer_entropy,
    posterior_prob_info_form,
    tic,
    transfer_report,
)
from bayesbits.core import info_content
from bayesbits.engine import (
    SignClass,
    posterior_info,
)
from bayesbits.errors import (
    DomainError,
    ImpossibleObservationError,
    InvariantViolation,
    UndefinedLogError,
    UnknownLabelError,
)
from bayesbits.scenario import ModelSpace, ObservationModel
from helpers import probability_types

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
        assert probability_types(om) == [float, float]

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

    def test_ints_and_strings_become_fractions(self):
        om = ObservationModel(("x", "y"), ("A", "B"), [["1/2", 1], ["1/2", 0]])
        assert om.likelihood == ((Fraction(1, 2), Fraction(1)), (Fraction(1, 2), Fraction(0)))
        assert all(type(p) is Fraction for row in om.likelihood for p in row)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (Fraction(3, 2), "probability 3/2 outside [0, 1]"),
            (-0.5, "probability -0.5 outside [0, 1]"),
            (True, "probability must be numeric, got True"),
        ],
    )
    def test_repeated_bad_value_raises_at_its_first_cell(self, bad, message):
        # One bad object in three cells, after a good cell; a later bad value
        # and a short row come after it in row-major order, so they do not raise.
        with pytest.raises(DomainError) as exc:
            ObservationModel(
                observation_labels=("x", "y"),
                model_labels=("A", "B", "C"),
                likelihood=[[Fraction(1, 2), bad, bad], [Fraction(5, 4), bad]],
            )
        assert type(exc.value) is DomainError
        assert str(exc.value) == message

    def test_likelihood_of_unknown_labels(self):
        ms = ModelSpace(prior=Distribution(("A",), (Fraction(1),)))
        om = ObservationModel(("x",), ("A",), [[Fraction(1)]])
        with pytest.raises(UnknownLabelError):
            tic(ms, om, "zzz", "A")
        with pytest.raises(UnknownLabelError):
            tic(ms, om, "x", "zzz")

    @pytest.mark.parametrize(
        "observations, models, likelihood",
        [
            pytest.param((), ("A",), [], id="no-observations"),
            pytest.param(("x",), (), [[]], id="no-models"),
        ],
    )
    def test_empty_rejected(self, observations, models, likelihood):
        with pytest.raises(InvariantViolation) as exc:
            ObservationModel(observations, models, likelihood)
        assert str(exc.value) == "observation model needs >= 1 observation and >= 1 model"


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


class TestExactSign:
    """Every sign class comes from comparing P(x | theta) with P(x) exactly, floats included."""

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
        # |TIC| is ~2.9e-14 bits
        assert 0 < report.entry_for("A").tic < 1e-12
        assert report.entry_for("A").sign_class is SignClass.INFORMS
        assert report.entry_for("B").sign_class is SignClass.MISLEADS

    def test_float_tiny_tic_is_signed(self):
        # each float is compared exactly, as the dyadic rational it is
        ms, om = self.near_neutral(exact=False)
        report = transfer_report(ms, om, "x")
        assert isinstance(report.evidence, float)
        assert 0 < report.entry_for("A").tic < 1e-12
        assert report.entry_for("A").sign_class is SignClass.INFORMS
        assert report.entry_for("B").sign_class is SignClass.MISLEADS

    def test_exact_equality_is_neutral(self, traditional):
        # P(Monty_B | A) = 1/2 = P(Monty_B)
        ms, om = parts(traditional)
        assert transfer_report(ms, om, "Monty_B").entry_for("A").sign_class is SignClass.NEUTRAL


class TestPosterior:
    def test_info_identity_is_float_exact(self, biased):
        # posterior_info must equal prior_info - tic bit for bit
        ms, om = parts(biased)
        for x in om.observation_labels:
            for theta, prior_p in zip(om.model_labels, ms.prior.probs):
                lhs = posterior_info(ms, om, x, theta)
                rhs = info_content(prior_p) - tic(ms, om, x, theta)
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
                u = transfer_report(ms, om, x)
                for theta, via_bayes in zip(om.model_labels, u.posteriors):
                    via_info = posterior_prob_info_form(ms, om, x, theta)
                    assert via_info == pytest.approx(float(via_bayes), abs=1e-9)

    def test_traditional_switch_doubles(self, traditional):
        ms, om = parts(traditional)
        posteriors = transfer_report(ms, om, "Monty_B").posteriors
        assert posteriors == (Fraction(1, 3), Fraction(0), Fraction(2, 3))

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
    """log2 of the Bayes factor P(x|theta1) / P(x|theta2) is the TIC difference."""

    def test_log_equals_tic_difference(self, biased):
        ms, om = parts(biased)
        u = transfer_report(ms, om, "Monty_C")
        a, b = u.models.index("A"), u.models.index("B")
        assert u.likelihood_infos[a] - u.likelihood_infos[b] == 1.0  # P(x|B) / P(x|A) = 2
        assert abs(1.0 - (u.tics[b] - u.tics[a])) <= 1e-12

    def test_refuted_denominator_is_infinite_log(self, traditional):
        ms, om = parts(traditional)
        u = transfer_report(ms, om, "Monty_B")
        b, c = u.models.index("B"), u.models.index("C")
        assert u.likelihood_infos[b] - u.likelihood_infos[c] == math.inf
        assert u.tics[c] - u.tics[b] == math.inf
        assert u.likelihood_infos[c] - u.likelihood_infos[b] == -math.inf
        assert u.tics[b] - u.tics[c] == -math.inf


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
