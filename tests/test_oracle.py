"""Exact-rational joint enumeration and its derived metrics."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bayesbits import (
    Distribution,
    ModelSpace,
    ObservationModel,
    Scenario,
    enumerate_joint,
    kl_expected_tic,
    mutual_information,
    oracle_metrics,
    oracle_mi,
    posterior_prob_info_form,
    tic,
)
from bayesbits.errors import ExactnessError, ImpossibleObservationError
from bayesbits.oracle import observation_metrics, oracle_mi_from_metrics
from bayesbits.verify import bits_deviation
from helpers import same_bits, wide_36_bit, wide_coprime, wide_rational_scenario
from random_agreement_sweep import random_scenario


class TestEnumerateJoint:
    def test_cells_total_one(self, traditional):
        table = enumerate_joint(traditional)
        om = traditional.observation_model
        cells = [table.joint(theta, x) for theta in om.model_labels for x in om.observation_labels]
        assert sum(cells, Fraction(0)) == 1

    def test_rows_are_model_major_and_total_one(self):
        # the table keeps the scenario's label order; its cells, walked
        # model-major, total exactly one
        rng = random.Random(20261018)
        for _ in range(100):
            scenario = random_scenario(rng, max_models=6, max_observations=6)
            om = scenario.observation_model
            table = enumerate_joint(scenario)
            assert table.model_labels == tuple(om.model_labels)
            assert table.observation_labels == tuple(om.observation_labels)
            cells = [table.joint(theta, x) for theta in om.model_labels for x in om.observation_labels]
            assert sum(cells, Fraction(0)) == 1

    def test_joint_values(self, traditional):
        table = enumerate_joint(traditional)
        assert table.joint("A", "Monty_B") == Fraction(1, 6)
        assert table.joint("C", "Monty_B") == Fraction(1, 3)
        assert table.joint("B", "Monty_B") == Fraction(0)

    def test_evidence_marginal(self, biased):
        table = enumerate_joint(biased)
        assert table.evidence("Monty_C") == Fraction(7, 12)
        assert table.evidence("Monty_B") == Fraction(5, 12)

    def test_rejects_floats(self):
        s = Scenario(
            name="floaty",
            model_space=ModelSpace(prior=Distribution(("A", "B"), (0.5, 0.5))),
            observation_model=ObservationModel(
                ("x",), ("A", "B"), [[Fraction(1), Fraction(1)]]
            ),
        )
        with pytest.raises(ExactnessError) as exc:
            enumerate_joint(s)
        assert "exact rationals" in str(exc.value)

    def test_unknown_lookups(self, traditional):
        table = enumerate_joint(traditional)
        with pytest.raises(KeyError):
            table.joint("A", "zzz")
        with pytest.raises(KeyError):
            table.evidence("zzz")


class TestOracleMetrics:
    def test_traditional(self, traditional):
        table = enumerate_joint(traditional)
        m = oracle_metrics(table, "Monty_B")
        assert m.evidence == Fraction(1, 2)
        assert m.posterior == {
            "A": Fraction(1, 3),
            "B": Fraction(0),
            "C": Fraction(2, 3),
        }
        assert m.tic_bits["A"] == 0.0
        assert m.tic_bits["B"] == -math.inf
        assert m.tic_bits["C"] == pytest.approx(1.0, abs=1e-12)
        assert m.kl_bits == pytest.approx(2 / 3, abs=1e-12)

    def test_biased(self, biased):
        table = enumerate_joint(biased)
        m = oracle_metrics(table, "Monty_C")
        assert m.posterior["A"] == Fraction(3, 7)
        assert m.posterior["B"] == Fraction(4, 7)
        assert m.tic_bits["A"] == pytest.approx(-0.22239242133644793, abs=1e-12)
        assert m.kl_bits == pytest.approx(0.3490361500921235, abs=1e-12)

    def test_forgetful_car_reveal(self, forgetful):
        table = enumerate_joint(forgetful)
        m = oracle_metrics(table, "Monty_B_car")
        assert m.posterior == {
            "A": Fraction(0),
            "B": Fraction(1),
            "C": Fraction(0),
        }
        assert m.kl_bits == pytest.approx(1.584962500721156, abs=1e-12)

    def test_zero_prior_model_has_undefined_tic(self):
        s = Scenario(
            name="zp",
            model_space=ModelSpace(
                prior=Distribution(("A", "B"), (Fraction(1), Fraction(0)))
            ),
            observation_model=ObservationModel(
                ("x", "y"),
                ("A", "B"),
                [
                    [Fraction(1, 2), Fraction(1, 2)],
                    [Fraction(1, 2), Fraction(1, 2)],
                ],
            ),
        )
        m = oracle_metrics(enumerate_joint(s), "x")
        assert m.tic_bits["B"] is None
        assert m.posterior["B"] == Fraction(0)

    def test_impossible_observation(self):
        s = Scenario(
            name="imp",
            model_space=ModelSpace(
                prior=Distribution(("A", "B"), (Fraction(1), Fraction(0)))
            ),
            observation_model=ObservationModel(
                ("x", "y"),
                ("A", "B"),
                [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
            ),
        )
        with pytest.raises(ImpossibleObservationError):
            oracle_metrics(enumerate_joint(s), "y")

    def test_posteriors_are_exact_and_sum_to_one(self, biased):
        table = enumerate_joint(biased)
        for x in table.observation_labels:
            m = oracle_metrics(table, x)
            assert all(isinstance(p, Fraction) for p in m.posterior.values())
            assert sum(m.posterior.values()) == 1


class TestOracleMi:
    def test_traditional(self, traditional):
        assert oracle_mi(enumerate_joint(traditional)) == pytest.approx(2 / 3, abs=1e-12)

    def test_biased(self, biased):
        assert oracle_mi(enumerate_joint(biased)) == pytest.approx(
            0.4798687566511528, abs=1e-12
        )

    def test_forgetful(self, forgetful):
        assert oracle_mi(enumerate_joint(forgetful)) == pytest.approx(
            1.584962500721156 - 2 / 3, abs=1e-12
        )


class TestEngineAgreement:
    """The two computation paths share no code; their agreement is the point."""

    def test_classic_scenarios(self, traditional, biased, forgetful):
        for scenario in (traditional, biased, forgetful):
            ms, om = scenario.model_space, scenario.observation_model
            table = enumerate_joint(scenario)
            for x in om.observation_labels:
                m = oracle_metrics(table, x)
                for theta in om.model_labels:
                    assert bits_deviation(
                        posterior_prob_info_form(ms, om, x, theta),
                        float(m.posterior[theta]),
                    ) <= 1e-9
                    if m.tic_bits[theta] is not None:
                        assert bits_deviation(tic(ms, om, x, theta), m.tic_bits[theta]) <= 1e-9
                assert bits_deviation(kl_expected_tic(ms, om, x), m.kl_bits) <= 1e-9
            assert bits_deviation(
                mutual_information(ms, om), oracle_mi(table)
            ) <= 1e-9

    def test_random_scenarios(self):
        rng = random.Random(20250819)
        for _ in range(50):
            scenario = random_scenario(rng, max_models=5, max_observations=5)
            ms, om = scenario.model_space, scenario.observation_model
            table = enumerate_joint(scenario)
            for x in om.observation_labels:
                if table.evidence(x) == 0:
                    continue
                m = oracle_metrics(table, x)
                for theta in om.model_labels:
                    assert bits_deviation(
                        posterior_prob_info_form(ms, om, x, theta),
                        float(m.posterior[theta]),
                    ) <= 1e-9


class TestKernels:
    """The oracle's integer kernels against Fraction arithmetic, bit for bit."""

    @staticmethod
    def scenarios():
        rng = random.Random(20261018)
        for _ in range(60):
            yield random_scenario(rng, max_models=6, max_observations=6)
        for denominators in (wide_36_bit, wide_coprime):
            for _ in range(30):
                yield wide_rational_scenario(rng, denominators)

    def test_metrics_match_fraction_formulas(self):
        for scenario in self.scenarios():
            table = enumerate_joint(scenario)
            for x in table.observation_labels:
                ev = sum((table.joint(theta, x) for theta in table.model_labels), Fraction(0))
                assert table.evidence(x) == ev
                if ev == 0:
                    continue
                m = oracle_metrics(table, x)
                assert m.evidence == ev
                kl = 0.0
                for theta in table.model_labels:
                    joint, prior = table.joint(theta, x), table.prior_of(theta)
                    post = m.posterior[theta]
                    assert isinstance(post, Fraction) and post == joint / ev
                    if prior == 0:
                        assert m.tic_bits[theta] is None
                        continue
                    if joint == 0:
                        assert m.tic_bits[theta] == -math.inf
                        continue
                    ratio = (joint / prior) / ev
                    bits = math.log2(ratio.numerator) - math.log2(ratio.denominator)
                    assert same_bits(m.tic_bits[theta], bits)
                    kl += float(post) * bits
                assert same_bits(m.kl_bits, kl)

    def test_mi_from_metrics_matches_oracle_mi(self):
        for scenario in self.scenarios():
            table = enumerate_joint(scenario)
            every = observation_metrics(table)
            assert len(every) == len(table.observation_labels)
            mi = 0.0
            for x, m in zip(table.observation_labels, every):
                assert (m is None) == (table.evidence(x) == 0)
                if m is not None:
                    assert m == oracle_metrics(table, x)
                    mi += float(m.evidence) * m.kl_bits
            assert same_bits(oracle_mi(table), oracle_mi_from_metrics(every))
            assert same_bits(oracle_mi(table), mi)


def test_oracle_imports_no_engine_code():
    # The cross-check only means something while the oracle shares no
    # arithmetic with the engine: no import of core, engine or aggregates.
    path = Path(__file__).resolve().parent.parent / "src" / "bayesbits" / "oracle.py"
    package = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # from .x import y, or from . import x
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bayesbits"):
            rest = node.module.split(".")[1:]
            names = rest or [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name.split(".", 1)[1] for a in node.names if a.name.startswith("bayesbits.")]
        else:
            continue
        package.update(name.split(".")[0] for name in names)
    assert "scenario" in package  # the parse sees the imports at all
    assert package <= {"errors", "record", "scenario"}
