"""Exact-rational joint enumeration and its derived metrics."""

import ast
import cProfile
import math
import pstats
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
from bayesbits.errors import BayesBitsError, ImpossibleObservationError, InvariantViolation
from bayesbits import oracle
from bayesbits.oracle import oracle_mi_from_terms, scenario_metrics
from bayesbits.verify import max_deviation
from helpers import (float_edge_scenario, same_bits, wide_36_bit, wide_coprime,
                     wide_rational_scenario)
from random_agreement_sweep import random_scenario


def joint(table, theta, x):
    """The joint cell ``P(theta, x)`` of the oracle's table: posterior times evidence."""
    m = table[x]
    return Fraction(0) if m is None else m.posterior[theta] * m.evidence


HALF = 0.5  # one float object, for a scenario that holds it in two cells


def exact_twin(scenario):
    """``scenario`` with each float replaced by the Fraction of its exact value."""
    def exact(values):
        return [Fraction(p) if isinstance(p, float) else p for p in values]

    prior, om = scenario.model_space.prior, scenario.observation_model
    rows = [exact(row) for row in om.likelihood]
    return Scenario(scenario.name, ModelSpace(Distribution(prior.labels, exact(prior.probs))),
                    ObservationModel(om.observation_labels, om.model_labels, rows))


class TestEnumerateJoint:
    def test_cells_total_one(self, traditional):
        table = enumerate_joint(traditional)
        om = traditional.observation_model
        cells = [joint(table, theta, x) for theta in om.model_labels for x in om.observation_labels]
        assert sum(cells, Fraction(0)) == 1

    def test_rows_are_model_major_and_total_one(self):
        # the table keeps the scenario's label order; its cells, walked
        # model-major, total exactly one
        rng = random.Random(20261018)
        for _ in range(100):
            scenario = random_scenario(rng, max_models=6, max_observations=6)
            om = scenario.observation_model
            table = enumerate_joint(scenario)
            assert all(m.models == om.model_labels for m in table.values() if m is not None)
            assert tuple(table) == tuple(om.observation_labels)
            cells = [joint(table, theta, x) for theta in om.model_labels for x in om.observation_labels]
            assert sum(cells, Fraction(0)) == 1

    def test_joint_values(self, traditional):
        table = enumerate_joint(traditional)
        assert joint(table, "A", "Monty_B") == Fraction(1, 6)
        assert joint(table, "C", "Monty_B") == Fraction(1, 3)
        assert joint(table, "B", "Monty_B") == Fraction(0)

    def test_evidence_marginal(self, biased):
        table = enumerate_joint(biased)
        assert table["Monty_C"].evidence == Fraction(7, 12)
        assert table["Monty_B"].evidence == Fraction(5, 12)

    @pytest.mark.parametrize(
        "prior, rows",
        [
            ((0.5, 0.5), [["1", "1"]]),
            ((0.5, 0.5), [[0.25, "1/4"], [0.75, "3/4"]]),
            # one float object in two cells
            (("1/2", "1/2"), [["1/2", HALF], [HALF, "1/2"]]),
            # a different float object in each row
            (("1/2", "1/2"), [["1/4", 0.25], [0.75, "3/4"]]),
        ],
        ids=["prior", "prior-and-likelihood", "shared-object", "each-row"],
    )
    def test_reads_floats_as_their_exact_values(self, prior, rows):
        # a float is the dyadic rational it holds: the table is that of the
        # exact scenario of the same values
        s = Scenario(
            name="floaty",
            model_space=ModelSpace(prior=Distribution(("A", "B"), prior)),
            observation_model=ObservationModel(("x", "y")[: len(rows)], ("A", "B"), rows),
        )
        assert enumerate_joint(s) == enumerate_joint(exact_twin(s))

    def test_reads_a_float_only_in_the_last_row(self):
        # the prior and the first row are exact: the float in the last row
        # is read with every other value, at the call
        prior = Distribution(("A", "B"), ("1/2", "1/2"))
        om = ObservationModel(("x", "y"), ("A", "B"), [["1/2", "1/2"], ["1/2", 0.5]])
        s = Scenario("late-float", ModelSpace(prior), om)
        assert tuple(scenario_metrics(s)) == tuple(scenario_metrics(exact_twin(s)))
        assert enumerate_joint(s) == enumerate_joint(exact_twin(s))

    def test_unknown_lookups(self, traditional):
        table = enumerate_joint(traditional)
        with pytest.raises(KeyError) as metrics:
            oracle_metrics(table, "zzz")
        # one family with the engine's label errors, and a message without repr quotes
        assert isinstance(metrics.value, BayesBitsError)
        assert str(metrics.value) == "unknown observation 'zzz'"

    @pytest.mark.parametrize(
        "prior, rows, message",
        [
            # M0's likelihoods sum to 3/4: the cells total 7/8, M0's marginal is 3/8
            (["1/2", "1/2"], [["1/2", "1/2"], ["1/4", "1/2"]],
             "joint marginal for model 'M0' is 3/8, expected the prior 1/2"),
            # M0's sum to 3/2 and M1's to 1/2: the cells total 1, M0's marginal is 3/4
            (["1/2", "1/2"], [["1", "1/4"], ["1/2", "1/4"]],
             "joint marginal for model 'M0' is 3/4, expected the prior 1/2"),
            # each marginal is its prior, but the prior sums to 3/4
            (["1/2", "1/4"], [["1", "1"], ["0", "0"]],
             r"prior sums to 0\.75, expected 1 within 0\.0"),
            # with a float, sums 2e-9 off 1 are beyond what the input types accept
            ([0.5, 0.5 + 2e-9], [["1", "1"], ["0", "0"]],
             r"prior sums to 1\.000000002\d*, expected 1 within 1e-09"),
            # M0's likelihoods sum to 1 - 2e-9, and so its marginal to that times its prior
            ([0.5, 0.5], [[0.5, 0.5], [0.5 - 2e-9, 0.5]],
             r"joint marginal for model 'M0' is \d+/\d+, expected the prior 0\.5"),
        ],
        ids=["total", "marginal", "exact-prior", "float-prior", "float-marginal"],
    )
    def test_checks_the_table_it_reads(self, monkeypatch, prior, rows, message):
        # A Scenario refuses such sums, so these skip its checks: the
        # oracle's own sums, kept while it reads the rows, must catch them.
        monkeypatch.setattr(Distribution, "_check", lambda self: None)
        monkeypatch.setattr(ObservationModel, "_check", lambda self: None)
        prior = Distribution(["M0", "M1"], prior)
        om = ObservationModel(["x", "y"], prior.labels, rows)
        scenario = Scenario("unchecked", ModelSpace(prior), om)
        with pytest.raises(InvariantViolation, match=message):
            enumerate_joint(scenario)
        metrics = scenario_metrics(scenario)
        with pytest.raises(InvariantViolation, match=message):
            list(metrics)

    def test_leaves_a_float_tables_total_unchecked(self):
        # The prior and each model's likelihoods sum to 1 plus exactly the
        # float 1e-9, as far off as the input types allow: the cells total
        # 1 plus twice that plus its square, which the oracle accepts.
        scenario = float_edge_scenario("at-bound")
        table = enumerate_joint(scenario)
        om, e = scenario.observation_model, Fraction(1e-9)
        cells = [joint(table, theta, x) for theta in om.model_labels for x in om.observation_labels]
        assert sum(cells, Fraction(0)) == (1 + e) ** 2 > 1 + 2 * e


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
        table = enumerate_joint(s)
        # every observation is a key, in order, and an impossible one maps to None
        assert list(table) == ["x", "y"]
        assert table["y"] is None
        with pytest.raises(ImpossibleObservationError) as exc:
            oracle_metrics(table, "y")
        assert str(exc.value) == "observation 'y' has zero probability under the prior"

    def test_posteriors_are_exact_and_sum_to_one(self, biased):
        table = enumerate_joint(biased)
        for x in table:
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
                    assert max_deviation(
                        (posterior_prob_info_form(ms, om, x, theta),),
                        (float(m.posterior[theta]),),
                    ) <= 1e-9
                    if m.tic_bits[theta] is not None:
                        assert max_deviation((tic(ms, om, x, theta),), (m.tic_bits[theta],)) <= 1e-9
                assert max_deviation((kl_expected_tic(ms, om, x),), (m.kl_bits,)) <= 1e-9
            assert max_deviation((mutual_information(ms, om),), (oracle_mi(table),)) <= 1e-9

    def test_random_scenarios(self):
        rng = random.Random(20250819)
        for _ in range(50):
            scenario = random_scenario(rng, max_models=5, max_observations=5)
            ms, om = scenario.model_space, scenario.observation_model
            table = enumerate_joint(scenario)
            for x in om.observation_labels:
                if table[x] is None:
                    continue
                m = oracle_metrics(table, x)
                for theta in om.model_labels:
                    assert max_deviation(
                        (posterior_prob_info_form(ms, om, x, theta),),
                        (float(m.posterior[theta]),),
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
            om, priors = scenario.observation_model, scenario.model_space.prior.probs
            for x, row in zip(om.observation_labels, om.likelihood):
                joints = [prior * lik for prior, lik in zip(priors, row)]
                ev = sum(joints, Fraction(0))
                if ev == 0:
                    assert table[x] is None
                    continue
                m = oracle_metrics(table, x)
                assert m.evidence == ev
                kl = 0.0
                for theta, prior, joint in zip(om.model_labels, priors, joints):
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
            every = tuple(scenario_metrics(scenario))
            assert tuple(table) == scenario.observation_model.observation_labels
            assert tuple(table.values()) == every
            terms = [(m.evidence, m.kl_bits) for m in every if m is not None]
            mi = 0.0  # summed in order, as sum() need not on 3.12+
            for evidence, kl in terms:
                mi += float(evidence) * kl
            assert same_bits(oracle_mi(table), oracle_mi_from_terms(terms))
            assert same_bits(oracle_mi(table), mi)


def test_oracle_runs_only_its_own_code(biased):
    # The oracle reads the scenario's fields and values and decides for
    # itself what it can read: no function of the input types, the
    # arithmetic or the engine runs, on exact values or on floats.
    floaty = Scenario(
        "floaty",
        biased.model_space,
        ObservationModel(("x", "y"), biased.model_space.labels, [["1/2"] * 3, [0.5] * 3]),
    )
    profile = cProfile.Profile()
    profile.enable()
    try:
        table = enumerate_joint(biased)
        oracle_mi(table)
        oracle_metrics(table, "Monty_B")
        oracle_mi(enumerate_joint(floaty))
    finally:
        profile.disable()
    package = Path(oracle.__file__).resolve().parent
    ran = {Path(path).name for path, _, _ in pstats.Stats(profile).stats
           if Path(path).resolve().parent == package}
    assert ran == {"oracle.py"}


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
    assert package <= {"errors", "scenario"}
