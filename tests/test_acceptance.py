"""Acceptance suite: one test per shipping criterion.

Each test prints a single pass/fail line (visible under ``pytest -s``)
so the suite doubles as a release checklist.
"""

import math
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

from bayesbits import (
    enumerate_joint,
    kl_classical,
    kl_expected_tic,
    local_transfer_entropy,
    mutual_information,
    mutual_information_classical,
    oracle_metrics,
    posterior_prob_info_form,
    tic,
    transfer_report,
)
from bayesbits.engine import log2_bayes_factor, posterior_prob_oracle, update
from bayesbits.verify import bits_deviation
from random_agreement_sweep import random_scenario

LOG2_3 = 1.584962500721156


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "bayesbits.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_1_traditional_posteriors_and_transfers(traditional):
    with criterion(1, "traditional game: switching doubles the win probability"):
        ms, om = traditional.model_space, traditional.observation_model
        assert abs(posterior_prob_info_form(ms, om, "Monty_B", "A") - 1 / 3) <= 1e-9
        assert abs(posterior_prob_info_form(ms, om, "Monty_B", "C") - 2 / 3) <= 1e-9
        assert abs(tic(ms, om, "Monty_B", "A") - 0.0) <= 1e-12
        assert abs(tic(ms, om, "Monty_B", "C") - 1.0) <= 1e-12


def test_criterion_2_traditional_kl_and_mi_both_paths(traditional):
    with criterion(2, "traditional game: KL and MI are 2/3 bit via both paths"):
        ms, om = traditional.model_space, traditional.observation_model
        assert abs(kl_expected_tic(ms, om, "Monty_B") - 2 / 3) <= 1e-9
        assert abs(kl_classical(ms, om, "Monty_B") - 2 / 3) <= 1e-9
        assert abs(mutual_information(ms, om) - 2 / 3) <= 1e-9
        assert abs(mutual_information_classical(ms, om) - 2 / 3) <= 1e-9


def test_criterion_3_biased_negative_transfer(biased):
    with criterion(3, "biased prior: an opened door can mislead about door A"):
        ms, om = biased.model_space, biased.observation_model
        assert abs(posterior_prob_info_form(ms, om, "Monty_C", "A") - 3 / 7) <= 1e-9
        assert abs(posterior_prob_info_form(ms, om, "Monty_C", "B") - 4 / 7) <= 1e-9
        t = tic(ms, om, "Monty_C", "A")
        assert abs(t - (math.log2(12 / 7) - 1.0)) <= 1e-7
        assert t < 0
        entry = transfer_report(ms, om, "Monty_C").entry_for("A")
        assert entry.sign_class is not None
        assert entry.sign_class.value == "misleads"
        metrics = oracle_metrics(enumerate_joint(biased), "Monty_B")
        assert metrics.posterior["A"] == Fraction(3, 5)
        assert metrics.posterior["C"] == Fraction(2, 5)


def test_criterion_4_forgetful_symmetric_gain(forgetful):
    with criterion(4, "forgetful host: a lucky goat reveal still informs both doors"):
        ms, om = forgetful.model_space, forgetful.observation_model
        assert abs(posterior_prob_info_form(ms, om, "Monty_B", "A") - 1 / 2) <= 1e-9
        assert abs(posterior_prob_info_form(ms, om, "Monty_B", "B") - 0.0) <= 1e-9
        assert abs(posterior_prob_info_form(ms, om, "Monty_B", "C") - 1 / 2) <= 1e-9
        expected = LOG2_3 - 1.0
        assert abs(tic(ms, om, "Monty_B", "A") - expected) <= 1e-7
        assert abs(tic(ms, om, "Monty_B", "C") - expected) <= 1e-7


def test_criterion_5_randomized_property_sweep():
    with criterion(5, "1000 random rational scenarios: all cross-path identities hold"):
        rng = random.Random(20260819)
        for _ in range(1000):
            scenario = random_scenario(rng, max_models=8, max_observations=8)
            ms, om = scenario.model_space, scenario.observation_model
            table = enumerate_joint(scenario)
            assert mutual_information(ms, om) >= -1e-9
            for x in om.observation_labels:
                if table.evidence(x) == 0:
                    continue
                metrics = oracle_metrics(table, x)
                assert kl_expected_tic(ms, om, x) >= -1e-9
                report = transfer_report(ms, om, x)
                for entry in report.entries:
                    assert bits_deviation(
                        entry.posterior_prob, float(metrics.posterior[entry.model])
                    ) <= 1e-9
                    if entry.tic is not None:
                        lte = local_transfer_entropy(ms, om, x, entry.model)
                        assert bits_deviation(lte, entry.tic) <= 1e-9
                if len(om.model_labels) >= 2:
                    t1, t2 = rng.sample(om.model_labels, 2)
                    lik1 = om.likelihood_of(x, t1)
                    lik2 = om.likelihood_of(x, t2)
                    if lik1 == 0 and lik2 == 0:
                        continue
                    log_k = log2_bayes_factor(om, x, t1, t2)
                    diff = tic(ms, om, x, t1) - tic(ms, om, x, t2)
                    if math.isinf(log_k):
                        assert diff == log_k
                    else:
                        assert abs(log_k - diff) <= 1e-12


def test_criterion_6_refuted_model_flow(traditional):
    with criterion(6, "refuted models: -inf transfer, posterior 0, no KL weight"):
        ms, om = traditional.model_space, traditional.observation_model
        assert tic(ms, om, "Monty_B", "B") == -math.inf
        assert posterior_prob_info_form(ms, om, "Monty_B", "B") == 0.0
        assert posterior_prob_oracle(ms, om, "Monty_B", "B") == 0
        u = update(ms, om, "Monty_B")
        b = u.models.index("B")
        assert u.tics[b] == -math.inf
        assert u.posteriors[b] == 0
        manual = 0.0
        for weight, t in zip(u.posteriors, u.tics):
            if weight != 0:
                manual += float(weight) * t
        kl = kl_expected_tic(ms, om, "Monty_B")
        assert kl == manual
        assert math.isfinite(kl)


def test_criterion_7_cli_determinism_and_verification(tmp_path):
    with criterion(7, "CLI: byte-identical reports, oracle verification passes"):
        paths = {}
        for variant in ("traditional", "biased", "forgetful"):
            path = tmp_path / f"{variant}.json"
            generated = run_cli(["mhp", variant, "--out", str(path)])
            assert generated.returncode == 0
            paths[variant] = str(path)
        first = run_cli(["solve", paths["traditional"], "--observe", "Monty_B"])
        second = run_cli(["solve", paths["traditional"], "--observe", "Monty_B"])
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # something was actually printed
        for variant in ("traditional", "biased", "forgetful"):
            verified = run_cli(["verify", paths[variant]])
            assert verified.returncode == 0, verified.stdout + verified.stderr
