"""The per-observation update: agreement with the per-label functions, and cost.

``transfer_report`` applies one observation to every model at once. The per-label
functions (``evidence``, ``tic``, ``posterior_info``, ...) must
return exactly what it holds, and both must match the textbook formulas
bit for bit, so CLI output does not depend on which route computed a
number.
"""

import json
import json.encoder
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
    load_scenario,
    mhp_scenario,
    mutual_information,
    mutual_information_classical,
    save_scenario,
    tic,
    transfer_report,
)
from bayesbits import aggregates, cli, core, engine, oracle, verify
from bayesbits import scenario as scenario_io
from bayesbits.core import _log2_quotient, info_content
from bayesbits.engine import (
    SignClass,
    marginals,
    posterior_info,
)
from bayesbits.errors import ImpossibleObservationError, UndefinedLogError
from bayesbits.report import build_report, render_csv, render_json, render_table
from bayesbits.verify import verify_scenario

from helpers import (
    probability_types,
    random_float_scenario,
    same_bits,
    wide_36_bit,
    wide_coprime,
    wide_rational_scenario,
)
from random_agreement_sweep import random_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"


def log_odds_reference(u, j: int) -> float:
    """``log2(posterior / prior)`` of the reduced ratio: the integer-part kernel must give its bits."""
    post = Fraction(u.posterior_nums[j], u.posterior_den)
    if post == 0:
        return -math.inf
    return _log2_quotient(*(post / Fraction(u.entries[j].prior_prob)).as_integer_ratio())


def expected_sign(lik, ev: Fraction):
    """Textbook sign class: ``P(x | theta)``, a float as its exact value, against the exact ``P(x)``."""
    if Fraction(lik) == ev:
        return SignClass.NEUTRAL
    return SignClass.INFORMS if Fraction(lik) > ev else SignClass.MISLEADS


def check_against_formulas(scenario) -> int:
    """Assert the update, the wrappers and the textbook formulas agree.

    Returns the number of observations with zero evidence.
    """
    ms, om = scenario.model_space, scenario.observation_model
    exact = set(probability_types(scenario)) == {Fraction}
    impossible = 0
    for x, row, shared in zip(om.observation_labels, om.likelihood, marginals(ms, om)):
        # floats enter as the dyadic rationals they are; a float row shows
        # the exact value's correctly rounded float
        ev = sum(Fraction(lik) * Fraction(p) for lik, p in zip(row, ms.prior.probs))
        shown = ev if exact else float(ev)
        assert evidence(ms, om, x) == shown and isinstance(evidence(ms, om, x), Fraction) == exact
        assert same_bits(float(evidence(ms, om, x)), float(ev))
        if ev == 0:
            impossible += 1
            assert shared is None
            for call in (lambda: transfer_report(ms, om, x), lambda: tic(ms, om, x, ms.labels[0])):
                with pytest.raises(ImpossibleObservationError):
                    call()
            continue
        u = transfer_report(ms, om, x)
        assert u == shared
        assert u.evidence == shown
        assert u.entries == tuple([u.entry_for(theta) for theta in ms.labels])
        assert same_bits(u.evidence_info, info_content(ev))
        assert all(same_bits(e.evidence_info, u.evidence_info) for e in u.entries)
        for j, theta in enumerate(ms.labels):
            lik, prior_p = row[j], ms.prior.probs[j]
            post, exact_post = u.posteriors[j], Fraction(lik) * Fraction(prior_p) / ev
            assert isinstance(post, Fraction) == exact
            assert post == (exact_post if exact else float(exact_post))
            assert same_bits(float(post), float(exact_post))
            t = tic(ms, om, x, theta)
            assert same_bits(t, u.tics[j])
            assert same_bits(t, info_content(ev) - info_content(lik))
            assert u.signs[j] == (None if prior_p == 0 else expected_sign(lik, ev))
            post_i = posterior_info(ms, om, x, theta)
            assert same_bits(post_i, u.posterior_infos[j])
            assert same_bits(post_i, info_content(prior_p) - t)
            if prior_p != 0:
                lte = u.log_odds_updates()[j]
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
        assert set(probability_types(scenario)) == {Fraction}
        check_against_formulas(scenario)


def test_mixed_exact_prior_float_likelihood_takes_float_path():
    # An exact prior with a float row: worked exactly, like an exact row,
    # and its evidence and posteriors shown as floats.
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
        assert set(probability_types(scenario.model_space)) == {Fraction}
        assert set(probability_types(scenario.observation_model)) == {float}
        check_against_formulas(scenario)


def test_one_marginalisation_per_observation(monkeypatch, tmp_path, capsys):
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    ms, om = scenario.model_space, scenario.observation_model
    n_obs = len(om.observation_labels)
    path = tmp_path / "custom-12.json"
    save_scenario(scenario, path)
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
    calls = 0
    build_report(scenario, "Monty_C")  # the printed row too
    assert calls == n_obs
    calls = 0
    assert cli.main(["mi", str(path)]) == 0  # both MI paths
    assert calls == n_obs
    capsys.readouterr()


def column_counter(monkeypatch, name: str) -> list[int]:
    """Count reads of the on-demand column ``engine.Marginal.name`` from now on."""
    calls = [0]
    column = getattr(engine.Marginal, name)

    def counting(self):
        calls[0] += 1
        return column.__get__(self)

    monkeypatch.setattr(engine.Marginal, name, property(counting))
    return calls


def test_solve_builds_report_columns_for_the_printed_observation_only(monkeypatch):
    # the sign column is worked out once for the printed table, not once per row
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    built = column_counter(monkeypatch, "signs")
    report = build_report(scenario, "Monty_D12_car")
    render_table(report, 6)
    assert built == [1] and report.transfer.observation == "Monty_D12_car"
    ms, om = scenario.model_space, scenario.observation_model
    printed = tuple(marginals(ms, om))[om.observation_labels.index("Monty_D12_car")]
    assert report.transfer == printed


def test_mi_builds_no_update(monkeypatch, tmp_path, capsys):
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    path = tmp_path / "custom-12.json"
    save_scenario(scenario, path)
    built = column_counter(monkeypatch, "signs")
    ms, om = scenario.model_space, scenario.observation_model
    mutual_information(ms, om)
    mutual_information_classical(ms, om)
    assert cli.main(["mi", str(path)]) == 0
    assert "mi_expected_tic_bits: " in capsys.readouterr().out
    assert built == [0]


def test_csv_solve_computes_no_kl_or_mi(monkeypatch, tmp_path, capsys):
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    path = tmp_path / "custom-12.json"
    save_scenario(scenario, path)
    argv = ["solve", str(path), "--observe", "Monty_C", "--format", "csv"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("solve --format csv computed a KL or an MI")

    for name in ("kl_from_update", "kl_classical_and_entropy", "mi_from_kls", "mi_from_terms",
                 "mi_both_paths"):
        monkeypatch.setattr(aggregates, name, refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.fixture(scope="module")
def forgetful_320():
    return mhp_scenario(MhpConfig(door_count=320, host_policy=HostPolicy.FORGETFUL))


@pytest.mark.parametrize("run", ["table", "json", "csv", "mutual_information"])
def test_solve_and_mi_hold_one_observation_at_a_time(forgetful_320, run):
    # 638 observations of 320 models. Holding every observation's update,
    # as a pass that keeps them all does, peaks at about 24 MiB here.
    scenario = forgetful_320
    ms, om = scenario.model_space, scenario.observation_model
    assert len(om.observation_labels) * len(ms.labels) == 638 * 320
    render = {"table": lambda doc: render_table(doc, 6), "json": render_json, "csv": render_csv}
    tracemalloc.start()
    try:
        if run == "mutual_information":
            mutual_information(ms, om)
        else:
            render[run](build_report(scenario, "Monty_C", totals=run != "csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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
    return transfer_report(ModelSpace(prior), om, "x")


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
    lte = u.log_odds_updates()[0]
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
    assert aggregates.mutual_information_classical(ms, om) == pytest.approx(
        oracle.oracle_mi(oracle.enumerate_joint(scenario)), abs=1e-9
    )
    assert verify_scenario(scenario)[0] <= 1e-9
    assert calls == [0]


def test_log_odds_updates_divide_no_fractions(monkeypatch):
    # each row of log-odds updates takes its ratios from integer parts
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    divisions = call_counter(monkeypatch, Fraction, "__truediv__")
    reflected = call_counter(monkeypatch, Fraction, "__rtruediv__")
    per_row = []
    log_odds = engine.Marginal.log_odds_updates

    def watched(self):
        before = divisions[0] + reflected[0]
        result = log_odds(self)
        per_row.append(divisions[0] + reflected[0] - before)
        return result

    monkeypatch.setattr(engine.Marginal, "log_odds_updates", watched)
    assert verify_scenario(scenario)[0] <= 1e-9
    assert len(per_row) == 22 and not any(per_row)


def test_exact_values_build_no_fraction_per_cell(monkeypatch):
    # Exact posteriors, joints and ratios stay integers: verify and solve
    # build a few Fractions per observation, none per cell (264 cells here).
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    n_obs = len(scenario.observation_model.observation_labels)
    built = call_counter(monkeypatch, Fraction, "__new__")
    assert verify_scenario(scenario)[0] <= 1e-9
    assert 0 < built[0] <= 4 * n_obs + 10
    built[0] = 0
    report = build_report(scenario, "Monty_C")
    render_table(report, 6)  # the exact evidence is built for the printed table
    assert 0 < built[0] <= 4 * n_obs + 10
    assert report.transfer.evidence == Fraction(1, 12)


def test_loading_parses_each_distinct_string_once(monkeypatch, tmp_path):
    # 480 likelihood cells and 16 priors spell three strings: 1/16, 1/15 and 0/1
    game = mhp_scenario(MhpConfig(door_count=16, host_policy=HostPolicy.FORGETFUL))
    path = tmp_path / "custom-16.json"
    save_scenario(game, path)
    parsed = call_counter(monkeypatch, core, "parse_probability")
    assert load_scenario(path) == game
    assert parsed == [3]


def test_saving_formats_each_distinct_value_once(monkeypatch, tmp_path, capsys):
    # 480 likelihood cells and 16 priors hold three value objects: 1/16, 1/15 and 0.
    # The saver calls probability_repr by the name it imported from core.
    formatted = call_counter(monkeypatch, scenario_io, "probability_repr")
    path = tmp_path / "custom-16.json"
    assert cli.main(["mhp", "custom-16", "--policy", "forgetful", "--out", str(path)]) == 0
    assert 0 < formatted[0] <= 3
    game = mhp_scenario(MhpConfig(door_count=16, host_policy=HostPolicy.FORGETFUL))
    loaded = load_scenario(path)
    assert (loaded.model_space, loaded.observation_model) == (
        game.model_space, game.observation_model
    )


def test_saving_flat_metadata_runs_no_python_encoder(monkeypatch, tmp_path):
    # json.dumps(indent=2) builds json's pure-Python encoder; labels go
    # through the C escaper, and only the door_count int through json.dumps
    encoders = call_counter(monkeypatch, json.encoder, "_make_iterencode")
    dumps = call_counter(monkeypatch, json, "dumps")
    save_scenario(mhp_scenario(MhpConfig(door_count=16, host_policy=HostPolicy.FORGETFUL)),
                  tmp_path / "custom-16.json")
    assert (encoders[0], dumps[0]) == (0, 1)
    exact = Scenario("exact", ModelSpace(Distribution(["A", "B"], ["1/3", "2/3"])),
                     ObservationModel(["x", "y"], ["A", "B"], [["1/4", "1/2"], ["3/4", "1/2"]]))
    save_scenario(exact, tmp_path / "exact.json")
    assert (encoders[0], dumps[0]) == (0, 1)


def test_loading_reads_a_pair_per_value_not_per_cell(monkeypatch, tmp_path):
    # 16 priors and 480 likelihood cells hold three values: 1/16, 1/15 and 0.
    # A pair is read where a value is validated and where it is summed: each
    # prior's twice, and each distinct string's once more as it is parsed.
    # Column sums that read a pair per cell read 517.
    game = mhp_scenario(MhpConfig(door_count=16, host_policy=HostPolicy.FORGETFUL))
    path = tmp_path / "custom-16.json"
    save_scenario(game, path)
    pairs = call_counter(monkeypatch, Fraction, "as_integer_ratio")
    loaded = load_scenario(path)
    models, distinct = len(loaded.model_space.labels), 3
    assert (models, len(loaded.observation_model.values)) == (16, 2)
    assert 0 < pairs[0] <= 2 * (models + distinct)
    assert loaded == Scenario(game.name, game.model_space, game.observation_model, game.metadata)


def test_model_validates_each_distinct_value_once(monkeypatch):
    # the game's 480 likelihood cells hold two value objects, 0 and 1/15
    om = mhp_scenario(MhpConfig(door_count=16, host_policy=HostPolicy.FORGETFUL)).observation_model
    checked = call_counter(monkeypatch, scenario_io, "as_probability")
    assert ObservationModel(om.observation_labels, om.model_labels, om.likelihood) == om
    assert 0 < checked[0] <= 2


@pytest.mark.parametrize("policy", list(HostPolicy))
def test_generated_game_builds_one_fraction_per_distinct_value(monkeypatch, policy):
    cfg = MhpConfig(door_count=16, host_policy=policy)
    built = call_counter(monkeypatch, Fraction, "__new__")
    om = mhp_scenario(cfg).observation_model
    assert len(om.likelihood) * len(om.model_labels) >= 15 * 16
    assert built[0] <= 3


def test_one_log_per_distinct_likelihood_per_row(monkeypatch):
    # Besides one log per prior and one per evidence, updates take one log
    # per distinct nonzero likelihood value object in the whole matrix: 480
    # cells hold two objects here, 0 and 1/15. Each object's info, that of
    # 0 included, is worked out once.
    scenario = mhp_scenario(MhpConfig(door_count=16, host_policy=HostPolicy.FORGETFUL))
    ms, om = scenario.model_space, scenario.observation_model
    objects = {id(p): p for row in om.likelihood for p in row}
    nonzero = sum(p != 0 for p in objects.values())
    logs = [call_counter(monkeypatch, module, "_log2_quotient") for module in (core, engine)]
    infos = [call_counter(monkeypatch, module, "_info") for module in (core, engine)]
    us = tuple(marginals(ms, om))
    assert all(us) and (len(objects), nonzero) == (2, 1)
    n_priors, n_rows = len(ms.labels), len(om.likelihood)
    assert (n_priors, n_rows) == (16, 30)
    assert sum(calls[0] for calls in logs) <= n_priors + n_rows + nonzero
    assert sum(calls[0] for calls in infos) <= n_priors + n_rows + len(objects)


def test_equal_value_objects_get_equal_infos():
    # distinct but equal likelihood objects each take their own, identical log
    prior = Distribution(["M0", "M1", "M2"], [Fraction(1, 3)] * 3)
    row = [Fraction(1, 3), Fraction(2, 6), Fraction(1, 3)]
    om = ObservationModel(["x", "y"], prior.labels, [row, [1 - p for p in row]])
    assert len({id(p) for p in om.likelihood[0]}) == 3
    u = transfer_report(ModelSpace(prior), om, "x")
    assert next(marginals(ModelSpace(prior), om)) == u
    assert u.likelihood_infos == [info_content(Fraction(1, 3))] * 3


def test_engine_reads_each_pair_once_per_command(monkeypatch):
    # One integer pair per prior and one per distinct likelihood value
    # object, not one per cell (264) or per prior per log-odds row.
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    ms, om = scenario.model_space, scenario.observation_model
    objects = {id(p) for row in om.likelihood for p in row}
    bound = len(ms.labels) + len(objects)
    assert bound == 12 + 2
    pairs = call_counter(monkeypatch, Fraction, "as_integer_ratio")
    rows = [u.log_odds_updates() for u in marginals(ms, om) if u is not None]
    assert len(rows) == 22 and 0 < pairs[0] <= bound
    pairs[0] = 0
    build_report(scenario, "Monty_C")
    assert 0 < pairs[0] <= bound


def test_oracle_reads_each_prior_pair_once_per_table(monkeypatch):
    # 12 priors, 2 likelihood value objects and 22 observations: the table
    # reads one pair per prior, per value object and per evidence, not one
    # per cell (264), and its MI reads none
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    om = scenario.observation_model
    pairs = call_counter(monkeypatch, Fraction, "as_integer_ratio")
    table = oracle.enumerate_joint(scenario)
    n_models, n_obs = len(om.model_labels), len(table)
    assert (n_models, n_obs) == (12, 22)
    assert 0 < pairs[0] <= n_models + 2 + n_obs
    pairs[0] = 0
    oracle.oracle_mi(table)
    assert pairs[0] == 0


def test_oracle_reads_each_likelihood_pair_once(monkeypatch):
    # 480 likelihood cells hold two value objects, 0 and 1/15
    scenario = mhp_scenario(MhpConfig(door_count=16, host_policy=HostPolicy.FORGETFUL))
    pairs = call_counter(monkeypatch, Fraction, "as_integer_ratio")
    reads = [0]
    numerator = Fraction.numerator.fget

    def counting(self):
        reads[0] += 1
        return numerator(self)

    monkeypatch.setattr(Fraction, "numerator", property(counting))
    n_obs = len(oracle.enumerate_joint(scenario))
    assert reads[0] == 0
    # one pair per prior, per value object and per observation's evidence
    assert 0 < pairs[0] <= 16 + 2 + n_obs


def check_log_odds_rows(scenario) -> int:
    """Assert each update's log-odds row is its per-model log-odds, bit for bit.

    Returns the number of models with prior 0 seen.
    """
    ms, om = scenario.model_space, scenario.observation_model
    zero_priors = 0
    for x, u in zip(om.observation_labels, marginals(ms, om)):
        if u is None:
            continue
        row = u.log_odds_updates()
        assert len(row) == len(ms.labels)
        for j, (theta, bits) in enumerate(zip(ms.labels, row)):
            if ms.prior.probs[j] == 0:
                zero_priors += 1
                assert bits is None
                with pytest.raises(UndefinedLogError) as raised:
                    local_transfer_entropy(ms, om, x, theta)
                message = f"log-odds update of {theta!r} undefined: prior probability is 0"
                assert str(raised.value) == message
                continue
            assert same_bits(bits, local_transfer_entropy(ms, om, x, theta))
    return zero_priors


def test_log_odds_row_matches_each_model():
    rng = random.Random(20261019)
    zero_priors = 0
    for _ in range(100):
        zero_priors += check_log_odds_rows(random_scenario(rng, max_models=6, max_observations=6))
    for denominators in (wide_coprime, wide_36_bit):
        for _ in range(40):
            zero_priors += check_log_odds_rows(wide_rational_scenario(rng, denominators))
    for _ in range(40):
        zero_priors += check_log_odds_rows(random_float_scenario(rng))
    zero_priors += check_log_odds_rows(load_scenario(GOLDEN / "edge.json"))
    # the draws must reach a zero prior, or the None half is untested
    assert zero_priors > 0


def test_float_evidence_above_one_carries_zero_bits():
    # A float prior summing to 1 + 2**-52 is accepted within FLOAT_SUM_TOL;
    # a certain observation's evidence is that sum.
    prior = Distribution([f"M{i}" for i in range(4)], [1 / 4, 1 / 4, 1 / 4, 1 / 4 + 2**-52])
    om = ObservationModel(["x"], prior.labels, [[1.0] * 4])
    u = transfer_report(ModelSpace(prior), om, "x")
    assert u.evidence == 1 + 2**-52
    assert u.evidence_info == 0.0
    assert [e.evidence_info for e in u.entries] == [0.0] * 4
    assert u.tics == [0.0] * 4
    assert u.posterior_infos == list(u.prior_infos)
