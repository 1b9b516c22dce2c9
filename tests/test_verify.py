"""The engine-versus-oracle check: its column reduction, its cost and the faults it reports.

``verify_scenario`` reduces each quantity's engine column against the
oracle's with ``max_deviation``. The reduction must keep the pairwise
test's meaning (None, infinities, NaN), make no Python call per cell,
and still report ``inf`` when an engine cell is NaN, finite where the
oracle has -inf, or None where the oracle has a value, or when a
posterior information content has no probability.
"""

import cProfile
import math
import pstats
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayesbits import Distribution, HostPolicy, MhpConfig, mhp_scenario
from bayesbits import cli, engine
from bayesbits.core import FLOAT_SUM_TOL
from bayesbits.scenario import ModelSpace, ObservationModel, Scenario, door_labels, save_scenario
from bayesbits.verify import VERIFY_TOL, max_deviation, verify_scenario
from helpers import float_edge_scenario, random_float_scenario

FLOAT_SEED = 20261020  # the random float scenarios' seed


def reference_deviation(a, b) -> float:
    """The pairwise test spelled out: None, equal infinities, NaN, then the gap."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b)


cells = st.one_of(
    st.none(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(st.tuples(cells, cells), max_size=12))
def test_column_reduction_matches_the_pairwise_test(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    expected = max(map(reference_deviation, a, b), default=0.0)
    assert max((max_deviation((x,), (y,)) for x, y in pairs), default=0.0) == expected
    # a lazy engine column against a listed oracle column, as verify pairs them
    assert max_deviation(iter(a), b) == expected


@pytest.mark.parametrize(
    "a, b, gap",
    [
        (None, None, 0.0),
        (None, 0.0, math.inf),
        (-math.inf, None, math.inf),
        (math.inf, math.inf, 0.0),
        (-math.inf, -math.inf, 0.0),
        (math.inf, -math.inf, math.inf),
        (-math.inf, 1.5, math.inf),
        (math.nan, math.nan, math.inf),
        (math.nan, 1.0, math.inf),
        (-0.0, 0.0, 0.0),
        (1.0, 1.25, 0.25),
    ],
)
def test_bits_deviation_cases(a, b, gap):
    assert max_deviation((a,), (b,)) == gap == reference_deviation(a, b)
    assert max_deviation((b,), (a,)) == gap


def test_empty_columns_deviate_by_zero():
    assert max_deviation([], []) == 0.0


def calls_by_name(func, *args) -> Counter:
    """How many times ``func(*args)`` calls each Python function, by its name."""
    profile = cProfile.Profile()
    profile.runcall(func, *args)
    counts: Counter = Counter()
    for (_, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items():
        counts[name] += calls
    return counts


def test_verify_makes_no_call_per_cell():
    # 22 observations of 12 models: 264 cells, 860 compared values
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    calls = calls_by_name(verify_scenario, scenario)
    assert calls["verify_scenario"] == 1
    assert calls["max_deviation"] == 7  # six columns in the one batch, then the two MIs
    assert calls["local_transfer_entropy"] == 0
    assert calls["log_odds_updates"] == 22
    assert verify_scenario(scenario) == (pytest.approx(0.0, abs=VERIFY_TOL), 860, VERIFY_TOL)


def test_verify_learns_of_a_late_float_from_the_oracles_one_read():
    # Exact but for the last row's last cell: the oracle reads every value
    # once, before its first row, and tells verify that the scenario holds
    # a float, so the tolerance widens with no second pass over the cells.
    scenario = mhp_scenario(MhpConfig(door_count=12, host_policy=HostPolicy.FORGETFUL))
    om = scenario.observation_model
    rows = [*om.likelihood[:-1], [*om.likelihood[-1][:-1], 1 / 11]]
    late = Scenario("late-float", scenario.model_space,
                    ObservationModel(om.observation_labels, om.model_labels, rows))
    calls = calls_by_name(verify_scenario, late)
    assert (calls["read_values"], calls["_marginal"], calls["_metrics"]) == (1, 22, 22)
    max_dev, checks, tol = verify_scenario(late)
    assert (max_dev <= VERIFY_TOL, checks) == (True, 860)
    assert tol == VERIFY_TOL + FLOAT_SUM_TOL * (2 + math.log2(12))


@pytest.mark.parametrize("name", ["columns-off", "prior-over", "prior-one", "at-bound"])
def test_a_float_edge_passes_and_a_planted_fault_fails(monkeypatch, tmp_path, capsys, name):
    # Where a float scenario's sums sit off 1, the engine's conventions move
    # it from the exact values by more than VERIFY_TOL, and within the
    # widened tolerance. A fault planted in the engine still fails (exit 4).
    scenario = float_edge_scenario(name)
    max_dev, checks, tol = verify_scenario(scenario)
    assert tol == VERIFY_TOL + FLOAT_SUM_TOL * (2 + math.log2(len(scenario.model_space.labels)))
    assert max_dev <= tol and (max_dev > VERIFY_TOL) == (name != "prior-one")
    path = tmp_path / f"{name}.json"
    save_scenario(scenario, path)
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"comparisons: {checks}\nmax_deviation_bits: {max_dev!r}\ntolerance_bits: {tol!r}\n" in out
    assert out.endswith("status: PASS\n")
    u = next(engine.marginals(scenario.model_space, scenario.observation_model))
    patch_marginals(monkeypatch, scenario, "posterior_infos", 0, 0, u.posterior_infos[0] + 1)
    assert cli.main(["verify", str(path)]) == 4
    assert capsys.readouterr().out.endswith("status: FAIL\n")


def test_random_float_scenarios_agree_to_rounding():
    # Both paths read the same exact dyadic values, so on floats whose sums
    # sit within rounding of 1 they agree far inside any tolerance.
    rng = random.Random(FLOAT_SEED)
    results = [verify_scenario(random_float_scenario(rng)) for _ in range(1000)]
    assert all(max_dev <= tol for max_dev, _, tol in results)
    assert max(max_dev for max_dev, _, _ in results) <= 1e-13


def test_verify_holds_one_batch_of_observations_at_a_time():
    # 318 observations of 160 models. Holding every observation's update
    # and the oracle's whole table peaks at about 14 MiB here; comparing
    # batches of about 4096 cells and dropping each peaks near 1.5 MiB.
    scenario = mhp_scenario(MhpConfig(door_count=160, host_policy=HostPolicy.FORGETFUL))
    tracemalloc.start()
    try:
        max_dev, checks, _ = verify_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (max_dev <= VERIFY_TOL, checks) == (True, 153596)
    assert peak < 3 * 2**20


def test_verify_compares_an_observation_wider_than_a_batch():
    # 4097 models: one observation holds more cells than a batch of about
    # 4096, and is still compared whole. 3 comparisons for the observation,
    # 2 per posterior, 1 per TIC and 2 for the MIs: 12,296.
    labels = [f"M{i}" for i in range(4097)]
    scenario = Scenario("wide", ModelSpace(Distribution.uniform(labels)),
                        ObservationModel(["x"], labels, [[Fraction(1)] * len(labels)]))
    max_dev, checks, _ = verify_scenario(scenario)
    assert checks == 12296
    assert max_dev <= 1e-18


# an 8-door forgetful game in which door D8 has prior 0 (the golden custom8 game)
PRIOR_8 = ["1/4", "1/8", "1/8", "1/16", "3/16", "1/8", "1/8", "0"]


@pytest.fixture(scope="module")
def game():
    prior = Distribution(door_labels(8), [Fraction(p) for p in PRIOR_8])
    return mhp_scenario(MhpConfig(door_count=8, prior=prior, host_policy=HostPolicy.FORGETFUL))


def refuted_cell(scenario) -> tuple[int, int]:
    """(observation, model) of a model with prior > 0 that the observation refutes."""
    ms, om = scenario.model_space, scenario.observation_model
    for i, u in enumerate(engine.marginals(ms, om)):
        if u is None:
            continue
        for j, (num, sign) in enumerate(zip(u.posterior_nums, u.signs)):
            if num == 0 and sign is not None:
                return i, j
    raise AssertionError("the game refutes no model")


def patch_marginals(monkeypatch, scenario, name: str, i: int, j: int, value) -> None:
    """Make column ``name`` of the engine marginal of observation ``i`` read ``value`` in cell ``j``.

    ``name`` is a field or a property of ``engine.Marginal``, the
    marginals ``verify`` reads.
    """
    x = scenario.observation_model.observation_labels[i]
    column = getattr(engine.Marginal, name)

    def faulty(self):
        cells = list(column.__get__(self))
        if self.observation == x:
            cells[j] = value
        return cells

    monkeypatch.setattr(engine.Marginal, name, property(faulty))


def test_the_game_passes_unpatched(game):
    i, j = refuted_cell(game)
    u = tuple(engine.marginals(game.model_space, game.observation_model))[i]
    assert u.tics[j] == -math.inf and u.log_odds_updates()[j] == -math.inf
    assert u.log_odds_updates()[-1] is None  # door D8: prior 0
    assert verify_scenario(game)[0] <= VERIFY_TOL


@pytest.mark.parametrize("value", [math.nan, 0.5, None], ids=["nan", "finite", "none"])
def test_a_faulty_tic_cell_deviates_by_inf(monkeypatch, game, value):
    # the refuted cell's TIC is -inf on both paths; its posterior weight
    # of 0 keeps the fault out of every KL and MI
    checks = verify_scenario(game)[1]
    i, j = refuted_cell(game)
    patch_marginals(monkeypatch, game, "tics", i, j, value)
    assert verify_scenario(game) == (math.inf, checks, VERIFY_TOL)


@pytest.mark.parametrize("value", [math.nan, 0.5, None], ids=["nan", "finite", "none"])
def test_a_faulty_log_odds_cell_deviates_by_inf(monkeypatch, game, value):
    checks = verify_scenario(game)[1]
    i, j = refuted_cell(game)
    x = game.observation_model.observation_labels[i]
    row = engine.Marginal.log_odds_updates

    def faulty(self):
        cells = row(self)
        if self.observation == x:
            cells[j] = value
        return cells

    monkeypatch.setattr(engine.Marginal, "log_odds_updates", faulty)
    assert verify_scenario(game) == (math.inf, checks, VERIFY_TOL)


def test_a_faulty_posterior_cell_is_reported(monkeypatch, game):
    # Posteriors are compared as probabilities, which are never None, NaN
    # or infinite: a posterior information content one bit too high shows
    # as a deviation of half the posterior.
    checks = verify_scenario(game)[1]
    u = tuple(engine.marginals(game.model_space, game.observation_model))[0]
    j = next(j for j, num in enumerate(u.posterior_nums) if num != 0)
    patch_marginals(monkeypatch, game, "posterior_infos", 0, j, u.posterior_infos[j] + 1)
    dev, faulty_checks, _ = verify_scenario(game)
    assert faulty_checks == checks
    assert dev == pytest.approx(u.posterior_floats[j] / 2, rel=1e-9)


@pytest.mark.parametrize("value", [math.nan, -5.0], ids=["nan", "negative"])
def test_a_broken_posterior_cell_deviates_by_inf(monkeypatch, tmp_path, capsys, game, value):
    # prob_from_info refuses such an information content; verify counts
    # the refusal as deviation inf and fails, rather than exiting 2
    checks = verify_scenario(game)[1]
    patch_marginals(monkeypatch, game, "posterior_infos", 0, 0, value)
    assert verify_scenario(game) == (math.inf, checks, VERIFY_TOL)
    path = tmp_path / "game.json"
    save_scenario(game, path)
    assert cli.main(["verify", str(path)]) == 4
    out = capsys.readouterr().out
    assert f"comparisons: {checks}\nmax_deviation_bits: inf\n" in out
    assert out.endswith("status: FAIL\n")
