"""Monty Hall generators and the scenario file format."""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayesbits import (
    Distribution,
    HostPolicy,
    MhpConfig,
    Scenario,
    door_labels,
    evidence,
    load_scenario,
    mhp_scenario,
    save_scenario,
)
from bayesbits.engine import transfer_report
from bayesbits.errors import (
    BayesBitsError,
    DomainError,
    InvariantViolation,
    ScenarioFormatError,
    UnknownLabelError,
)
from bayesbits.report import build_report, render_csv, render_json, render_table
from bayesbits.scenario import (
    ModelSpace,
    ObservationModel,
    scenario_from_json_text,
    scenario_to_json_text,
)
from bayesbits import scenario as scenario_module
from bayesbits.scenario import MAX_DOORS
from helpers import likelihood, probability_types


class TestDoorLabels:
    def test_three(self):
        assert door_labels(3) == ("A", "B", "C")

    def test_five(self):
        assert door_labels(5) == ("A", "B", "C", "D4", "D5")

    def test_too_few(self):
        with pytest.raises(DomainError):
            door_labels(2)

    def test_at_the_limit(self):
        assert door_labels(MAX_DOORS)[-1] == f"D{MAX_DOORS}"

    def test_too_many(self):
        # refused before any label or likelihood cell is built
        with pytest.raises(DomainError, match=f"at most {MAX_DOORS} doors"):
            door_labels(MAX_DOORS + 1)
        with pytest.raises(DomainError):
            MhpConfig(door_count=10**12)


class TestMhpConfig:
    def test_defaults(self):
        cfg = MhpConfig()
        assert cfg.prior == Distribution.uniform(("A", "B", "C"))
        assert cfg.contestant_pick == "A"
        assert cfg.host_policy is HostPolicy.STANDARD

    def test_bad_pick(self):
        with pytest.raises(UnknownLabelError):
            MhpConfig(contestant_pick="Z")

    def test_prior_over_wrong_labels(self):
        prior = Distribution(("X", "Y", "Z"), [Fraction(1, 3)] * 3)
        with pytest.raises(InvariantViolation):
            MhpConfig(prior=prior)

    def test_too_few_doors(self):
        with pytest.raises(DomainError):
            MhpConfig(door_count=2)


class TestStandardGenerator:
    def test_traditional_matrix(self, traditional):
        om = traditional.observation_model
        assert om.observation_labels == ("Monty_B", "Monty_C")
        assert likelihood(om, "Monty_B", "A") == Fraction(1, 2)
        assert likelihood(om, "Monty_B", "B") == Fraction(0)
        assert likelihood(om, "Monty_B", "C") == Fraction(1)
        assert likelihood(om, "Monty_C", "B") == Fraction(1)

    def test_all_exact(self, traditional, biased):
        assert set(probability_types(traditional)) == {Fraction}
        assert set(probability_types(biased)) == {Fraction}

    def test_four_door_posteriors(self):
        scenario = mhp_scenario(MhpConfig(door_count=4))
        ms, om = scenario.model_space, scenario.observation_model
        assert evidence(ms, om, "Monty_B") == Fraction(1, 3)
        assert transfer_report(ms, om, "Monty_B").posteriors == (
            Fraction(1, 4), Fraction(0), Fraction(3, 8), Fraction(3, 8)
        )

    @pytest.mark.parametrize("doors", [3, 4, 6, 9])
    def test_pick_keeps_prior_probability(self, doors):
        # one reveal teaches nothing about the picked door
        scenario = mhp_scenario(MhpConfig(door_count=doors))
        ms, om = scenario.model_space, scenario.observation_model
        opened = om.observation_labels[0]
        posteriors = transfer_report(ms, om, opened).posteriors
        assert posteriors[ms.labels.index("A")] == Fraction(1, doors)

    def test_non_default_pick(self):
        scenario = mhp_scenario(MhpConfig(contestant_pick="B"))
        om = scenario.observation_model
        assert om.observation_labels == ("Monty_A", "Monty_C")
        assert likelihood(om, "Monty_A", "B") == Fraction(1, 2)
        assert likelihood(om, "Monty_A", "C") == Fraction(1)

    def test_metadata(self):
        scenario = mhp_scenario(MhpConfig(door_count=4, contestant_pick="C"))
        assert scenario.metadata["door_count"] == 4
        assert scenario.metadata["contestant_pick"] == "C"
        assert scenario.metadata["host_policy"] == "standard"


class TestForgetfulGenerator:
    def test_observation_space_includes_car_reveals(self, forgetful):
        om = forgetful.observation_model
        assert om.observation_labels == (
            "Monty_B",
            "Monty_C",
            "Monty_B_car",
            "Monty_C_car",
        )

    def test_goat_reveal_likelihoods(self, forgetful):
        om = forgetful.observation_model
        assert likelihood(om, "Monty_B", "A") == Fraction(1, 2)
        assert likelihood(om, "Monty_B", "B") == Fraction(0)
        assert likelihood(om, "Monty_B", "C") == Fraction(1, 2)

    def test_car_reveal_likelihoods(self, forgetful):
        om = forgetful.observation_model
        assert likelihood(om, "Monty_B_car", "B") == Fraction(1, 2)
        assert likelihood(om, "Monty_B_car", "A") == Fraction(0)

    def test_goat_reveal_evidence(self, forgetful):
        ms, om = forgetful.model_space, forgetful.observation_model
        assert evidence(ms, om, "Monty_B") == Fraction(1, 3)

    def test_posteriors_after_goat_reveal(self, forgetful):
        ms, om = forgetful.model_space, forgetful.observation_model
        posteriors = transfer_report(ms, om, "Monty_B").posteriors
        assert posteriors == (Fraction(1, 2), Fraction(0), Fraction(1, 2))


class TestScenarioType:
    def test_label_mismatch_rejected(self, traditional):
        ms = traditional.model_space
        om = traditional.observation_model
        from bayesbits import ModelSpace

        other = ModelSpace(prior=Distribution(("X", "Y", "Z"), [Fraction(1, 3)] * 3))
        with pytest.raises(InvariantViolation):
            Scenario(name="bad", model_space=other, observation_model=om)

    @pytest.mark.parametrize("metadata, kind", [
        ([1], "list"), ("abc", "str"), ([("k", "v")], "list"), ((), "tuple"),
    ], ids=["list", "str", "pairs", "tuple"])
    def test_metadata_must_be_a_dict(self, traditional, metadata, kind):
        # a load refuses metadata that is not an object, so a Scenario does too
        with pytest.raises(InvariantViolation, match=f"metadata must be a dict, got {kind}"):
            Scenario("bad", traditional.model_space, traditional.observation_model, metadata)

    def test_is_exact_false_with_float_prior(self):
        from bayesbits import ModelSpace, ObservationModel

        s = Scenario(
            name="floaty",
            model_space=ModelSpace(prior=Distribution(("A", "B"), (0.5, 0.5))),
            observation_model=ObservationModel(
                ("x",), ("A", "B"), [[Fraction(1), Fraction(1)]]
            ),
        )
        assert probability_types(s) == [float, float, Fraction, Fraction]


class TestInternedLikelihood:
    """``values`` holds each distinct likelihood value once; ``cells`` each row as indices into it."""

    def test_values_in_first_appearance_order_and_cells_are_indices(self):
        half, quarter, three_quarters = Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)
        om = ObservationModel(["x", "y"], ["M0", "M1"], [[quarter, half], [three_quarters, half]])
        assert om.values == (quarter, half, three_quarters)
        assert [type(p) for p in om.values] == [Fraction] * 3
        assert om.values[0] is quarter and om.values[1] is half and om.values[2] is three_quarters
        assert om.cells == ((0, 1), (2, 1))

    def test_int_and_string_cells_become_one_fraction_each(self):
        half = "1/2"
        om = ObservationModel(["x", "y"], ["M0", "M1"], [[half, 1], [half, 0]])
        assert om.values == (Fraction(1, 2), Fraction(1), Fraction(0))
        assert [type(p) for p in om.values] == [Fraction] * 3
        assert om.cells == ((0, 1), (0, 2))
        assert om.likelihood[0][0] is om.likelihood[1][0]

    def test_likelihood_gives_back_the_same_objects(self):
        third, two_thirds = Fraction(1, 3), Fraction(2, 3)
        rows = [[third, two_thirds], [two_thirds, third]]
        om = ObservationModel(["x", "y"], ["M0", "M1"], rows)
        assert om.likelihood == ((third, two_thirds), (two_thirds, third))
        assert all(p is q for row, given in zip(om.likelihood, rows) for p, q in zip(row, given))
        assert ObservationModel(om.observation_labels, om.model_labels, om.likelihood).values == (
            third, two_thirds
        )

    @pytest.mark.parametrize("game", [
        MhpConfig(door_count=6), MhpConfig(door_count=6, host_policy=HostPolicy.FORGETFUL),
        # the prior's 1/2 is a likelihood too; its 1/3 and 1/6 are the prior's alone
        MhpConfig(prior=Distribution(door_labels(3), ["1/2", "1/3", "1/6"])),
    ], ids=["standard", "forgetful", "biased"])
    def test_a_parsed_model_equals_the_code_built_one(self, game):
        built = mhp_scenario(game).observation_model
        parsed = scenario_from_json_text(scenario_to_json_text(mhp_scenario(game)))
        om = parsed.observation_model
        assert om == built
        assert (om.values, om.cells) == (built.values, built.cells)
        assert set(om.values) == {p for row in built.likelihood for p in row}  # none prior-only


def per_cell_game(doors: int, pick: str, policy: HostPolicy):
    """The observations and rows of a Monty Hall game, written one cell at a time from
    one object per distinct value: the reference the interned generators must equal."""
    labels = door_labels(doors)
    opened = [d for d in labels if d != pick]
    zero, one_of = Fraction(0), Fraction(1, doors - 1)
    if policy is HostPolicy.STANDARD:
        elsewhere = Fraction(1, doors - 2)
        rows = [[zero if t == d else one_of if t == pick else elsewhere for t in labels]
                for d in opened]
        return [f"Monty_{d}" for d in opened], rows
    rows = [[zero if t == d else one_of for t in labels] for d in opened]
    rows += [[one_of if t == d else zero for t in labels] for d in opened]
    return [f"Monty_{d}" for d in opened] + [f"Monty_{d}_car" for d in opened], rows


@pytest.fixture
def slow_sums(monkeypatch):
    """The arguments of each call the column check makes to ``_sum_unless_one``."""
    calls = []
    sum_unless_one = scenario_module._sum_unless_one
    monkeypatch.setattr(scenario_module, "_sum_unless_one",
                        lambda *args: calls.append(args) or sum_unless_one(*args))
    return calls


def every_game(sizes):
    return [MhpConfig(door_count=n, contestant_pick=pick, host_policy=policy)
            for n in sizes for policy in HostPolicy for pick in door_labels(n)]


class TestInternedGenerators:
    """The generators build ``values`` and ``cells`` directly, as a code-built model holds them."""

    def test_equal_to_the_per_cell_model_field_by_field(self):
        digest = hashlib.sha256()
        for game in every_game(range(3, 25)):
            generated = mhp_scenario(game)
            observations, rows = per_cell_game(game.door_count, game.contestant_pick,
                                               game.host_policy)
            om = ObservationModel(observations, door_labels(game.door_count), rows)
            built = Scenario(generated.name, generated.model_space, om, generated.metadata)
            got = generated.observation_model
            assert got == om
            assert (got.values, got.cells) == (om.values, om.cells)
            assert [type(p) for p in got.values] == [Fraction] * len(om.values)
            text = scenario_to_json_text(generated)
            assert text == scenario_to_json_text(built)
            digest.update(text.encode())
        # the bytes the per-cell generators wrote for N 3 to 24, both hosts, every pick
        assert digest.hexdigest() == (
            "cccf132acc11d6078b87b8d49c0d590aa3c9ed52cd023509a9639e4d17097d06"
        )

    def test_no_id_dedupe_and_no_slow_column_sum(self, monkeypatch, slow_sums):
        def refuse(*args):
            raise AssertionError("ObservationModel.__init__ called")

        monkeypatch.setattr(ObservationModel, "__init__", refuse)
        for game in every_game([3, 4, 5, 7, 12, 40]):
            scenario_from_json_text(scenario_to_json_text(mhp_scenario(game)))
        assert slow_sums == []


def column_check_error(rows: list[list], parsed: bool) -> str | None:
    """The column check's message on ``rows`` (models M0, M1, ...), from a parsed
    document or from a code-built model; None when the columns pass."""
    observations = [f"x{i}" for i in range(len(rows))]
    models = [f"M{j}" for j in range(len(rows[0]))]
    try:
        if parsed:
            scenario_from_json_text(json.dumps({
                "name": "t",
                "models": [{"label": m, "prior": 1 if j == 0 else 0} for j, m in enumerate(models)],
                "observations": observations,
                "likelihood": rows,
            }))
        else:
            ObservationModel(observations, models, rows)
    except InvariantViolation as exc:
        return str(exc)
    return None


class TestColumnCheckMessages:
    """Each column-check outcome keeps its text, on a parsed file and on a code-built model."""

    @pytest.mark.parametrize("parsed", [True, False], ids=["parsed", "code-built"])
    @pytest.mark.parametrize("rows, expected", [
        ([["1/2"], ["1/3"], ["1/5"]], "likelihood column for model 'M0' sums to 31/30, expected 1"),
        ([[0.5], [0.6]], "likelihood column for model 'M0' sums to 1.1, expected 1"),
        # 1 - 2**-55 and 1 + 2**-54 exactly: within FLOAT_SUM_TOL, so they pass
        ([[0.1], [0.2], [0.7]], None),
        ([[0.1]] * 10, None),
        # an exact value beside a float: the float tolerance applies
        ([["1/3"], [0.6666666666666666]], None),
        ([["1/2", "1/2", "1/2"], ["1/2", "1/3", "0"], ["0", "1/5", "0"]],
         "likelihood column for model 'M1' sums to 31/30, expected 1"),
        ([["1/2", "1/2", "1/2"], ["1/2", "1/2", "0"], ["0", "1/2", "0"]],
         "likelihood column for model 'M1' sums to 3/2, expected 1"),
        ([[f"1/{3**4000}"], [f"{7**4000 - 1}/{7**4000}"]],
         "likelihood column for model 'M0' sums to 1.0 (rounded), expected 1"),
    ], ids=["exact", "float-beyond", "float-below", "float-above", "mixed", "first-named",
            "first-of-two", "rounded"])
    def test_message(self, rows, expected, parsed):
        assert column_check_error(rows, parsed) == expected

    def test_exact_sums_of_one_skip_the_slow_sum(self, slow_sums):
        rows = [["1/2", "1/7", 0.5], ["1/3", "6/7", 0.25], ["1/6", "0", 0.25]]
        for parsed in (True, False):
            assert column_check_error(rows, parsed) is None
        assert slow_sums == []
        assert column_check_error([[0.1], [0.2], [0.7]], parsed=False) is None
        assert len(slow_sums) == 1


class TestFileFormat:
    def test_roundtrip_exact(self, tmp_path, biased):
        path = tmp_path / "biased.json"
        save_scenario(biased, path)
        again = load_scenario(path)
        assert again == biased
        assert set(probability_types(again)) == {Fraction}

    def test_roundtrip_forgetful(self, tmp_path, forgetful):
        path = tmp_path / "forget.json"
        save_scenario(forgetful, path)
        assert load_scenario(path) == forgetful

    def test_rational_strings_survive(self, tmp_path, biased):
        path = tmp_path / "biased.json"
        save_scenario(biased, path)
        text = path.read_text()
        assert '"1/2"' in text
        assert '"7/12"' not in text  # evidence is derived, never stored

    def test_float_entries_parse_as_floats(self):
        text = """
        {
          "name": "floaty",
          "models": [{"label": "A", "prior": 0.5}, {"label": "B", "prior": 0.5}],
          "observations": ["x"],
          "likelihood": [[1, 1]]
        }
        """
        s = scenario_from_json_text(text)
        assert probability_types(s.model_space) == [float, float]
        assert likelihood(s.observation_model, "x", "A") == Fraction(1)

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text('{"name": "x", "bogus": 1}')
        assert "bogus" in str(exc.value)

    def test_unknown_model_key(self):
        text = """
        {
          "name": "x",
          "models": [{"label": "A", "prior": 1, "weight": 2}],
          "observations": ["x"],
          "likelihood": [[1]]
        }
        """
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text(text)
        assert "weight" in str(exc.value)

    @pytest.mark.parametrize("models", [[], 5, {}, "A"], ids=["empty", "int", "object", "string"])
    def test_models_must_be_a_non_empty_list(self, models):
        text = json.dumps({"name": "x", "models": models, "observations": ["x"], "likelihood": [[1]]})
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text(text)
        assert str(exc.value) == "<string>: models: expected a non-empty list"

    @pytest.mark.parametrize("entry", [{"label": "A"}, {"prior": 1}, {}], ids=["label", "prior", "none"])
    def test_a_model_needs_both_label_and_prior(self, entry):
        text = json.dumps({"name": "x", "models": [entry], "observations": ["x"], "likelihood": [[1]]})
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text(text)
        assert str(exc.value) == "<string>: models[0]: needs both 'label' and 'prior'"

    def test_missing_required_key(self):
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text('{"name": "x"}')
        assert "models" in str(exc.value)

    def test_json_syntax_error_reports_position(self):
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text('{"name": "x"', source="broken.json")
        message = str(exc.value)
        assert "broken.json" in message
        assert "line 1" in message

    def test_bad_probability_string_names_the_cell(self):
        text = """
        {
          "name": "x",
          "models": [{"label": "A", "prior": 1}],
          "observations": ["x", "y"],
          "likelihood": [["1/2"], ["half"]]
        }
        """
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text(text)
        assert "likelihood[1][0]" in str(exc.value)

    def test_zero_denominator(self):
        text = """
        {
          "name": "x",
          "models": [{"label": "A", "prior": "1/0"}],
          "observations": ["x"],
          "likelihood": [[1]]
        }
        """
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text(text)
        assert "denominator" in str(exc.value)

    def test_out_of_range_probability(self):
        text = """
        {
          "name": "x",
          "models": [{"label": "A", "prior": "3/2"}],
          "observations": ["x"],
          "likelihood": [[1]]
        }
        """
        with pytest.raises(ScenarioFormatError):
            scenario_from_json_text(text)

    def test_bool_probability_rejected(self):
        text = """
        {
          "name": "x",
          "models": [{"label": "A", "prior": true}],
          "observations": ["x"],
          "likelihood": [[1]]
        }
        """
        with pytest.raises(ScenarioFormatError):
            scenario_from_json_text(text)

    def test_invariant_failures_propagate(self):
        # parses fine, but the likelihood column does not sum to 1
        text = """
        {
          "name": "x",
          "models": [{"label": "A", "prior": 1}],
          "observations": ["x", "y"],
          "likelihood": [["1/2"], ["1/3"]]
        }
        """
        with pytest.raises(InvariantViolation):
            scenario_from_json_text(text)

    def test_metadata_preserved(self, tmp_path):
        scenario = mhp_scenario(MhpConfig())
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        assert load_scenario(path).metadata == scenario.metadata

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFormatError):
            load_scenario(tmp_path / "nope.json")

    def test_serialized_text_is_stable(self, traditional):
        assert scenario_to_json_text(traditional) == scenario_to_json_text(traditional)


def scenario_document(priors: list, rows: list[list]) -> str:
    """Scenario JSON with models M0, M1, ... and observations x0, x1, ..."""
    return json.dumps({
        "name": "t",
        "models": [{"label": f"M{i}", "prior": p} for i, p in enumerate(priors)],
        "observations": [f"x{i}" for i in range(len(rows))],
        "likelihood": rows,
    })


class TestRepeatedStrings:
    """A string that repeats is parsed once per document, with no change in result."""

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("half", "cannot parse probability from 'half': expected 'num/den' or a decimal"),
            ("3/2", "probability 3/2 outside [0, 1]"),
            ("1/0", "zero denominator in '1/0'"),
        ],
    )
    def test_bad_string_reported_at_its_first_cell(self, bad, reason):
        text = scenario_document(["1/2", "1/2"], [["1/2", bad], [bad, "1/2"], ["0", bad]])
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text(text)
        assert str(exc.value) == f"<string>: likelihood[0][1]: {reason}"

    def test_spellings_of_one_value(self):
        # three exact spellings of 1/4 and one JSON number: a float scenario
        text = scenario_document(
            ["1/4", "2/8", "0.25", 0.25],
            [["1/4", "2/8", "0.25", 0.25], ["3/4", "6/8", "0.75", 0.75]],
        )
        s = scenario_from_json_text(text)
        assert float in probability_types(s)
        lik = s.observation_model.likelihood
        for values, exact in (
            (s.model_space.prior.probs, Fraction(1, 4)),
            (lik[0], Fraction(1, 4)),
            (lik[1], Fraction(3, 4)),
        ):
            assert [type(p) for p in values] == [Fraction] * 3 + [float]
            assert values[:3] == (exact,) * 3
            assert values[3] == float(exact)

    def test_bool_after_equal_values_refused_at_its_cell(self):
        # true equals and hashes as 1, which the document also holds
        text = scenario_document(["1/2", 0.5], [[1, "1/2"], [0, True]])
        with pytest.raises(ScenarioFormatError) as exc:
            scenario_from_json_text(text)
        assert str(exc.value) == "<string>: likelihood[1][1]: probability must be numeric, got True"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=20,
)

# One probability cell as a file may hold it: valid or not, any JSON type.
cells = st.one_of(
    st.integers(-2, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(0, 10**6)),
    st.sampled_from(["1/1", "0/1", "1/2", " 1 / 2 ", "1/0", "-1/2", "0.5", "1e0", "half", ""]),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)


@st.composite
def scenario_documents(draw):
    """A valid scenario document with some cells and labels spoiled, or a row cut short."""
    n_models, n_obs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    spoiled = st.integers(0, 3).map(lambda k: k == 0)  # true one time in four

    def dist(size):
        weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        return [draw(cells) if draw(spoiled) else f"{w}/{sum(weights)}" for w in weights]

    def label(text):
        bad = st.sampled_from(["M0", "x0", "", "x\ud800", "\udfff"]) | json_values
        return draw(bad) if draw(spoiled) else text

    columns = [dist(n_obs) for _ in range(n_models)]
    doc = {
        "name": label("fuzz"),
        "models": [{"label": label(f"M{i}"), "prior": p} for i, p in enumerate(dist(n_models))],
        "observations": [label(f"x{i}") for i in range(n_obs)],
        "likelihood": [[columns[j][i] for j in range(n_models)] for i in range(n_obs)],
    }
    if draw(spoiled):
        draw(st.sampled_from(doc["likelihood"])).pop()
    if draw(st.booleans()):
        doc["metadata"] = draw(json_values)
    return json.dumps(doc)


def parses_or_fails_cleanly(text):
    """A Scenario, or a BayesBitsError (then None): never any other exception."""
    try:
        result = scenario_from_json_text(text)
    except BayesBitsError:
        return None
    assert isinstance(result, Scenario)
    return result


class TestParserFuzz:
    @given(st.text())
    def test_arbitrary_text(self, text):
        parses_or_fails_cleanly(text)

    @given(json_values)
    def test_arbitrary_json(self, value):
        parses_or_fails_cleanly(json.dumps(value))

    @given(scenario_documents())
    def test_scenario_shaped_documents(self, text):
        scenario = parses_or_fails_cleanly(text)
        if scenario is None:
            return
        # what parses also prints: every format encodes as UTF-8
        ms, om = scenario.model_space, scenario.observation_model
        x = next((x for x in om.observation_labels if evidence(ms, om, x) != 0), None)
        if x is None:
            return
        doc = build_report(scenario, x)
        for text in (render_table(doc, 6), render_json(doc), render_csv(doc)):
            text.encode("utf-8")


# every key type json.dumps accepts: a non-text key takes the encoder's path
metadata_keys = st.text(max_size=12) | st.integers() | st.booleans() | st.none() | st.floats()


@st.composite
def printable_scenarios(draw):
    """Scenarios with any labels, name and metadata, exact or float cells."""
    n_models, n_obs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    labels = st.lists(st.text(max_size=6), unique=True, min_size=n_models + n_obs,
                      max_size=n_models + n_obs)
    names = draw(labels)

    def dist(size):
        weights = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size).filter(any))
        exact = [Fraction(w, sum(weights)) for w in weights]
        return exact if draw(st.booleans()) else [float(p) for p in exact]

    columns = [dist(n_obs) for _ in range(n_models)]
    return Scenario(
        draw(st.text()),
        ModelSpace(Distribution(names[:n_models], dist(n_models))),
        ObservationModel(names[n_models:], names[:n_models],
                         [[columns[j][i] for j in range(n_models)] for i in range(n_obs)]),
        draw(st.dictionaries(metadata_keys, json_values, max_size=4)),
    )


def dumped_text(scenario):
    """``json.dumps(document, indent=2)`` of ``scenario``'s file, with a newline."""
    ms, om = scenario.model_space, scenario.observation_model

    def cell(p):
        return f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else p

    doc = {
        "name": scenario.name,
        "models": [{"label": m, "prior": cell(p)} for m, p in zip(ms.labels, ms.prior.probs)],
        "observations": list(om.observation_labels),
        "likelihood": [[cell(p) for p in row] for row in om.likelihood],
        "metadata": scenario.metadata,
    }
    return json.dumps(doc, indent=2) + "\n"


def with_metadata(metadata):
    return Scenario("meta", ModelSpace(Distribution(["A"], [1])),
                    ObservationModel(["x"], ["A"], [[1]]), metadata)


class TestCanonicalText:
    @given(printable_scenarios())
    def test_text_is_json_dumps_with_indent(self, scenario):
        assert scenario_to_json_text(scenario) == dumped_text(scenario)

    @pytest.mark.parametrize("metadata", [
        {},
        {"flag": True, "count": 1, "off": False, "zero": 0},
        {"negative zero": -0.0, "float": 1.5, "tiny": 5e-324, "big": -(10 ** 30)},
        {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")},
        {"none": None, "": ""},
        {"d\u00e9j\u00e0": "\u00fc \u2603 \U0001f600", "\u2603": "x\udfff"},
        {"control": "\x00\x1f\t\n\r\x7f\"\\/", "\x01\n": "\u2028"},
        {"variant": "custom-16", "door_count": 16, "contestant_pick": "A", "host_policy": "forgetful"},
    ])
    def test_flat_metadata_is_json_dumps_with_indent(self, metadata):
        scenario = with_metadata(metadata)
        assert scenario_to_json_text(scenario) == dumped_text(scenario)

    @pytest.mark.parametrize("metadata", [
        {"digits": 10 ** 4400},
        {"set": {1, 2}},
        {"ok": 1, "nested": [10 ** 4400]},
        {7: {1, 2}},
    ])
    def test_unencodable_metadata_raises_as_json_dumps_does(self, metadata):
        scenario = with_metadata(metadata)
        with pytest.raises(Exception) as expected:
            dumped_text(scenario)
        with pytest.raises(Exception) as raised:
            scenario_to_json_text(scenario)
        assert raised.type is expected.type

    def test_all_distinct_values_round_trip(self, tmp_path):
        # every cell its own Fraction object, as random scenarios build them
        rng = random.Random(88)

        def column(size):
            weights = [rng.randint(0, 12) for _ in range(size - 1)] + [1]
            return [Fraction(w, sum(weights)) for w in weights]

        columns = [column(8) for _ in range(8)]
        labels = [f"M{j}" for j in range(8)]
        scenario = Scenario(
            name="distinct 8x8",
            model_space=ModelSpace(Distribution(labels, column(8))),
            observation_model=ObservationModel(
                [f"x{i}" for i in range(8)], labels, [[c[i] for c in columns] for i in range(8)]
            ),
        )
        cells = [p for row in scenario.observation_model.likelihood for p in row]
        assert len({id(p) for p in cells}) == 64
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_scenario(scenario, first)
        loaded = load_scenario(first)
        save_scenario(loaded, second)
        assert loaded == scenario
        assert second.read_bytes() == first.read_bytes()

    def test_save_over_a_longer_file(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(mhp_scenario(MhpConfig(door_count=9)), path)
        small = mhp_scenario(MhpConfig())
        save_scenario(small, path)
        assert path.read_text(encoding="utf-8") == scenario_to_json_text(small)

    def test_save_to_a_device(self):
        save_scenario(mhp_scenario(MhpConfig()), os.devnull)


def scenario_with(field, bad):
    """A valid scenario but for ``field``, set to ``bad``."""
    models = ["A", bad] if field == "model" else ["A", "B"]
    observations = ["x", bad] if field == "observation" else ["x", "y"]
    return Scenario(
        bad if field == "name" else "ok",
        ModelSpace(Distribution(models, ["1/2", "1/2"])),
        ObservationModel(observations, models, [["1/2", 1], ["1/2", 0]]),
    )


class TestSaveRefusesWhatLoadRefuses:
    FIELDS = {"name": "name", "model": r"models\[1\]\.label", "observation": r"observations\[1\]"}

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad, problem", [
        ("A\ud800", "not encodable as UTF-8"),
        ("\udc80\ud800", "not encodable as UTF-8"),
        (7, "expected a string, got int"),
        (None, "expected a string, got NoneType"),
    ], ids=["surrogate", "reversed-pair", "int", "none"])
    def test_the_file_keeps_its_bytes(self, tmp_path, field, bad, problem):
        path = tmp_path / "kept.json"
        path.write_bytes(b"old bytes")
        with pytest.raises(ScenarioFormatError, match=self.FIELDS[field] + ": " + problem):
            save_scenario(scenario_with(field, bad), path)
        assert path.read_bytes() == b"old bytes"

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_surrogate_pair_saves_and_loads(self, tmp_path, field):
        # escaped as \ud83d\ude00, which json.loads joins back into one character
        scenario = scenario_with(field, "A\U0001f600")
        save_scenario(scenario, tmp_path / "pair.json")
        assert load_scenario(tmp_path / "pair.json") == scenario
