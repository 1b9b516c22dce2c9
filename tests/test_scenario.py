"""Monty Hall generators and the scenario file format."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayesbits import (
    BayesBitsError,
    Distribution,
    DomainError,
    HostPolicy,
    InvariantViolation,
    MhpConfig,
    Scenario,
    ScenarioFormatError,
    UnknownLabelError,
    door_labels,
    evidence,
    load_scenario,
    mhp_scenario,
    posterior_prob_oracle,
    save_scenario,
    scenario_from_json_text,
    scenario_to_json_text,
)
from bayesbits.cli import build_report, render_csv, render_json, render_table
from bayesbits.scenario import MAX_DOORS


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
        assert om.likelihood_of("Monty_B", "A") == Fraction(1, 2)
        assert om.likelihood_of("Monty_B", "B") == Fraction(0)
        assert om.likelihood_of("Monty_B", "C") == Fraction(1)
        assert om.likelihood_of("Monty_C", "B") == Fraction(1)

    def test_all_exact(self, traditional, biased):
        assert traditional.is_exact
        assert biased.is_exact

    def test_four_door_posteriors(self):
        scenario = mhp_scenario(MhpConfig(door_count=4))
        ms, om = scenario.model_space, scenario.observation_model
        assert evidence(ms, om, "Monty_B") == Fraction(1, 3)
        assert posterior_prob_oracle(ms, om, "Monty_B", "A") == Fraction(1, 4)
        assert posterior_prob_oracle(ms, om, "Monty_B", "B") == Fraction(0)
        assert posterior_prob_oracle(ms, om, "Monty_B", "C") == Fraction(3, 8)
        assert posterior_prob_oracle(ms, om, "Monty_B", "D4") == Fraction(3, 8)

    @pytest.mark.parametrize("doors", [3, 4, 6, 9])
    def test_pick_keeps_prior_probability(self, doors):
        # one reveal teaches nothing about the picked door
        scenario = mhp_scenario(MhpConfig(door_count=doors))
        ms, om = scenario.model_space, scenario.observation_model
        opened = om.observation_labels[0]
        assert posterior_prob_oracle(ms, om, opened, "A") == Fraction(1, doors)

    def test_non_default_pick(self):
        scenario = mhp_scenario(MhpConfig(contestant_pick="B"))
        om = scenario.observation_model
        assert om.observation_labels == ("Monty_A", "Monty_C")
        assert om.likelihood_of("Monty_A", "B") == Fraction(1, 2)
        assert om.likelihood_of("Monty_A", "C") == Fraction(1)

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
        assert om.likelihood_of("Monty_B", "A") == Fraction(1, 2)
        assert om.likelihood_of("Monty_B", "B") == Fraction(0)
        assert om.likelihood_of("Monty_B", "C") == Fraction(1, 2)

    def test_car_reveal_likelihoods(self, forgetful):
        om = forgetful.observation_model
        assert om.likelihood_of("Monty_B_car", "B") == Fraction(1, 2)
        assert om.likelihood_of("Monty_B_car", "A") == Fraction(0)

    def test_goat_reveal_evidence(self, forgetful):
        ms, om = forgetful.model_space, forgetful.observation_model
        assert evidence(ms, om, "Monty_B") == Fraction(1, 3)

    def test_posteriors_after_goat_reveal(self, forgetful):
        ms, om = forgetful.model_space, forgetful.observation_model
        assert posterior_prob_oracle(ms, om, "Monty_B", "A") == Fraction(1, 2)
        assert posterior_prob_oracle(ms, om, "Monty_B", "B") == Fraction(0)
        assert posterior_prob_oracle(ms, om, "Monty_B", "C") == Fraction(1, 2)


class TestScenarioType:
    def test_label_mismatch_rejected(self, traditional):
        ms = traditional.model_space
        om = traditional.observation_model
        from bayesbits import ModelSpace

        other = ModelSpace(prior=Distribution(("X", "Y", "Z"), [Fraction(1, 3)] * 3))
        with pytest.raises(InvariantViolation):
            Scenario(name="bad", model_space=other, observation_model=om)

    def test_is_exact_false_with_float_prior(self):
        from bayesbits import ModelSpace, ObservationModel

        s = Scenario(
            name="floaty",
            model_space=ModelSpace(prior=Distribution(("A", "B"), (0.5, 0.5))),
            observation_model=ObservationModel(
                ("x",), ("A", "B"), [[Fraction(1), Fraction(1)]]
            ),
        )
        assert not s.is_exact


class TestFileFormat:
    def test_roundtrip_exact(self, tmp_path, biased):
        path = tmp_path / "biased.json"
        save_scenario(biased, path)
        again = load_scenario(path)
        assert again == biased
        assert again.is_exact

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
        assert not s.model_space.prior.is_exact
        assert s.observation_model.likelihood_of("x", "A") == Fraction(1)

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
