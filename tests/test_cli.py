"""Command-line behavior: formats, determinism, exit codes."""

import json
import math
from fractions import Fraction

import pytest

from bayesbits import cli, load_scenario, verify
from bayesbits.scenario import MAX_DOORS


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenarios")
    paths = {}
    for variant in ("traditional", "biased", "forgetful"):
        path = root / f"{variant}.json"
        assert cli.main(["mhp", variant, "--out", str(path)]) == 0
        paths[variant] = str(path)
    floaty = root / "floaty.json"
    floaty.write_text(
        json.dumps(
            {
                "name": "Float scenario",
                "models": [
                    {"label": "H1", "prior": 0.5},
                    {"label": "H2", "prior": 0.5},
                ],
                "observations": ["x", "y"],
                "likelihood": [[0.25, 0.75], [0.75, 0.25]],
            }
        )
    )
    paths["floaty"] = str(floaty)
    impossible = root / "impossible.json"
    impossible.write_text(
        json.dumps(
            {
                "name": "Impossible obs",
                "models": [
                    {"label": "H1", "prior": "1/1"},
                    {"label": "H2", "prior": "0/1"},
                ],
                "observations": ["x", "y"],
                "likelihood": [["1/1", "0/1"], ["0/1", "1/1"]],
            }
        )
    )
    paths["impossible"] = str(impossible)
    return paths


class TestMhp:
    def test_traditional_to_stdout(self, capsys):
        assert cli.main(["mhp", "traditional"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "Traditional Monty Hall"
        assert [m["prior"] for m in doc["models"]] == ["1/3", "1/3", "1/3"]
        assert doc["observations"] == ["Monty_B", "Monty_C"]

    def test_biased_prior(self, capsys):
        assert cli.main(["mhp", "biased"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [m["prior"] for m in doc["models"]] == ["1/2", "1/3", "1/6"]

    def test_forgetful_has_car_reveals(self, capsys):
        assert cli.main(["mhp", "forgetful"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "Monty_B_car" in doc["observations"]

    def test_stdout_is_loadable(self, capsys, tmp_path):
        assert cli.main(["mhp", "biased"]) == 0
        path = tmp_path / "round.json"
        path.write_text(capsys.readouterr().out)
        scenario = load_scenario(path)
        assert scenario.is_exact

    def test_custom_doors_flag(self, capsys):
        assert cli.main(["mhp", "custom-N", "--doors", "5", "--pick", "A"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["models"]) == 5
        assert doc["metadata"]["door_count"] == 5

    def test_custom_inline_count(self, capsys):
        assert cli.main(["mhp", "custom-4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [m["label"] for m in doc["models"]] == ["A", "B", "C", "D4"]

    def test_custom_with_prior_and_policy(self, capsys):
        code = cli.main(
            ["mhp", "custom-3", "--prior", "1/2,1/3,1/6", "--policy", "forgetful"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["host_policy"] == "forgetful"
        assert doc["models"][0]["prior"] == "1/2"

    def test_custom_without_doors_errors(self, capsys):
        assert cli.main(["mhp", "custom-N"]) == 2
        assert "--doors" in capsys.readouterr().err

    def test_conflicting_door_counts(self, capsys):
        assert cli.main(["mhp", "custom-4", "--doors", "5"]) == 2

    def test_preset_rejects_custom_flags(self, capsys):
        assert cli.main(["mhp", "traditional", "--doors", "5"]) == 2

    def test_unknown_variant(self, capsys):
        assert cli.main(["mhp", "weird"]) == 2

    def test_bad_prior_flag(self, capsys):
        assert cli.main(["mhp", "custom-3", "--prior", "a,b,c"]) == 2

    def test_prior_length_mismatch(self, capsys):
        assert cli.main(["mhp", "custom-4", "--prior", "1/2,1/2"]) == 2

    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert cli.main(["mhp", "traditional", "--out", str(path)]) == 0
        assert path.exists()
        assert load_scenario(path).name == "Traditional Monty Hall"

    def test_deterministic_output(self, capsys):
        cli.main(["mhp", "forgetful"])
        first = capsys.readouterr().out
        cli.main(["mhp", "forgetful"])
        assert capsys.readouterr().out == first


class TestSolve:
    def test_traditional_table_rows(self, scenario_files, capsys):
        assert cli.main(["solve", scenario_files["traditional"], "--observe", "Monty_B"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        row_c = next(line for line in lines if line.startswith("C"))
        assert "1.000000" in row_c
        assert "0.666667" in row_c
        assert "informs" in row_c
        row_b = next(line for line in lines if line.startswith("B"))
        assert "-inf" in row_b
        assert "misleads" in row_b

    def test_biased_table_shows_negative_transfer(self, scenario_files, capsys):
        assert cli.main(["solve", scenario_files["biased"], "--observe", "Monty_C"]) == 0
        out = capsys.readouterr().out
        row_a = next(line for line in out.splitlines() if line.startswith("A"))
        assert "-0.222392" in row_a
        assert "misleads" in row_a

    def test_forgetful_table(self, scenario_files, capsys):
        assert cli.main(["solve", scenario_files["forgetful"], "--observe", "Monty_B"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.startswith(("A", "C"))]
        assert all("0.584963" in row for row in rows)

    def test_table_aggregates(self, scenario_files, capsys):
        assert cli.main(["solve", scenario_files["traditional"], "--observe", "Monty_B"]) == 0
        out = capsys.readouterr().out
        assert "KL(posterior || prior): 0.666667 bits" in out
        assert "mutual information: 0.666667 bits" in out

    def test_json_format(self, scenario_files, capsys):
        code = cli.main(
            ["solve", scenario_files["biased"], "--observe", "Monty_C", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["observation"] == "Monty_C"
        assert doc["evidence"] == "7/12"
        by_model = {m["model"]: m for m in doc["models"]}
        assert by_model["C"]["tic_bits"] == "-Infinity"
        assert by_model["C"]["likelihood_bits"] == "Infinity"
        assert by_model["A"]["tic_bits"] == pytest.approx(-0.22239242133644793)
        assert by_model["A"]["posterior_prob"] == pytest.approx(3 / 7)

    def test_json_never_emits_nan_or_bare_inf(self, scenario_files, capsys):
        cli.main(["solve", scenario_files["traditional"], "--observe", "Monty_B", "--format", "json"])
        out = capsys.readouterr().out
        assert "NaN" not in out
        json.loads(out)  # would fail on bare Infinity tokens

    def test_csv_format(self, scenario_files, capsys):
        code = cli.main(
            ["solve", scenario_files["traditional"], "--observe", "Monty_B", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "model,prior,prior_bits,evidence_bits,likelihood_bits,"
            "tic_bits,sign,posterior_bits,posterior_prob"
        )
        assert len(lines) == 4
        cells = lines[3].split(",")
        assert cells[0] == "C"
        assert cells[1] == "1/3"
        assert cells[5] == "1.0"
        assert cells[8] == "0.6666666666666666"

    def test_precision_flag(self, scenario_files, capsys):
        code = cli.main(
            ["solve", scenario_files["traditional"], "--observe", "Monty_B", "--precision", "3"]
        )
        assert code == 0
        assert "0.667" in capsys.readouterr().out

    def test_byte_identical_runs(self, scenario_files, capsys):
        argv = ["solve", scenario_files["traditional"], "--observe", "Monty_B"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_impossible_observation_exit_3(self, scenario_files, capsys):
        assert cli.main(["solve", scenario_files["impossible"], "--observe", "y"]) == 3
        assert "impossible observation" in capsys.readouterr().err

    def test_unknown_observation_exit_2(self, scenario_files, capsys):
        assert cli.main(["solve", scenario_files["traditional"], "--observe", "zzz"]) == 2

    def test_missing_observe_flag_exit_2(self, scenario_files):
        assert cli.main(["solve", scenario_files["traditional"]]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["solve", "/no/such/file.json", "--observe", "x"]) == 2

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": ')
        assert cli.main(["solve", str(bad), "--observe", "x"]) == 2
        assert "line" in capsys.readouterr().err

    def test_oversize_rational_string_exit_2(self, tmp_path, capsys):
        # more digits than CPython converts to int (4300 by default)
        doc = {
            "name": "huge",
            "models": [{"label": "A", "prior": "1" * 5000 + "/" + "1" * 5000}],
            "observations": ["x"],
            "likelihood": [["1/1"]],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path), "--observe", "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "models[0].prior" in err

    def test_oversize_number_literal_exit_2(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"name": "huge", "models": [{"label": "A", "prior": ' + "1" * 5000 + "}]}")
        assert cli.main(["solve", str(path), "--observe", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_float_scenario_solves_fine(self, scenario_files, capsys):
        assert cli.main(["solve", scenario_files["floaty"], "--observe", "x"]) == 0
        assert "H2" in capsys.readouterr().out


class TestKlAndMi:
    def test_kl_output(self, scenario_files, capsys):
        assert cli.main(["kl", scenario_files["traditional"], "--observe", "Monty_B"]) == 0
        out = capsys.readouterr().out
        assert "kl_expected_tic_bits: 0.666667" in out
        assert "kl_classical_bits: 0.666667" in out
        assert "difference:" in out

    def test_mi_output(self, scenario_files, capsys):
        assert cli.main(["mi", scenario_files["biased"]]) == 0
        out = capsys.readouterr().out
        assert "mi_expected_tic_bits: 0.479869" in out
        assert "mi_classical_bits: 0.479869" in out

    def test_mi_deterministic(self, scenario_files, capsys):
        assert cli.main(["mi", scenario_files["forgetful"]]) == 0
        first = capsys.readouterr().out
        assert cli.main(["mi", scenario_files["forgetful"]]) == 0
        assert capsys.readouterr().out == first


class TestVerify:
    @pytest.mark.parametrize("variant", ["traditional", "biased", "forgetful"])
    def test_classic_variants_pass(self, scenario_files, capsys, variant):
        assert cli.main(["verify", scenario_files[variant]]) == 0
        out = capsys.readouterr().out
        assert "status: PASS" in out
        assert "max_deviation_bits:" in out

    def test_float_scenario_exit_2(self, scenario_files, capsys):
        assert cli.main(["verify", scenario_files["floaty"]]) == 2
        assert "oracle requires exact rationals" in capsys.readouterr().err

    def test_failure_exits_4(self, scenario_files, capsys, monkeypatch):
        # the verify subcommand reads the tolerance where it is defined
        monkeypatch.setattr(verify, "VERIFY_TOL", -1.0)
        assert cli.main(["verify", scenario_files["traditional"]]) == 4
        assert "status: FAIL" in capsys.readouterr().out


class TestUsage:
    def test_no_arguments(self):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_precision(self, scenario_files):
        argv = ["solve", scenario_files["traditional"], "--observe", "Monty_B", "--precision", "99"]
        assert cli.main(argv) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "bayesbits" in capsys.readouterr().out


def _write(tmp_path, name, models, observations, likelihood):
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps(
            {
                "name": name,
                "models": [{"label": f"M{i}", "prior": p} for i, p in enumerate(models)],
                "observations": observations,
                "likelihood": likelihood,
            }
        )
    )
    return str(path)


class TestLimits:
    """Inputs past a stated limit exit 2 with ``error:``, never a traceback."""

    def test_unprintable_evidence_exit_2(self, tmp_path, capsys):
        # Every value has < 4300 digits, but the evidence 1/2 (3**-6000 + 5**-4000)
        # has a ~5660-digit denominator, too long for CPython to print.
        a, b = 3**6000, 5**4000
        path = _write(
            tmp_path,
            "wide",
            ["1/2", "1/2"],
            ["x", "y"],
            [[f"1/{a}", f"1/{b}"], [f"{a - 1}/{a}", f"{b - 1}/{b}"]],
        )
        for fmt in ("table", "json"):
            assert cli.main(["solve", path, "--observe", "x", "--format", fmt]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "too long to print" in err
        # CSV rows print no evidence, so nothing there is too long
        assert cli.main(["solve", path, "--observe", "x", "--format", "csv"]) == 0
        assert cli.main(["kl", path, "--observe", "x"]) == 0
        assert cli.main(["verify", path]) == 0

    def test_unprintable_prior_sum_exit_2(self, tmp_path, capsys):
        # The prior does not sum to 1, and its sum has too many digits to name.
        path = _write(tmp_path, "bad-sum", [f"1/{3**4000}", f"1/{7**4000}"], ["x"], [[1, 1]])
        for argv in (["solve", path, "--observe", "x"], ["mi", path], ["verify", path]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_float_evidence_a_rounding_step_above_one(self, tmp_path, capsys):
        # The prior sums to 1.0000000000000002 (within FLOAT_SUM_TOL), so the
        # evidence of a certain observation does too: it carries 0 bits.
        prior = [1 / 3, 1 / 24, 7 / 24, 7 / 24, 1 / 24]
        assert sum(prior) > 1
        path = _write(tmp_path, "above-one", prior, ["x"], [[1.0] * 5])
        assert cli.main(["solve", path, "--observe", "x"]) == 0
        assert "(0.000000 bits)" in capsys.readouterr().out
        assert cli.main(["solve", path, "--observe", "x", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["evidence_bits"] == 0
        assert [m["evidence_bits"] for m in doc["models"]] == [0] * 5
        assert cli.main(["solve", path, "--observe", "x", "--format", "csv"]) == 0
        assert [row.split(",")[3] for row in capsys.readouterr().out.splitlines()[1:]] == ["0.0"] * 5
        assert cli.main(["kl", path, "--observe", "x"]) == 0
        assert cli.main(["mi", path]) == 0

    def test_door_limit(self, capsys):
        assert cli.main(["mhp", f"custom-{MAX_DOORS + 1}"]) == 2
        assert f"at most {MAX_DOORS} doors" in capsys.readouterr().err
        assert cli.main(["mhp", "custom-N", "--doors", str(MAX_DOORS + 1)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_over_long_door_count_exit_2(self, capsys):
        # more digits than CPython converts to int
        assert cli.main(["mhp", "custom-" + "1" * 5000]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "variant, doors",
        [
            ("custom", 4),
            ("custom-N", 4),
            ("custom-4", 4),
            ("custom-004", 4),
            ("custom-4\n", None),
            ("custom\n", None),
            ("custom-", None),
            ("custom-n", None),
            ("custom-foo", None),
            ("custom-4 ", None),
            ("custom-\uff14", None),  # full-width 4
            ("custom-\u00b2", None),  # superscript 2
        ],
    )
    def test_custom_variant_spellings(self, capsys, variant, doors):
        # custom, custom-N, or custom- and ASCII digits; any other spelling is unknown
        code = cli.main(["mhp", variant, "--doors", "4"])
        out, err = capsys.readouterr()
        if doors is None:
            assert code == 2 and out == ""
            assert err == (
                f"error: unknown variant {variant!r}; expected traditional, biased, "
                "forgetful, or custom-N\n"
            )
        else:
            assert code == 0 and err == ""
            doc = json.loads(out)
            assert doc["metadata"]["variant"] == variant
            assert len(doc["models"]) == doors

    def test_prior_flag_range_checked_by_distribution(self, capsys):
        assert cli.main(["mhp", "custom-3", "--prior", "3/2,-1/4,-1/4"]) == 2
        assert "outside [0, 1]" in capsys.readouterr().err
        assert cli.main(["mhp", "custom-3", "--prior", "1/2, 1/4 ,0.25"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [m["prior"] for m in doc["models"]] == ["1/2", "1/4", "1/4"]

    @pytest.mark.parametrize(
        "text, exact",
        [
            ("1/4", "1/4"),
            (" 1 / 4 ", "1/4"),
            ("0.25", "1/4"),
            ("00.250", "1/4"),
            ("1e-1", None),
            ("+1/4", None),
            ("-0", None),
            ("1_0/40", None),
            ("2.5e-1", None),
            (".25", None),
            ("0x1", None),
            ("\uff11/\uff12", None),  # full-width digits
            ("\u0661/\u0662", None),  # Arabic-Indic digits
            ("0.\uff15", None),
        ],
    )
    def test_prior_flag_and_file_share_one_grammar(self, tmp_path, capsys, text, exact):
        # --prior and a file's string cells accept the same strings, as the same exact value
        flag = cli.main(["mhp", "custom-3", "--prior", f"1/2,1/4,{text}"])
        flag_out, flag_err = capsys.readouterr()
        path = _write(tmp_path, "grammar", ["1/2", "1/4", text], ["x"], [[1, 1, 1]])
        cell = cli.main(["solve", path, "--observe", "x", "--format", "csv"])
        cell_out, cell_err = capsys.readouterr()
        if exact is None:
            assert flag == cell == 2
            expected = f"cannot parse probability from {text!r}: expected 'num/den' or a decimal\n"
            assert flag_err == f"error: {expected}"
            assert cell_err == f"error: {path}: models[2].prior: {expected}"
        else:
            assert flag == cell == 0
            assert json.loads(flag_out)["models"][2]["prior"] == exact
            assert cell_out.splitlines()[3].split(",")[1] == exact


class TestUnencodableText:
    """Text that is not UTF-8, in the file or in a label, exits 2 at parse time."""

    def test_file_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert cli.main(["verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("field", ["name", "model", "observation"])
    def test_lone_surrogate_exit_2(self, tmp_path, capsys, field):
        # json.dumps writes the surrogate as the escape \ud800, which loads;
        # printing it would raise UnicodeEncodeError on a real stdout.
        doc = {
            "name": "x\ud800" if field == "name" else "x",
            "models": [{"label": "A\ud800" if field == "model" else "A", "prior": 1}],
            "observations": ["y\ud800" if field == "observation" else "y"],
            "likelihood": [[1]],
        }
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(doc))
        for argv in (["solve", str(path), "--observe", doc["observations"][0]], ["verify", str(path)]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "not encodable as UTF-8" in err


class TestCellFormatters:
    """One formatter per output format, each taking None, a label, a Fraction or a float."""

    @pytest.mark.parametrize(
        "value, text, machine, csv_cell",
        [
            (None, "n/a", None, ""),
            ("informs", "informs", "informs", "informs"),
            (Fraction(7, 12), "7/12", "7/12", "7/12"),
            (0.5, "0.500", 0.5, "0.5"),
            (-0.0, "0.000", 0.0, "0.0"),
            (math.inf, "inf", "Infinity", "inf"),
            (-math.inf, "-inf", "-Infinity", "-inf"),
        ],
    )
    def test_each_format(self, value, text, machine, csv_cell):
        assert cli._text(value, 3) == text
        assert cli._json(value) == machine
        assert cli._csv(value) == csv_cell
        if value == 0.0:
            assert math.copysign(1.0, cli._json(value)) == 1.0
