"""The scripts refuse arguments they cannot use with argparse's usage error, exit 2."""

import json

import pytest

import monty_hall_report
import mutation_probe
import random_agreement_sweep
import scale_probe


@pytest.mark.parametrize("precision", ["-1", "18"])
def test_report_precision_is_bounded_as_in_the_cli(precision, capsys):
    with pytest.raises(SystemExit) as exc:
        monty_hall_report.main(["--precision", precision])
    assert exc.value.code == 2
    assert "argument --precision: invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--count", "0"], ["--count", "-5"], ["--max-models", "0"], ["--max-observations", "0"]],
)
def test_sweep_sizes_and_counts_are_at_least_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        random_agreement_sweep.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[0]}: must be at least 1" in capsys.readouterr().err


def test_sweep_of_one_smallest_scenario_passes(capsys):
    argv = ["--count", "1", "--max-models", "1", "--max-observations", "1"]
    assert random_agreement_sweep.main(argv) == 0
    assert "scenarios: 1\n" in capsys.readouterr().out


def test_probe_refuses_an_unknown_module(capsys):
    with pytest.raises(SystemExit) as exc:
        mutation_probe.main(["--modules", "oracle", "cli"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --modules: invalid choice: 'cli'" in err


@pytest.mark.parametrize(
    "module, caught", [("oracle", "verify"), ("verify", "goldens only"), ("report", "goldens only")]
)
def test_probe_judges_a_verify_mutant_by_goldens_and_tier1_only(monkeypatch, tmp_path, module, caught):
    # every judge flags the code: a mutant of verify skips the verify judge
    runs = []
    monkeypatch.setattr(mutation_probe, "_exit_code", lambda cwd, argv, timeout: runs.append(argv) or 1)
    assert mutation_probe.judge(tmp_path, module) == caught
    assert (runs[0][1] == "-c") == (module not in ("verify", "report"))


def test_probe_takes_verify_as_a_module(monkeypatch, capsys):
    # the unmutated copy is judged first; here it fails, so no mutant is made
    judged = []
    monkeypatch.setattr(mutation_probe, "judge", lambda tree, module=None: judged.append(module) or "x")
    assert mutation_probe.main(["--modules", "verify"]) == 1
    assert judged == [None]
    assert "the unmutated copy fails a judge" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--doors", "2"], ["--doors", "1001"], ["--repeat", "0"]])
def test_scale_probe_refuses_sizes_it_cannot_run(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        scale_probe.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[0]}: must be" in capsys.readouterr().err


def test_scale_probe_writes_every_figure(tmp_path, capsys):
    path = tmp_path / "scale.json"
    assert scale_probe.main(["--doors", "3", "4", "--repeat", "1", "--json", str(path)]) == 0
    doc = json.loads(path.read_text("utf-8"))
    assert set(doc) == {"probe", "repeat", "interpreter", "host", "machine_settings", "games"}
    assert doc["machine_settings"].startswith("unchanged")
    assert set(doc["host"]) == {"platform", "nproc"}
    assert [(g["policy"], g["doors"], g["cells"]) for g in doc["games"]] == [
        ("standard", 3, 6), ("standard", 4, 12), ("forgetful", 3, 12), ("forgetful", 4, 24)
    ]
    for game in doc["games"]:
        assert game["file_bytes"] > 0
        assert list(game["commands"]) == ["mhp", "solve", "mi", "verify"]
        for figures in game["commands"].values():
            assert set(figures) == {"best_s", "peak_rss_mib"}
            assert figures["best_s"] > 0 and figures["peak_rss_mib"] > 1
    assert capsys.readouterr().out.count("\n") == 2 + len(doc["games"])
