import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nhzm
from nhzm.cli import main
from nhzm.scenario import (SCENARIO_SCHEMA, ScenarioError,
                           bundled_scenario_names, load_scenario)

BUNDLED = ["fig1b", "fig1c", "fig1d", "fig2", "fig3a", "fig3b", "figS1",
           "figS2", "figS6-defect", "ensemble-fig4c"]


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MINIMAL = {
    "task": "spectrum",
    "system": {"n": 3, "tA": 1.0, "tB": 0.2},
    "reservoir": {"n": 4, "tA": 1.0, "tB": 1.0, "gamma": 1.0},
    "coupling": 0.2,
}


class TestScenarioValidation:
    def test_bundled_names_are_shipped(self):
        assert bundled_scenario_names() == sorted(BUNDLED)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {**MINIMAL, "mystery": 1})
        with pytest.raises(ScenarioError, match="mystery"):
            load_scenario(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        bad = {**MINIMAL, "system": {**MINIMAL["system"], "extra": 2}}
        path = write_scenario(tmp_path, bad)
        with pytest.raises(ScenarioError, match=r"\$\.system"):
            load_scenario(path)

    def test_missing_task_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {k: v for k, v in MINIMAL.items()
                                         if k != "task"})
        with pytest.raises(ScenarioError, match="task"):
            load_scenario(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "task": "spectrum",\n  oops\n}')
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(str(path))

    def test_sweep_task_requires_sweep_block(self, tmp_path):
        path = write_scenario(tmp_path, {**MINIMAL, "task": "sweep"})
        with pytest.raises(ScenarioError, match="sweep"):
            load_scenario(path)

    def test_seed_override_lands_in_resolved_data(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        scenario = load_scenario(path, seed_override=77)
        assert scenario.data["seed"] == 77


class TestRunCommand:
    def test_schema_error_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"task": "nonsense"})
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "schema violation" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_minimal_spectrum_run(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "# nhzm 0.1.0"
        assert lines[1].startswith("# scenario: ")
        assert lines[2] == "mode_index,re_omega,im_omega"
        assert len(lines) == 3 + 7
        payload = json.loads((out / "zero_modes.json").read_text())
        assert payload["meta"]["scenario"]["task"] == "spectrum"

    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        scenario = {
            "task": "ensemble",
            "system": {"n": 5, "tA": 1.0, "tB": 0.2},
            "reservoir": {"n": 6, "tA": 1.0, "tB": 1.0, "gamma": 2.0},
            "coupling": 0.2,
            "seed": 11,
            "ensemble": {"sigma": 0.1, "n_realizations": 40, "periods": 0.2},
        }
        path = write_scenario(tmp_path, scenario)
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["run", path, "--out", str(out)]) == 0
            blobs.append((out / "ensemble.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_flag_changes_ensemble_output(self, tmp_path):
        scenario = {
            "task": "ensemble",
            "system": {"n": 5, "tA": 1.0, "tB": 0.2},
            "reservoir": {"n": 6, "tA": 1.0, "tB": 1.0, "gamma": 2.0},
            "coupling": 0.2,
            "ensemble": {"sigma": 0.1, "n_realizations": 10, "periods": 0.2},
        }
        path = write_scenario(tmp_path, scenario)
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main(["run", path, "--out", str(out),
                         "--seed", seed]) == 0
            outputs.append(json.loads((out / "ensemble.json").read_text()))
        assert outputs[0]["seed"] == 1 and outputs[1]["seed"] == 2
        assert outputs[0]["mean"] != outputs[1]["mean"]


class TestReportCommand:
    def test_missing_directory_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nowhere")]) == 2

    def test_empty_directory_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_profile_report_mentions_regime(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "fig1c", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "LinearlyLocalized" in text
        assert "alpha=2.0000" in text

    def test_exponential_profile_reports_decay_rate(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "fig1d", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ExponentiallyLocalized" in text
        assert "decay rate per sublattice step: 1.92" in text

    def test_perturbation_task_outputs(self, tmp_path, capsys):
        scenario = {
            "task": "perturbation",
            "system": {"n": 9, "tA": 1.0, "tB": 0.2},
            "reservoir": {"n": 10, "tA": 1.0, "tB": 1.0, "gamma": 2.0},
            "coupling": 0.2,
        }
        path = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        payload = json.loads((out / "perturbation.json").read_text())
        assert payload["vector_error"] < 0.05
        assert payload["energy_error"] < 2 * 0.2 ** 2
        rows = (out / "perturbation.csv").read_text().splitlines()[3:]
        assert len(rows) == 19
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "vector error" in capsys.readouterr().out

    def test_hermitian_reservoir_reports_constant_regime(self, tmp_path, capsys):
        scenario = dict(MINIMAL, task="mode-profile",
                        system={"n": 9, "tA": 1.0, "tB": 0.2},
                        reservoir={"n": 10, "tA": 1.0, "tB": 1.0, "gamma": 0.0})
        path = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "ConstantDelocalized" in capsys.readouterr().out


class TestSchemaCommand:
    def test_prints_the_published_schema(self, capsys):
        assert main(["schema"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == SCENARIO_SCHEMA


@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_scenario_runs_quickly(name, tmp_path):
    start = time.perf_counter()
    assert main(["run", name, "--out", str(tmp_path / name)]) == 0
    assert time.perf_counter() - start < 60.0


def test_console_entry_point():
    # the child imports the nhzm this process imported, also when a bare
    # ``pytest`` put the source tree on sys.path through its ``pythonpath``
    src = str(Path(nhzm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "nhzm.cli", "schema"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    json.loads(proc.stdout)
