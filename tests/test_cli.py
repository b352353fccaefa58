import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nhzm
from nhzm.cli import main
from nhzm.errors import DENSE_MAX_SITES
from nhzm.scenario import (SCENARIO_SCHEMA, Scenario, ScenarioError,
                           _arange_length, bundled_scenario_names,
                           load_scenario)
from nhzm.spectral import ZERO_TOL, _real_form_modes

from conftest import trajectories

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
PERTURBATION = {
    "task": "perturbation",
    "system": {"n": 9, "tA": 1.0, "tB": 0.2},
    "reservoir": {"n": 10, "tA": 1.0, "tB": 1.0, "gamma": 2.0},
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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e999"])
    def test_non_finite_number_rejected(self, tmp_path, literal):
        text = json.dumps(MINIMAL).replace('"gamma": 1.0',
                                           f'"gamma": {literal}')
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(ScenarioError, match="non-finite"):
            load_scenario(str(path))

    @pytest.mark.parametrize("task", ["spectrum", "sweep", "mode-profile"])
    def test_even_system_rejected(self, tmp_path, task):
        payload = {**MINIMAL, "task": task,
                   "system": {**MINIMAL["system"], "n": 8},
                   "sweep": {"gamma_start": 0.0, "gamma_stop": 1.0,
                             "gamma_step": 0.5}}
        path = write_scenario(tmp_path, payload)
        with pytest.raises(ScenarioError, match="system.n must be odd"):
            load_scenario(path)

    def test_seed_override_lands_in_resolved_data(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        scenario = load_scenario(path, seed_override=77)
        assert scenario.data["seed"] == 77

    # a gamma of the sweep block: an int or a float, as JSON gives them
    GAMMAS = st.integers(0, 10) | st.floats(0, 10)

    @settings(max_examples=300, deadline=None)
    @given(GAMMAS, GAMMAS, st.floats(1e-5, 10), st.booleans())
    @example(0.0, 3.0, 0.01, True)      # fig2: 301 points
    @example(0, 3, 0.01, True)
    @example(0.0, 1.0, 0.3, True)       # a step that does not divide
    @example(0.1, 0.7, 0.2, True)
    @example(1.0, 0.5, 0.1, True)       # reversed
    @example(1.0, 1.0, 0.1, True)       # one point
    @example(0, 0.5, 1.0, True)         # a ratio of exactly 1
    @example(0.0, 2.5, 0.5, True)       # and of exactly 6
    # arange's own bounds: a positive span whose ratio to the step
    # underflows to 0 holds one point
    @example(0.0, 1e-320, 1.0, False)
    @example(1e-320, 0.0, 1.0, False)
    @example(0.0, 0.0, 1.0, False)
    @example(0.5, 0.5 + 1e-17, 0.1, False)
    @example(3.0, 0.0, 1.0, False)
    @example(0.0, 5e-324, 1e300, False)
    def test_grid_length_is_numpys(self, start, stop, step, half_step):
        # the sweep grid's length, counted without numpy, is the length
        # of the arange that ``sweep_grid`` builds, half a step past
        # gamma_stop, and of any other arange
        if half_step:
            stop = stop + 0.5 * step
        assert _arange_length(start, stop, step) \
            == len(np.arange(start, stop, step))

    @settings(max_examples=200, deadline=None)
    @given(GAMMAS, GAMMAS, st.floats(1e-7, 10), st.integers(1, 5000))
    @example(0.0, 3.0, 0.01, 10)        # fig2
    @example(1.0, 1.0, 0.1, 10)         # one point
    @example(1.0, 0.5, 0.1, 10)         # none
    @example(0.0, 3.0, 1e-7, 10)        # too many
    def test_sweep_refusals_follow_the_grid(self, tmp_path_factory, start,
                                            stop, step, n_reservoir):
        # a sweep is refused for fewer than two points or for more
        # eigenvalues than a dense matrix holds, each with its message, and
        # otherwise ``sweep_grid`` holds the points counted
        payload = {**MINIMAL, "task": "sweep",
                   "reservoir": {**MINIMAL["reservoir"], "n": n_reservoir},
                   "sweep": {"gamma_start": start, "gamma_stop": stop,
                             "gamma_step": step}}
        path = write_scenario(tmp_path_factory.mktemp("sweep"), payload)
        grid = (f"sweep from gamma_start {start} to gamma_stop {stop} in "
                f"steps of {step}")
        count = (stop + 0.5 * step - start) / step
        n_sites = 3 + n_reservoir
        if count * n_sites > DENSE_MAX_SITES ** 2:
            message = (f"{grid} has {count:.3g} points; at {n_sites} sites "
                       f"that exceeds the {DENSE_MAX_SITES ** 2} eigenvalues "
                       "a sweep may hold")
        elif (points := len(np.arange(start, stop + 0.5 * step, step))) < 2:
            message = (f"{grid} has {points} point(s); tracking needs at "
                       "least two")
        else:
            assert len(load_scenario(path).sweep_grid()) == points
            return
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == message


class TestRunCommand:
    def test_schema_error_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"task": "nonsense"})
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "schema violation" in capsys.readouterr().err

    def test_non_finite_gamma_exits_2(self, tmp_path, capsys):
        # on the sparse path a NaN gamma used to end in an uncaught
        # "Factor is exactly singular" traceback
        payload = {**MINIMAL, "task": "mode-profile",
                   "reservoir": {**MINIMAL["reservoir"], "n": 100}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload).replace('"gamma": 1.0',
                                                    '"gamma": NaN'))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err

    def test_even_system_exits_2(self, tmp_path, capsys):
        payload = {**MINIMAL, "task": "mode-profile",
                   "system": {**MINIMAL["system"], "n": 8}}
        path = write_scenario(tmp_path, payload)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "system.n must be odd" in capsys.readouterr().err

    @pytest.mark.parametrize("task,code", [
        ("spectrum", 2), ("mode-profile", 2), ("ensemble", 2),
        ("sweep", 0), ("perturbation", 0)])
    def test_one_site_reservoir(self, tmp_path, capsys, task, code):
        # a one-site reservoir has no bond: the tasks that classify or fit
        # its tail refuse it as a scenario error; the sweep and
        # perturbation tasks run
        blocks = {"sweep": {"gamma_start": 0.0, "gamma_stop": 1.0,
                            "gamma_step": 0.5},
                  "ensemble": {"n_realizations": 4, "periods": 0.17}}
        payload = {**MINIMAL, "task": task,
                   "reservoir": {**MINIMAL["reservoir"], "n": 1},
                   **{k: v for k, v in blocks.items() if k == task}}
        path = write_scenario(tmp_path, payload)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == code
        if code:
            assert f"task {task!r} needs reservoir.n >= 2, got 1" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("path", [
        ("seed",), ("system", "n"), ("reservoir", "n"),
        ("ensemble", "n_realizations"), ("bands", "k_points")])
    def test_integral_float_runs_as_the_integer(self, tmp_path, path):
        # draft 2020-12 validates 9.0 as an integer; such a scenario used to
        # end in a TypeError traceback (np.empty(9.0), a reshape)
        payload = {**MINIMAL, "task": "ensemble", "seed": 5,
                   "ensemble": {"n_realizations": 10, "periods": 0.17}}
        if path[0] == "bands":
            payload = {**MINIMAL, "task": "bands",
                       "bands": {"gammas": [0.5], "k_points": 11}}
        floated = json.loads(json.dumps(payload))
        node = floated
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = float(node[path[-1]])
        outs = []
        for name, doc in (("int", payload), ("float", floated)):
            scenario = write_scenario(tmp_path, doc, f"{name}.json")
            value = load_scenario(scenario).data
            for key in path:
                value = value[key]
            assert type(value) is int
            outs.append(tmp_path / name)
            assert main(["run", scenario, "--out", str(outs[-1])]) == 0
        for ref in outs[0].iterdir():
            assert (outs[1] / ref.name).read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("name, seed", [("fig1c", "-5"),
                                            ("ensemble-fig4c", "-1")])
    def test_negative_seed_exits_2(self, tmp_path, capsys, name, seed):
        # the override is checked as a seed in the file is; it used to be
        # written into fig1c's outputs, and to end ensemble-fig4c in a
        # ValueError traceback
        out = tmp_path / "out"
        assert main(["run", name, "--out", str(out), "--seed", seed]) == 2
        assert f"$.seed: {seed} is less than the minimum of 0" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start, stop", [
        (1.0, 0.5), (1.0, 1.0), (1e20, 0.0)],
        ids=["reversed", "one-point", "far-reversed"])
    def test_sweep_of_fewer_than_two_points_exits_2(self, tmp_path, capsys,
                                                     start, stop):
        # used to end in the tracker's ValueError traceback, and far
        # reversed, where numpy's arange length of -1e21 does not fit an
        # intp, in arange's own
        payload = {**MINIMAL, "task": "sweep",
                   "sweep": {"gamma_start": start, "gamma_stop": stop,
                             "gamma_step": 0.1}}
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, payload),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario error: sweep from gamma_start " in err
        assert "tracking needs at least two" in err
        assert not out.exists()

    @pytest.mark.parametrize("digits", [401, 5001])
    def test_integer_past_float_range_exits_2(self, tmp_path, capsys,
                                              digits):
        # passed the schema's "number" and ended in an OverflowError
        # traceback from the sweep's count; past 4300 digits json's own
        # int() raised ValueError
        payload = {**MINIMAL, "task": "sweep",
                   "sweep": {"gamma_start": 0.0, "gamma_stop": 1,
                             "gamma_step": 0.1}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload).replace(
            '"gamma_stop": 1', '"gamma_stop": 1' + "0" * (digits - 1)))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert f"integer of {digits} digits is too large for a float" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", [1e-13, 5e-324])
    def test_sweep_too_fine_exits_2_before_its_grid(self, tmp_path, capsys,
                                                    monkeypatch, step):
        # 3e13 points used to end in an _ArrayMemoryError traceback (exit
        # 1); 5e-324 makes the point count overflow to inf
        monkeypatch.setattr(Scenario, "sweep_grid",
                            lambda self: pytest.fail("grid built"))
        payload = {**MINIMAL, "task": "sweep",
                   "sweep": {"gamma_start": 0.0, "gamma_stop": 3.0,
                             "gamma_step": step}}
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, payload),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario error: sweep from gamma_start 0.0" in err
        assert "eigenvalues a sweep may hold" in err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("out", ["file", "file/out"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys,
                                                     out):
        # an existing file as --out used to end in a FileExistsError
        # traceback (exit 1)
        (tmp_path / "file").write_text("kept")
        assert main(["run", "fig1c", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"cannot create output directory {tmp_path / out}: ")
        assert len(err.splitlines()) == 1
        assert (tmp_path / "file").read_text() == "kept"

    def test_a_directory_does_not_shadow_a_bundled_name(self, tmp_path,
                                                        monkeypatch, capsys):
        # a second ``nhzm run fig2`` beside the first's ``--out fig2`` used
        # to read the directory and end in an IsADirectoryError traceback
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig2", "--out", "fig2"]) == 0
        first = {p.name: p.read_bytes() for p in Path("fig2").iterdir()}
        assert main(["run", "fig2", "--out", "again"]) == 0
        assert {p.name: p.read_bytes() for p in Path("again").iterdir()} \
            == first
        # a directory that names no bundled scenario is no scenario
        Path("results").mkdir()
        capsys.readouterr()
        assert main(["run", "results", "--out", "out"]) == 2
        assert "no such scenario file or bundled scenario: 'results'" \
            in capsys.readouterr().err
        assert not Path("out").exists()

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

    def test_perturbation_task_takes_a_one_site_reservoir(self, tmp_path):
        # a one-site reservoir has no internal couplings, which the
        # comparison never reads
        scenario = {
            "task": "perturbation",
            "system": {"n": 9, "tA": 1.0, "tB": 0.2},
            "reservoir": {"n": 1, "tA": 1.0, "tB": 1.0, "gamma": 2.0},
            "coupling": 0.2,
        }
        out = tmp_path / "out"
        assert main(["run", write_scenario(tmp_path, scenario),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "perturbation.json").read_text())
        assert np.isfinite(payload["vector_error"])
        rows = (out / "perturbation.csv").read_text().splitlines()[3:]
        assert len(rows) == 10

    def test_perturbation_csv_holds_the_library_comparison(self, tmp_path):
        # the task writes perturbation_vs_exact's vectors, the exact one at
        # unit peak and the first-order one projected onto it
        path = write_scenario(tmp_path, PERTURBATION)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        rows = read_csv(out / "perturbation.csv")
        comparison = nhzm.perturbation_vs_exact(
            load_scenario(path).build_spec())
        exact = comparison.psi_exact / np.abs(comparison.psi_exact).max()
        pert = comparison.psi_perturbative
        pert = np.vdot(pert, exact) / np.vdot(pert, pert) * pert
        assert rows["abs_exact"].max() == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(rows["abs_exact"], np.abs(exact),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(rows["abs_pert"], np.abs(pert),
                                   rtol=1e-13, atol=1e-15)
        assert (rows["mode_index"] == comparison.mode_index).all()

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

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "fig1c", "--out", str(out)]) == 0
        path = out / "regime.json"
        path.write_text(path.read_text()[:200])
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert f"unreadable output file {path}: JSONDecodeError" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("edit, error", [
        (lambda p: p.pop("regime"), "KeyError: 'regime'"),
        (lambda p: p.update(fits=[]), "AttributeError"),
        (lambda p: p.update(meta=["not", "an", "object"]), "AttributeError")],
        ids=["no-regime", "fits-a-list", "meta-a-list"])
    def test_hand_edited_regime_exits_2(self, tmp_path, capsys, edit, error):
        out = tmp_path / "out"
        assert main(["run", "fig1c", "--out", str(out)]) == 0
        path = out / "regime.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert f"unreadable output file {path}: {error}" \
            in capsys.readouterr().err


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


def child_env():
    # the child imports the nhzm this process imported, also when a bare
    # ``pytest`` put the source tree on sys.path through its ``pythonpath``
    src = str(Path(nhzm.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_sweep_baseline_is_the_first_zero_mode(tmp_path):
    assert main(["run", "fig2", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    scenario = load_scenario("fig2")
    grid = scenario.sweep_grid()
    expected = []
    for g in grid:
        zms = nhzm.find_zero_modes(_real_form_modes(scenario.build_spec(g)))
        if zms:
            expected.append((float(g), zms[0].omega.imag))
    assert [(b["gamma"], b["im_omega"]) for b in summary["baseline"]] \
        == expected


@pytest.mark.parametrize("blk", [
    load_scenario("fig2").data["sweep"],
    # the onsite-0 sweep of ``TestShiftedOnsite``: fig2's chain on a
    # coarser grid, which the removed overlap tracking split
    {"gamma_start": 0.0, "gamma_stop": 3.0, "gamma_step": 0.05},
], ids=["fig2", "coarse"])
def test_tracked_rows_are_the_steps_eigenvalues(blk):
    grid = np.arange(blk["gamma_start"],
                     blk["gamma_stop"] + 0.5 * blk["gamma_step"],
                     blk["gamma_step"])
    spec_of = load_scenario("fig2").build_spec
    tracked = nhzm.sweep_gamma(spec_of, grid)
    assert tracked.eigenvalues.tobytes() == np.array(
        [_real_form_modes(spec_of(g)).eigenvalues for g in grid]).tobytes()
    assert (np.sort(tracked.mode_id, axis=1) == np.arange(1, 20)).all()


# links at the reservoir's exceptional point, gamma = 2t, stay crowded
@pytest.mark.filterwarnings("ignore:mode link to step")
@pytest.mark.parametrize("n_reservoir, coupling, step", [
    (50, 0.15, 0.01), (30, 0.2, 0.05)], ids=["59-sites", "39-sites"])
def test_sweep_rows_match_the_per_trajectory_assembly(
        tmp_path, n_reservoir, coupling, step):
    # sweeps the removed overlap tracking split, leaving rows with
    # mode_id -1; every row is numbered now
    payload = {**MINIMAL, "task": "sweep", "coupling": coupling,
               "system": {"n": 9, "tA": 1.0, "tB": 0.2},
               "reservoir": {"n": n_reservoir, "tA": 1.0, "tB": 1.0,
                             "gamma": 2.0},
               "sweep": {"gamma_start": 0.0, "gamma_stop": 3.0,
                         "gamma_step": step}}
    path = write_scenario(tmp_path, payload)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    scenario = load_scenario(path)
    grid = scenario.sweep_grid()
    tracked = nhzm.sweep_gamma(scenario.build_spec, grid)
    # the rows as they were assembled from the per-trajectory list: its
    # points concatenated in trajectory order, then a stable sort by
    # (gamma, mode_id)
    trajs = trajectories(tracked)
    gamma = np.concatenate([t.parameters for t in trajs])
    mode_id = np.concatenate([np.full(len(t.parameters), t.mode_number)
                              for t in trajs])
    w = np.concatenate([t.eigenvalues for t in trajs])
    order = np.lexsort((mode_id, gamma))
    gamma, mode_id, w = gamma[order], mode_id[order], w[order]
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert not (rows["mode_id"] == -1).any()
    assert np.array_equal(rows["mode_id"], mode_id)
    for column, expected in (("gamma", gamma), ("re_omega", w.real),
                             ("im_omega", w.imag),
                             ("r", (np.float_power(w.imag, 2)
                                    - np.float_power(gamma, 2)))):
        assert rows[column].tobytes() == expected.tobytes()


def test_csv_formats_repeated_values_as_each_alone(tmp_path):
    # each distinct value is formatted once: -0.0 keeps its sign apart from
    # 0.0, and integer and string columns keep str
    from nhzm.cli import _write_csv

    floats = [0.0, -0.0, 0.1 + 0.2, 0.0, -0.0, float("nan"), -np.inf,
              0.1 + 0.2, 1e-300, -1e-300, 0.3]
    ints = [3, 3, -1, 0, 7, 3, 2 ** 40, -1, 0, 0, 3]
    subs = list("ABABABABABA")
    path = tmp_path / "x.csv"
    _write_csv(path, ("x", "sub", "n", "y"),
               (np.array(floats), subs, np.array(ints),
                np.array(floats[::-1])), load_scenario("fig1c"))
    rows = path.read_text().splitlines()[3:]
    assert rows == [f"{x!r},{c},{n},{y!r}" for x, c, n, y in
                    zip(floats, subs, ints, floats[::-1])]
    assert rows[:2] == ["0.0,A,3,0.3", "-0.0,B,3,-1e-300"]


def read_csv(path):
    lines = path.read_text().splitlines()[2:]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: np.array([float(r[k]) for r in rows])
            for k, name in enumerate(header) if name != "sublattice"}


# rounding in the complex solve breaks some of fig2's exact ties at its
# exceptional points, and those links stay crowded
@pytest.mark.filterwarnings("ignore:mode link to step")
def test_fig2_matches_the_complex_path(tmp_path, monkeypatch):
    assert main(["run", "fig2", "--out", str(tmp_path / "real")]) == 0
    # every step solved as a detuned chain is, by eigvals of H
    monkeypatch.setattr(nhzm.spectral, "_has_real_form", lambda spec: False)
    assert main(["run", "fig2", "--out", str(tmp_path / "complex")]) == 0
    real, ref = (read_csv(tmp_path / d / "sweep.csv")
                 for d in ("real", "complex"))
    assert np.array_equal(real["gamma"], ref["gamma"])
    assert np.array_equal(real["mode_id"], ref["mode_id"])
    # each row holds the reference eigenvalue or its NHPH partner -omega*,
    # whose Im is bitwise equal in real arithmetic
    w, w_ref = (d["re_omega"] + 1j * d["im_omega"] for d in (real, ref))
    assert np.minimum(np.abs(w - w_ref),
                      np.abs(w + w_ref.conj())).max() <= 1e-12
    summary, ref_summary = (
        json.loads((tmp_path / d / "sweep_summary.json").read_text())
        for d in ("real", "complex"))
    baseline, ref_baseline = summary["baseline"], ref_summary["baseline"]
    assert [b["gamma"] for b in baseline] == [b["gamma"] for b in ref_baseline]
    np.testing.assert_allclose([b["im_omega"] for b in baseline],
                               [b["im_omega"] for b in ref_baseline],
                               rtol=0, atol=1e-12)
    assert [p["modes"] for p in summary["pair_thresholds"]] == \
        [p["modes"] for p in ref_summary["pair_thresholds"]]


class TestShiftedOnsite:
    """A scenario's ``onsite`` is omega0, the zero of the spectrum."""

    SWEEP = {"gamma_start": 0.0, "gamma_stop": 3.0, "gamma_step": 0.05}

    @staticmethod
    def run(tmp_path, task, onsite, n_reservoir=10, **extra):
        payload = {"task": task, "system": {"n": 9, "tA": 1.0, "tB": 0.2},
                   "reservoir": {"n": n_reservoir, "tA": 1.0, "tB": 1.0,
                                 "gamma": 2.0},
                   "coupling": 0.2, "onsite": onsite, **extra}
        out = tmp_path / f"{task}-{onsite}"
        assert main(["run", write_scenario(tmp_path, payload),
                     "--out", str(out)]) == 0
        return out

    @staticmethod
    def assert_shifted(omegas, ref_omegas, shift=0.3):
        """Each omega is its reference moved by ``shift`` along the real
        axis."""
        omegas, ref_omegas = np.asarray(omegas), np.asarray(ref_omegas)
        assert omegas.size == ref_omegas.size > 0
        assert np.abs(omegas.imag - ref_omegas.imag).max() <= 1e-10
        assert np.abs(omegas.real - ref_omegas.real - shift).max() <= ZERO_TOL

    @staticmethod
    def omega(payload):
        return complex(payload["omega"]["re"], payload["omega"]["im"])

    @pytest.mark.parametrize("n_reservoir", [10, 100])
    def test_spectrum(self, tmp_path, n_reservoir):
        outs = [self.run(tmp_path, "spectrum", x, n_reservoir)
                for x in (0.0, 0.7)]
        ref, shifted = (json.loads((o / "zero_modes.json").read_text())
                        ["zero_modes"] for o in outs)
        self.assert_shifted([self.omega(z) for z in shifted],
                            [self.omega(z) for z in ref], 0.7)
        assert [z["regime"] for z in shifted] == [z["regime"] for z in ref]
        for out, zms, omega0 in zip(outs, (ref, shifted), (0.0, 0.7)):
            rows = read_csv(out / "spectrum.csv")
            assert np.array_equal(rows["mode_index"],
                                  np.arange(len(rows["mode_index"])))
            for z in zms:
                k = z["mode_index"]
                assert complex(rows["re_omega"][k], rows["im_omega"][k]) \
                    == self.omega(z)
                # from 64 sites on the real form puts Re(omega) at omega0
                if n_reservoir == 100:
                    assert z["omega"]["re"] == omega0

    @pytest.mark.parametrize("n_reservoir", [10, 100])
    def test_mode_profile(self, tmp_path, n_reservoir):
        outs = [self.run(tmp_path, "mode-profile", x, n_reservoir)
                for x in (0.0, 0.3)]
        ref, shifted = (json.loads((o / "regime.json").read_text())
                        for o in outs)
        self.assert_shifted([self.omega(shifted)], [self.omega(ref)])
        assert shifted["regime"] == ref["regime"]
        ref_profile, profile = (read_csv(o / "profile.csv") for o in outs)
        np.testing.assert_allclose(profile["abs_pert"],
                                   ref_profile["abs_pert"], atol=1e-10)

    def test_sweep(self, tmp_path):
        outs = [self.run(tmp_path, "sweep", x, sweep=self.SWEEP)
                for x in (0.0, 0.3)]
        ref_rows, rows = (read_csv(o / "sweep.csv") for o in outs)
        assert np.array_equal(rows["mode_id"], ref_rows["mode_id"])
        self.assert_shifted(rows["re_omega"] + 1j * rows["im_omega"],
                            ref_rows["re_omega"] + 1j * ref_rows["im_omega"])
        ref, shifted = (json.loads((o / "sweep_summary.json").read_text())
                        for o in outs)
        assert [b["gamma"] for b in shifted["baseline"]] == \
            [b["gamma"] for b in ref["baseline"]]
        np.testing.assert_allclose([b["im_omega"] for b in shifted["baseline"]],
                                   [b["im_omega"] for b in ref["baseline"]],
                                   rtol=0, atol=1e-10)
        assert [p["modes"] for p in shifted["pair_thresholds"]] == \
            [p["modes"] for p in ref["pair_thresholds"]]

    def test_report_on_a_sweep_the_overlaps_split(self, tmp_path, capsys):
        # the removed overlap tracking split this sweep and left rows with
        # mode_id = -1, which report counted; every row is numbered now
        out = self.run(tmp_path, "sweep", 0.0, sweep=self.SWEEP)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rows = read_csv(out / "sweep.csv")
        steps = len(np.unique(rows["gamma"]))
        assert (np.sort(rows["mode_id"].reshape(steps, -1), axis=1)
                == np.arange(1, 20)).all()
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "mode_id" not in capsys.readouterr().out
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_perturbation(self, tmp_path):
        # the compared mode is the zero mode at omega0, not the mode nearest 0
        reservoir = {"n": 10, "tA": 1.0, "tB": 1.0, "gamma": 0.5}
        outs = [self.run(tmp_path, "perturbation", x, reservoir=reservoir)
                for x in (0.0, 0.7)]
        ref, shifted = (json.loads((o / "perturbation.json").read_text())
                        for o in outs)
        for key in ("omega_perturbative", "omega_exact"):
            assert abs(shifted[key]["re"] - 0.7) <= ZERO_TOL
            assert abs(ref[key]["re"]) <= ZERO_TOL
        assert abs(shifted["vector_error"] - ref["vector_error"]) <= 1e-10
        ref_rows, rows = (read_csv(o / "perturbation.csv") for o in outs)
        assert np.array_equal(rows["mode_index"], ref_rows["mode_index"])
        np.testing.assert_allclose(rows["abs_pert"], ref_rows["abs_pert"],
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("task", ["spectrum", "ensemble"])
def test_chain_beyond_the_dense_limit_exits_3(tmp_path, monkeypatch, capsys,
                                              task):
    # the lowered limit stands in for a 2e5-site chain, whose N x N matrix
    # would need 596 GiB
    monkeypatch.setattr(nhzm.lattice, "DENSE_MAX_SITES", 6)
    path = write_scenario(tmp_path, {**MINIMAL, "task": task})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    assert "7-site chain is too long for the dense eigensolver" \
        in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "nhzm.cli", "schema"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_import_and_paper_runs_stay_within_the_import_budget(tmp_path):
    # numpy's LAPACK does the dense eigensolves and the resolvent is a
    # Python port of ?gtsv, so every paper-sized run, a mode-profile and a
    # 19-site perturbation included, loads neither scipy nor jsonschema;
    # scipy is imported only by the long-chain and propagation paths
    names = [*bundled_scenario_names(), write_scenario(tmp_path,
                                                      PERTURBATION)]
    code = "\n".join([
        "import json, sys",
        "def heavy():",
        "    return sorted(m for m in sys.modules",
        "                  if m.split('.')[0] in ('scipy', 'jsonschema'))",
        "import nhzm",
        "loaded = {'import nhzm': heavy()}",
        "from nhzm.cli import main",
        f"for i, name in enumerate({names!r}):",
        f"    assert main(['run', name, '--out', {str(tmp_path)!r} + f'/{{i}}']) == 0",
        "    loaded[name] = heavy()",
        "print(json.dumps(loaded))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert list(loaded) == ["import nhzm", *names]
    assert loaded == dict.fromkeys(loaded, [])


CLI_MODULES = {"nhzm", "nhzm.cli", "nhzm.errors", "nhzm.scenario"}
# the packages whose modules the front end may hold: nhzm's own, and numpy
# and scipy, which only a task imports
FRONT_END = ("nhzm", "numpy", "scipy")


def loaded_modules(statement, packages=("nhzm",)):
    """The modules of the given packages a fresh interpreter holds after
    one statement."""
    code = "\n".join([
        "import json, sys",
        statement,
        "print(json.dumps(sorted(m for m in sys.modules",
        f"                        if m.split('.')[0] in {tuple(packages)!r})))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def main_exits(argv, code):
    """A statement that runs ``main(argv)`` and asserts its exit code, also
    where argparse exits (``--help``)."""
    return "\n".join([
        "from nhzm.cli import main",
        "try:",
        f"    code = main({argv!r})",
        "except SystemExit as exc:",
        "    code = exc.code",
        f"assert code == {code}, code",
    ])


class TestLoadedModules:
    # a process imports only the layers its command uses, and numpy only
    # once a task runs; an import hoisted back to the top of nhzm.cli,
    # nhzm.scenario or nhzm/__init__.py fails here

    def test_import_nhzm_loads_no_submodule(self):
        assert loaded_modules("import nhzm") == {"nhzm"}

    @pytest.mark.parametrize("attribute, module", [
        ("band_energies", "bands"), ("bands", "bands"), ("errors", "errors")])
    def test_an_attribute_loads_its_own_module(self, attribute, module):
        assert loaded_modules(f"import nhzm; nhzm.{attribute}") \
            == {"nhzm", f"nhzm.{module}"}

    def test_import_cli_loads_no_layer(self):
        assert loaded_modules("import nhzm.cli", FRONT_END) == CLI_MODULES

    def test_loading_scenarios_loads_no_numpy(self, tmp_path):
        # every bundled scenario and a sweep whose step does not divide
        # its range: validation counts the grid's points without numpy
        sweep = write_scenario(tmp_path, {
            **MINIMAL, "task": "sweep",
            "sweep": {"gamma_start": 0.1, "gamma_stop": 0.7,
                      "gamma_step": 0.25}})
        names = [*bundled_scenario_names(), sweep]
        assert loaded_modules(
            f"from nhzm.cli import load_scenario\n"
            f"for name in {names!r}:\n"
            f"    load_scenario(name)", FRONT_END) == CLI_MODULES

    @pytest.mark.parametrize("scenario, layers", [
        ("figS6-defect", {"lattice", "spectral", "localization"}),
        ("fig1c", {"lattice", "spectral", "localization", "perturbation"}),
        ("fig2", {"lattice", "spectral"}),
        ("figS2", {"bands"}),
        ("ensemble-fig4c", {"lattice", "spectral", "localization",
                            "dynamics"}),
        (PERTURBATION, {"lattice", "spectral", "perturbation"}),
    ], ids=["spectrum", "mode-profile", "sweep", "bands", "ensemble",
            "perturbation"])
    def test_each_task_loads_its_own_layers(self, tmp_path, scenario,
                                            layers):
        if isinstance(scenario, dict):
            scenario = write_scenario(tmp_path, scenario)
        argv = ["run", scenario, "--out", str(tmp_path / "out")]
        assert loaded_modules(
            f"from nhzm.cli import main; assert main({argv!r}) == 0") \
            == CLI_MODULES | {f"nhzm.{layer}" for layer in layers}

    @pytest.mark.parametrize("task", ["mode-profile", "ensemble"])
    def test_long_chain_loads_no_scipy_sparse(self, tmp_path, task):
        # from 64 sites on lowest_zero_mode runs its own Arnoldi on LAPACK's
        # tridiagonal LU; ARPACK, through scipy.sparse, started a second
        # BLAS thread pool beside numpy's
        scenario = write_scenario(tmp_path, {
            **PERTURBATION, "task": task,
            "reservoir": {**PERTURBATION["reservoir"], "n": 60},
            "ensemble": {"n_realizations": 8}})
        argv = ["run", scenario, "--out", str(tmp_path / "out")]
        scipy = loaded_modules(
            f"from nhzm.cli import main; assert main({argv!r}) == 0",
            ("scipy",))
        assert "scipy.linalg.lapack" in scipy
        assert not [m for m in scipy if m.startswith("scipy.sparse")]

    def test_report_and_schema_load_no_layer(self, tmp_path):
        # one directory holding the output files of every task, so that
        # the report summarizes each kind
        out = str(tmp_path / "out")
        for scenario in ("figS6-defect", "fig1c", "fig2", "figS2",
                         "ensemble-fig4c", write_scenario(tmp_path,
                                                          PERTURBATION)):
            assert main(["run", scenario, "--out", out]) == 0
        for argv in (["report", out], ["schema"], ["--help"],
                     ["run", "--help"]):
            assert loaded_modules(main_exits(argv, 0), FRONT_END) \
                == CLI_MODULES

    def test_refused_runs_load_no_numpy(self, tmp_path):
        # a scenario error and an output path that cannot be a directory
        # exit 2 before the task, and so numpy, is loaded
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "out")
        too_fine = {**MINIMAL, "task": "sweep",
                    "sweep": {"gamma_start": 0.0, "gamma_stop": 3.0,
                              "gamma_step": 1e-13}}
        for scenario, to in [
                (write_scenario(tmp_path, {"task": "spectrum"}), out),
                (write_scenario(tmp_path, too_fine, "too-fine.json"), out),
                ("fig1c", str(tmp_path / "file"))]:
            assert loaded_modules(main_exits(["run", scenario, "--out", to],
                                             2), FRONT_END) == CLI_MODULES
        assert not (tmp_path / "out").exists()


class TestLongChain:
    @staticmethod
    def profile_scenario(tmp_path, n_reservoir):
        return write_scenario(tmp_path, {
            "task": "mode-profile",
            "system": {"n": 9, "tA": 1.0, "tB": 0.2},
            "reservoir": {"n": n_reservoir, "tA": 1.0, "tB": 1.0,
                          "gamma": 2.0},
            "coupling": 0.2})

    def test_mode_profile_repeats_byte_for_byte(self, tmp_path):
        path = self.profile_scenario(tmp_path, 200)
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(["run", path, "--out", str(out)]) == 0
        for name in ("profile.csv", "regime.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_mode_profile_memory_stays_linear(self, tmp_path):
        # the dense 5009 x 5009 complex matrix alone would take 400 MB
        path = self.profile_scenario(tmp_path, 5000)
        import scipy.linalg.lapack  # noqa: F401  (import outside the count)
        tracemalloc.start()
        try:
            assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        rows = (tmp_path / "out" / "profile.csv").read_text().splitlines()[3:]
        assert len(rows) == 5009
