import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for
from swapchannel import PulseEvent, PulseSchedule, Window, schedule_to_json, swap_pulses
from swapchannel import cli
from swapchannel.cli import _dump_json, main

BUNDLED = ("fig2_quantum_wire", "fig4_classical_wire", "table1_copy")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_reference_point_json(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--t-ns", "10")
        assert code == 0
        obj = json.loads(out)
        assert_allclose(obj["delta_mhz"], 25.0, atol=1e-12)
        assert_allclose(obj["xi_mhz"], 125.0 * np.sqrt(3.0) / 10.0, rtol=1e-12)
        assert_allclose(obj["f1_mhz"], 100.0)
        assert_allclose(obj["f2_mhz"], 50.0)
        assert obj["conditions"]["ok"] is True

    def test_solve_from_coupling(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--delta-mhz", "2.5")
        assert code == 0
        assert_allclose(json.loads(out)["t_ns"], 100.0, rtol=1e-12)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        code, out, _ = run_cli(capsys, "solve", "--t-ns", "10", "--out", str(path))
        assert code == 0
        assert path.read_text() == out

    def test_infeasible_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--t-ns", "10", "--m", "1", "--n", "1")
        assert code == 2
        assert "infeasible" in err

    @pytest.mark.parametrize("flag", ["--t-ns", "--delta-mhz"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exits_1(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "solve", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_reports_are_strict_json(self):
        with pytest.raises(ValueError):
            _dump_json({"fidelity": float("nan")})

    def test_requires_exactly_one_anchor(self, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 1
        code, _, err = run_cli(capsys, "solve", "--t-ns", "10", "--delta-mhz", "25")
        assert code == 1
        assert "exactly one" in err


class TestScheduleAndValidate:
    def test_quantum_schedule_round_trips_through_validate(self, capsys, tmp_path):
        path = tmp_path / "wire.json"
        code, _, _ = run_cli(
            capsys,
            "schedule", "--kind", "quantum", "--n-qubits", "5",
            "--n-states", "2", "--out", str(path),
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["n_qubits"] == 5
        code, out, _ = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["line_check"]["ok"] is True

    def test_classical_schedule(self, capsys, tmp_path):
        path = tmp_path / "bits.json"
        code, _, _ = run_cli(
            capsys,
            "schedule", "--kind", "classical", "--n-qubits", "6",
            "--bits", "101", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 0

    def test_schedule_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", "--kind", "quantum", "--n-qubits", "3", "--n-states", "1"
        )
        assert code == 0
        assert json.loads(out)["format"].startswith("swapchannel-schedule/")

    def test_non_finite_parking_bias_exits_1(self, capsys, tmp_path):
        path = tmp_path / "wire.json"
        code, _, err = run_cli(
            capsys,
            "schedule", "--kind", "quantum", "--n-qubits", "5", "--n-states", "1",
            "--eps-high-mhz", "nan", "--out", str(path),
        )
        assert code == 1
        assert "eps_high_mhz" in err
        assert not path.exists()

    def test_missing_kind_arguments(self, capsys):
        code, _, err = run_cli(capsys, "schedule", "--kind", "quantum", "--n-qubits", "5")
        assert code == 1
        assert "n-states" in err
        code, _, err = run_cli(capsys, "schedule", "--kind", "classical", "--n-qubits", "6")
        assert code == 1
        code, _, err = run_cli(
            capsys, "schedule", "--kind", "classical", "--n-qubits", "6", "--bits", "21"
        )
        assert code == 1

    def test_validate_flags_bad_schedule(self, capsys, tmp_path, design):
        spec = chain_for(design, 4, eps_high=25000.0)
        triple = swap_pulses(spec, 1, 2, design.t_ns)
        inject = Window(
            start_ns=-design.t_ns,
            duration_ns=design.t_ns,
            biases_mhz=triple.windows[0].biases_mhz,
            events=(PulseEvent(kind="inject", qubit=0, data_index=0),),
        )
        bad = PulseSchedule(n_qubits=4, windows=(inject,) + triple.windows)
        path = tmp_path / "bad.json"
        path.write_text(schedule_to_json(bad, None))
        code, out, _ = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        assert report["violations"][0]["kind"] == "sacrificial_occupied"

    def test_validate_unreadable_or_malformed(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", "--schedule", str(tmp_path / "none.json"))
        assert code == 1
        broken = tmp_path / "broken.json"
        broken.write_text("{]")
        code, _, err = run_cli(capsys, "validate", "--schedule", str(broken))
        assert code == 1


def _edit_biases(doc, value):
    doc["windows"][2]["biases_mhz"][1] = value


def _edit_start(doc, value):
    doc["windows"][2]["start_ns"] = value


def _edit_duration(doc, value):
    doc["windows"][2]["duration_ns"] = value


def _overlap(doc):
    doc["windows"][2]["start_ns"] = doc["windows"][1]["start_ns"] + 1.0


def _inject_without_data(doc):
    doc["windows"][0]["events"][0]["data_index"] = None


def _edit_event(doc, **fields):
    doc["windows"][0]["events"][0].update(fields)


class TestValidateRefusesBadScheduleFiles:
    """Hand-edited schedule files that validated ok before, now exit 1."""

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda d: _edit_biases(d, float("nan")), "biases_mhz must be finite"),
            (lambda d: _edit_biases(d, float("inf")), "biases_mhz must be finite"),
            (lambda d: _edit_start(d, float("nan")), "start_ns must be finite"),
            (lambda d: _edit_duration(d, float("inf")), "duration_ns must be finite"),
            (lambda d: _edit_duration(d, -10.0), "duration_ns must be >= 0"),
            (_overlap, "before the previous window ends"),
            (_inject_without_data, "has no data_index"),
            (lambda d: _edit_event(d, qubit=1.5), "event qubit must be an integer, got 1.5"),
            (lambda d: _edit_event(d, qubit=True), "event qubit must be an integer, got True"),
            (lambda d: d["final_events"][0].update(qubit="4"),
             "event qubit must be an integer, got '4'"),
            (lambda d: _edit_event(d, data_index="a"),
             "data_index must be an integer or null, got 'a'"),
            (lambda d: d["final_events"][0].update(data_index=0.0),
             "data_index must be an integer or null, got 0.0"),
            (lambda d: d["windows"][2].update(biases_mhz="12"),
             "window 2: biases_mhz must be an array of numbers, got '12'"),
            (lambda d: d["windows"][2].update(biases_mhz={"0": 1.0}),
             "biases_mhz must be an array of numbers"),
            (lambda d: _edit_biases(d, "25000"),
             "biases_mhz must be an array of numbers, got '25000'"),
            (lambda d: _edit_biases(d, False),
             "biases_mhz must be an array of numbers, got False"),
            (lambda d: d.update(n_qubits=5.7), "n_qubits must be an integer, got 5.7"),
            (lambda d: _edit_start(d, "20"), "window 2: start_ns must be a number, got '20'"),
            (lambda d: _edit_duration(d, True),
             "window 2: duration_ns must be a number, got True"),
            (lambda d: _edit_start(d, 10**400), "int too large to convert to float"),
            (lambda d: d["lines"]["map"].__setitem__(1, 1.5),
             "line of qubit 1 must be an integer or null, got 1.5"),
            (lambda d: d["lines"]["map"].__setitem__(2, "2"),
             "line of qubit 2 must be an integer or null, got '2'"),
            (lambda d: d["lines"].update(n_lines=float(d["lines"]["n_lines"])),
             "lines.n_lines must be an integer, got"),
            (lambda d: d.update(label=[1, 2]), "label must be a string, got [1, 2]"),
        ],
        ids=["nan-bias", "inf-bias", "nan-start", "inf-duration", "negative-duration",
             "overlap", "inject-null-data-index", "float-qubit", "bool-qubit",
             "string-qubit", "string-data-index", "float-data-index", "string-biases",
             "object-biases", "string-bias", "bool-bias", "float-n-qubits", "string-start",
             "bool-duration", "huge-int-start", "float-line", "string-line",
             "float-n-lines", "list-label"],
    )
    def test_exits_1_with_message(self, capsys, tmp_path, edit, fragment):
        code, out, _ = run_cli(
            capsys, "schedule", "--kind", "quantum", "--n-qubits", "5", "--n-states", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["windows"][0]["events"][0]["kind"] == "inject"
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 1
        assert out == ""
        assert fragment in err

    def test_integer_biases_are_numbers(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "schedule", "--kind", "quantum", "--n-qubits", "5", "--n-states", "1"
        )
        doc = json.loads(out)
        doc["windows"][2]["biases_mhz"] = [int(b) for b in doc["windows"][2]["biases_mhz"]]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 0

    def test_windows_that_touch_within_rounding_are_accepted(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "schedule", "--kind", "quantum", "--n-qubits", "5", "--n-states", "1"
        )
        doc = json.loads(out)
        doc["windows"][2]["start_ns"] -= 1e-10
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 0


class TestTraceCommand:
    def test_csv_columns_agree(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys,
            "trace", "--delta-mhz", "25", "--bias-mhz", "43.30127018922193",
            "--duration-ns", "40", "--samples", "80", "--out", str(path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["rows"] == 81
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 81
        assert list(rows[0]) == ["time_ns", "p1_simulated", "p1_analytic"]
        for row in rows:
            assert_allclose(
                float(row["p1_simulated"]), float(row["p1_analytic"]), atol=1e-9
            )

    def test_plot_script_references_csv(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        script = tmp_path / "plot.py"
        code, _, _ = run_cli(
            capsys,
            "trace", "--delta-mhz", "10", "--duration-ns", "5",
            "--out", str(path), "--plot-script", str(script),
        )
        assert code == 0
        body = script.read_text()
        assert str(path) in body
        assert "matplotlib" in body

    def test_zero_duration_gives_empty_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "trace", "--delta-mhz", "10", "--duration-ns", "0", "--out", str(path)
        )
        assert code == 0
        assert json.loads(out)["rows"] == 0
        assert path.read_text().strip() == "time_ns,p1_simulated,p1_analytic"

    def test_negative_duration_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "trace", "--delta-mhz", "10", "--duration-ns", "-1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--delta-mhz", "nan", "delta_mhz"), ("--bias-mhz", "inf", "effective_bias_mhz")],
    )
    def test_non_finite_parameters_exit_1(self, capsys, tmp_path, flag, value, field):
        args = {"--delta-mhz": "10", "--bias-mhz": "0", flag: value}
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                capsys,
                "trace", "--delta-mhz", args["--delta-mhz"], "--bias-mhz", args["--bias-mhz"],
                "--duration-ns", "10", "--out", str(out),
            )
        assert code == 1
        assert f"{field} must be finite, got {value}" in err
        assert "Hermitian" not in err
        assert not out.exists()

    def test_zero_samples_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "trace", "--delta-mhz", "10", "--duration-ns", "10",
            "--samples", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "--samples" in err


class TestRunCommand:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_configs_pass(self, capsys, tmp_path, name):
        code, out, _ = run_cli(capsys, "run", "--config", name, "--out-dir", str(tmp_path))
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        report_files = list(tmp_path.glob("*report*.json"))
        assert len(report_files) == 1
        report = json.loads(report_files[0].read_text())
        assert report["assertions"]["passed"] is True

    def test_quantum_wire_outputs_schedule_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", "--config", "fig2_quantum_wire", "--out-dir", str(tmp_path)
        )
        assert code == 0
        sch = json.loads((tmp_path / "quantum_wire_schedule.json").read_text())
        assert sch["n_qubits"] == 5

    @pytest.mark.parametrize("name", BUNDLED)
    def test_reports_are_deterministic(self, capsys, tmp_path, name):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, _, _ = run_cli(capsys, "run", "--config", name, "--out-dir", str(d))
            assert code == 0
        files = sorted(p.name for p in a.glob("*.json"))
        assert files and files == sorted(p.name for p in b.glob("*.json"))
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), f

    def test_failing_assertion_exits_3(self, capsys, tmp_path):
        cfg = {
            "experiment": "copy_table",
            "t_ns": 10.0,
            "mode": "full",
            "assertions": {"min_fidelity": 1.1},
            "outputs": {"report": "copy.json"},
        }
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 3
        assert any(l.startswith("FAIL") for l in out.splitlines())

    def test_gate_config_with_sweep(self, capsys, tmp_path):
        cfg = {
            "experiment": "gate",
            "t_ns": 10.0,
            "mode": "full",
            "eps_grid": [250.0, 2500.0, 25000.0],
            "assertions": {
                "max_worst_infidelity": 0.015,
                "slope_range": [-2.5, -1.5],
            },
            "outputs": {"report": "gate.json"},
        }
        path = tmp_path / "gate.json.cfg"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "gate.json").read_text())
        assert len(report["sweep"]["points"]) == 3
        assert -2.5 < report["sweep"]["slope"] < -1.5

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"mystery": 1}, "config.mystery"),
            ({"mode": "fastest"}, "config.mode"),
            ({"assertions": {"min_latency": 1}}, "config.assertions.min_latency"),
            ({"outputs": {"plot": "x.png"}}, "config.outputs.plot"),
            ({"bits": [0, 2]}, "config.bits"),
        ],
    )
    def test_config_validation_errors(self, capsys, tmp_path, patch, fragment):
        cfg = {
            "experiment": "classical_wire",
            "n_qubits": 6,
            "bits": [1, 0],
            "outputs": {"report": "r.json"},
        }
        cfg.update(patch)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert fragment in err

    def test_random_states_require_seed(self, capsys, tmp_path):
        cfg = {
            "experiment": "quantum_wire",
            "n_qubits": 5,
            "n_states": 1,
            "states": "random",
            "mode": "reduced",
        }
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert "config.seed" in err

    def test_explicit_states_must_be_normalised(self, capsys, tmp_path):
        cfg = {
            "experiment": "quantum_wire",
            "n_qubits": 5,
            "n_states": 1,
            "states": [[1.0, 0.0, 1.0, 0.0]],
            "mode": "reduced",
        }
        path = tmp_path / "badnorm.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert "norm" in err

    def test_library_refusal_exits_1_without_traceback(self, capsys, tmp_path):
        # 13 qubits passes config validation but is above the dense full-mode cap.
        cfg = {"experiment": "quantum_wire", "n_qubits": 13, "mode": "full", "seed": 1}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "13-qubit" in err

    def test_unknown_config_name(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--config", "fig9_missing", "--out-dir", str(tmp_path)
        )
        assert code == 1


class TestModuleEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swapchannel", "solve", "--t-ns", "10"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert_allclose(json.loads(proc.stdout)["delta_mhz"], 25.0)


class TestRunRefusesBadValuesBeforeRunning:
    """Config values are type-checked before any experiment runs."""

    @pytest.fixture(autouse=True)
    def no_experiment_runs(self, monkeypatch):
        monkeypatch.setattr(cli, "_RUNNERS", {})

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ('{"experiment": "gate", "eps_grid": [1e308, 1e309]}',
             "config.eps_grid[1]: must be finite, got inf"),
            ('{"experiment": "copy_table", "t_ns": NaN}', "config.t_ns: must be finite, got nan"),
            ('{"experiment": "copy_table", "eps_high_mhz": -Infinity}',
             "config.eps_high_mhz: must be finite, got -inf"),
        ],
        ids=["inf-eps-grid", "nan-t-ns", "inf-eps-high"],
    )
    def test_non_finite_numbers_exit_1(self, capsys, tmp_path, text, fragment):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and fragment in err

    @pytest.mark.parametrize(
        "experiment, assertions, fragment",
        [
            ("copy_table", {"min_fidelity": "x"},
             "config.assertions.min_fidelity: expected a number, got 'x'"),
            ("copy_table", {"min_fidelity": True},
             "config.assertions.min_fidelity: expected a number, got True"),
            ("quantum_wire", {"min_reduced_fidelity": None},
             "config.assertions.min_reduced_fidelity: expected a number"),
            ("quantum_wire", {"max_reduced_phase_error": [1e-6]},
             "config.assertions.max_reduced_phase_error: expected a number"),
            ("gate", {"max_worst_infidelity": "0.01"},
             "config.assertions.max_worst_infidelity: expected a number"),
            ("classical_wire", {"require_echo": "yes"},
             "config.assertions.require_echo: expected true or false, got 'yes'"),
            ("classical_wire", {"expect_latency_sequences": 3.0},
             "config.assertions.expect_latency_sequences: expected an integer, got 3.0"),
            ("gate", {"slope_range": [-2.5]}, "config.assertions.slope_range: expected [low, high]"),
            ("gate", {"slope_range": ["a", -1.5]},
             "config.assertions.slope_range[0]: expected a number, got 'a'"),
            ("gate", {"slope_range": [-2.5, -1.5]}, "config.assertions.slope_range: needs eps_grid"),
        ],
        ids=["string-min-fidelity", "bool-min-fidelity", "null-min-reduced-fidelity",
             "list-phase-error", "string-worst-infidelity", "string-require-echo",
             "float-latency", "short-slope-range", "string-slope-bound", "slope-without-grid"],
    )
    def test_assertion_values_exit_1(self, capsys, tmp_path, experiment, assertions, fragment):
        cfg = {"experiment": experiment, "assertions": assertions}
        if experiment == "quantum_wire":
            cfg["seed"] = 0
        if experiment == "classical_wire":
            cfg["bits"] = [1, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and fragment in err
