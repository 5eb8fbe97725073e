import csv
import importlib
import json
import math
import pathlib
import re
import runpy
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for
from oracles import hold_bias_swap_pulses, schedule_rows
from swapchannel import PulseEvent, PulseSchedule, Window, schedule_to_json
from swapchannel import cli
from swapchannel.cli import (
    MAX_CONFIG_ITEMS, MAX_CONFIG_QUBITS, MAX_TRACE_PHASE_RAD, _dump_json, main
)

BUNDLED = ("fig2_quantum_wire", "fig4_classical_wire", "table1_copy")
GOLDEN = pathlib.Path(__file__).parent / "golden"


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

    def test_design_failing_its_check_exits_3(self, capsys):
        # M = 2 is even: the design breaks the phase-exact rule it reports on
        code, out, _ = run_cli(capsys, "solve", "--t-ns", "10", "--m", "2")
        assert code == 3
        assert json.loads(out)["conditions"]["ok"] is False
        code, out, _ = run_cli(capsys, "solve", "--t-ns", "10", "--m", "2", "--no-phase-exact")
        assert (code, json.loads(out)["conditions"]["ok"]) == (0, True)

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

    @pytest.mark.parametrize("value", ["0", "-0.0", "-1"])
    def test_non_positive_parking_bias_exits_1(self, capsys, tmp_path, value):
        # 0 is refused like any value <= 0, not taken as "no flag given"
        path = tmp_path / "wire.json"
        code, _, err = run_cli(
            capsys,
            "schedule", "--kind", "quantum", "--n-qubits", "5", "--n-states", "1",
            "--eps-high-mhz", value, "--out", str(path),
        )
        assert code == 1
        assert "eps_high_mhz must be > 0" in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "flag, value, fragment",
        [
            ("--m", "0", "--m: must be >= 1, got 0"),
            ("--n", "-1", "--n: must be >= 0, got -1"),
            ("--t-ns", "0", "--t-ns: must be >= 1e-09, got 0.0"),
            ("--t-ns", "inf", "--t-ns: must be finite, got inf"),
        ],
        ids=["m-0", "n-negative", "t-ns-0", "t-ns-inf"],
    )
    def test_design_flags_take_the_config_bounds(self, capsys, tmp_path, flag, value, fragment):
        # a design out of the config rows exits 1, as the same value in a
        # ``run`` config does, not 2 (infeasible)
        path = tmp_path / "wire.json"
        code, out, err = run_cli(
            capsys,
            "schedule", "--kind", "quantum", "--n-qubits", "5", "--n-states", "1",
            flag, value, "--out", str(path),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {fragment}")
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

    @pytest.mark.parametrize("argv, flag", [
        (["--kind", "quantum", "--n-qubits", "3", "--n-states", "1", "--bits", "21"], "--bits"),
        (["--kind", "classical", "--n-qubits", "6", "--bits", "101", "--n-states", "3"],
         "--n-states"),
    ], ids=["bits-on-quantum", "n-states-on-classical"])
    def test_refuses_the_other_kinds_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "schedule", *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} is not an option of a")

    def test_validate_flags_bad_schedule(self, capsys, tmp_path, design):
        spec = chain_for(design, 4, eps_high=25000.0)
        triple, _ = schedule_rows(hold_bias_swap_pulses(spec, 1, 2, design.t_ns))
        inject = Window(
            start_ns=-design.t_ns,
            duration_ns=design.t_ns,
            biases_mhz=triple[0].biases_mhz,
            events=(PulseEvent(kind="inject", qubit=0, data_index=0),),
        )
        bad = PulseSchedule(n_qubits=4, windows=(inject,) + triple)
        path = tmp_path / "bad.json"
        path.write_text(schedule_to_json(bad, None))
        code, out, _ = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        assert report["violations"][0]["kind"] == "sacrificial_occupied"

    @pytest.mark.parametrize("big", [10**10, 10**400], ids=["1e10", "1e400"])
    def test_validate_huge_line_numbers(self, capsys, tmp_path, big):
        # A line number is any integer below n_lines; none sizes an array.
        sch = PulseSchedule(
            n_qubits=3,
            windows=(Window(0.0, 10.0, (0.0, 5.0, 0.0), (PulseEvent("cnot_pulse", 1),)),),
        )
        for line_map, code_want in (([None, big, 0], 0), ([None, big, big], 3)):
            doc = json.loads(schedule_to_json(sch))
            doc["lines"] = {"map": line_map, "n_lines": big + 1}
            path = tmp_path / "wire.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "validate", "--schedule", str(path))
            assert code == code_want, err
            assert json.loads(out)["line_check"]["ok"] is (code_want == 0)

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


class TestUnreadableFilesAreNamed:
    """A config or schedule path that cannot be read as UTF-8 text exits 1
    with one error line naming it, not a traceback."""

    @pytest.mark.parametrize("command, flag, kind", [
        ("run", "--config", "directory"),
        ("run", "--config", "not-utf-8"),
        ("validate", "--schedule", "not-utf-8"),
        ("validate", "--schedule", "directory"),
    ])
    def test_exit_1_naming_the_path(self, capsys, tmp_path, command, flag, kind):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff{}")
        out_dir = ["--out-dir", str(tmp_path)] if command == "run" else []
        code, out, err = run_cli(capsys, command, flag, str(path), *out_dir)
        assert (code, out) == (1, "")
        what = "config" if flag == "--config" else "cannot read schedule file"
        assert err.startswith(f"error: {what} {str(path)!r}: ") and err.count("\n") == 1
        assert "Traceback" not in err


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
             "biases_mhz must be a number, got '25000'"),
            (lambda d: _edit_biases(d, False),
             "biases_mhz must be a number, got False"),
            (lambda d: d.update(n_qubits=5.7), "n_qubits must be an integer, got 5.7"),
            (lambda d: _edit_start(d, "20"), "window 2: start_ns must be a number, got '20'"),
            (lambda d: _edit_duration(d, True),
             "window 2: duration_ns must be a number, got True"),
            (lambda d: _edit_start(d, 10**400),
             "must be finite, got an integer too large for a float"),
            (lambda d: d["lines"]["map"].__setitem__(1, 1.5),
             "line of qubit 1 must be an integer or null, got 1.5"),
            (lambda d: d["lines"]["map"].__setitem__(2, "2"),
             "line of qubit 2 must be an integer or null, got '2'"),
            (lambda d: d["lines"].update(n_lines=float(d["lines"]["n_lines"])),
             "lines.n_lines must be an integer, got"),
            (lambda d: d.update(label=[1, 2]), "label must be a string, got [1, 2]"),
            (lambda d: _edit_event(d, data_index=-1), "data_index must be >= 0, got -1"),
            (lambda d: d["final_events"][0].update(data_index=-7),
             "data_index must be >= 0, got -7"),
            (lambda d: d["lines"].update(map=[None] * 5, n_lines=-7),
             "lines.n_lines must be >= 0, got -7"),
            (lambda d: d.update(windows={}), "windows must be an array, got {}"),
            (lambda d: d.update(final_events=""), "final_events must be an array, got ''"),
            (lambda d: d["windows"][3].update(events={}),
             "window 3: events must be an array, got {}"),
        ],
        ids=["nan-bias", "inf-bias", "nan-start", "inf-duration", "negative-duration",
             "overlap", "inject-null-data-index", "float-qubit", "bool-qubit",
             "string-qubit", "string-data-index", "float-data-index", "string-biases",
             "object-biases", "string-bias", "bool-bias", "float-n-qubits", "string-start",
             "bool-duration", "huge-int-start", "float-line", "string-line",
             "float-n-lines", "list-label", "negative-data-index",
             "negative-final-data-index", "negative-n-lines", "object-windows",
             "string-final-events", "object-events"],
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
        assert err.startswith("error:") and fragment in err

    @pytest.mark.parametrize("n_qubits", [0, -1])
    def test_fewer_than_one_qubit(self, capsys, tmp_path, n_qubits):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"format": "swapchannel-schedule/1", "n_qubits": n_qubits,
                                    "windows": [], "final_events": [], "label": "",
                                    "lines": None}))
        code, out, err = run_cli(capsys, "validate", "--schedule", str(path))
        assert (code, out) == (1, "")
        assert f"n_qubits must be >= 1, got {n_qubits}" in err

    def test_deep_nesting_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, "validate", "--schedule", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(path) in err and "not valid JSON" in err

    def test_integer_past_the_digit_limit_names_the_file(self, capsys, tmp_path):
        # json refuses an integer longer than the interpreter's int-string limit
        # (4300 digits by default) with a plain ValueError, not a JSONDecodeError
        _, out, _ = run_cli(capsys, "schedule", "--kind", "quantum", "--n-qubits", "5",
                            "--n-states", "1")
        head, tail = out.rsplit('"data_index": 0', 1)
        path = tmp_path / "long.json"
        path.write_text(f'{head}"data_index": {"9" * 5000}{tail}')
        code, out, err = run_cli(capsys, "validate", "--schedule", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: schedule {str(path)!r}: schedule file is not valid JSON: ")
        assert "digits" in err and err.count("\n") == 1

    def test_huge_qubit_count_without_windows_allocates_nothing(self, capsys, tmp_path):
        # nothing but n_qubits and the final events' qubits: no list of 10**400
        big = 10**400
        events = [{"kind": "inject", "qubit": big, "data_index": 0},
                  {"kind": "read_reset", "qubit": big, "data_index": 0}]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"format": "swapchannel-schedule/1", "n_qubits": big + 1,
                                    "windows": [], "final_events": events, "label": "",
                                    "lines": None}))
        code, out, _ = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 0
        assert json.loads(out)["n_qubits"] == big + 1

    def test_huge_data_index_is_a_plain_symbol(self, capsys, tmp_path):
        # the replay keeps data indices as Python ints, never in a fixed-width array
        code, out, _ = run_cli(
            capsys, "schedule", "--kind", "quantum", "--n-qubits", "5", "--n-states", "1"
        )
        doc = json.loads(out)
        doc["windows"][0]["events"][0]["data_index"] = 10**400
        doc["final_events"][0]["data_index"] = 10**400
        path = tmp_path / "huge-index.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", "--schedule", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

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

    @pytest.mark.parametrize("script", ["{dir}", "{csv}", "{tmp}/./t.csv"],
                             ids=["a-directory", "the-csv-path", "the-csv-spelled-apart"])
    def test_a_refused_plot_script_leaves_no_file(self, capsys, tmp_path, script):
        # the CSV used to be left behind by a plot script that could not be
        # written, and to be overwritten by one at its own path (exit 0)
        csv_path, directory = tmp_path / "t.csv", tmp_path / "plots"
        directory.mkdir()
        script = script.format(dir=directory, csv=csv_path, tmp=tmp_path)
        code, out, err = run_cli(capsys, "trace", "--delta-mhz", "25", "--duration-ns", "10",
                                 "--out", str(csv_path), "--plot-script", script)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["plots"]
        assert not any(directory.iterdir())

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
        "flag, value",
        [("--delta-mhz", "nan"), ("--bias-mhz", "inf"), ("--duration-ns", "nan")],
    )
    def test_non_finite_parameters_exit_1(self, capsys, tmp_path, flag, value):
        # each flag is checked up front and named, not deep in the simulation
        args = {"--delta-mhz": "10", "--bias-mhz": "0", "--duration-ns": "10", flag: value}
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                capsys,
                "trace", "--delta-mhz", args["--delta-mhz"], "--bias-mhz", args["--bias-mhz"],
                "--duration-ns", args["--duration-ns"], "--out", str(out),
            )
        assert code == 1
        assert err.startswith(f"error: {flag}: must be finite, got {value}")
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

    @pytest.mark.parametrize("delta", ["0", "-5"])
    def test_non_positive_delta_exits_1(self, capsys, tmp_path, delta):
        out = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "trace", "--delta-mhz", delta, "--duration-ns", "10",
                               "--out", str(out))
        assert code == 1
        assert err.startswith("error: --delta-mhz: must be > 0")
        assert not out.exists()

    def test_huge_parameters_do_not_overflow_the_descriptor(self, capsys, tmp_path):
        # zero duration: no phase accrues, so the phase bound lets it through
        code, out, _ = run_cli(capsys, "trace", "--delta-mhz", "1e300", "--bias-mhz", "1e300",
                               "--duration-ns", "0", "--out", str(tmp_path / "t.csv"))
        assert code == 0
        summary = json.loads(out)
        assert_allclose(summary["offset"], 0.25, rtol=1e-15)
        assert_allclose(summary["frequency_mhz"], 2.0 * math.sqrt(2.0) * 1e300, rtol=1e-15)

    @pytest.mark.parametrize("value", ["1e300", "1e308"])
    def test_phase_past_float_resolution_exits_1(self, capsys, tmp_path, value):
        out = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "trace", "--delta-mhz", value, "--bias-mhz", value,
                               "--duration-ns", "10", "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and "total phase" in err
        assert not out.exists()

    def test_phase_just_under_the_bound_matches_the_analytic_column(self, capsys, tmp_path):
        # delta = bias over 10 ns, for a total phase of 0.99 * MAX_TRACE_PHASE_RAD
        duration = 10.0
        delta = 0.99 * MAX_TRACE_PHASE_RAD / (2e-3 * math.pi * math.sqrt(2.0) * duration)
        path = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "trace", "--delta-mhz", repr(delta), "--bias-mhz",
                             repr(delta), "--duration-ns", repr(duration), "--out", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 201
        for row in rows:
            assert_allclose(float(row["p1_simulated"]), float(row["p1_analytic"]), atol=1e-6)


class TestParkedPhaseBound:
    """A parking bias whose phase per window, 2*pi*1e-3*eps*t_ns, is past
    MAX_TRACE_PHASE_RAD exits 1 naming its key: float64 cannot resolve such a
    phase, and the bundled quantum wire read a corrected fidelity of
    0.999996560 at 1e13 MHz and refused a false entanglement at 1e15 MHz."""

    @pytest.mark.parametrize("eps", [1e13, 1e15])
    def test_run_refuses_the_bundled_wire_at_a_huge_bias(self, capsys, tmp_path, eps):
        cfg = cli._load_config("fig2_quantum_wire") | {"eps_high_mhz": eps}
        path = tmp_path / "wire.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config.eps_high_mhz: a qubit parked at {eps:.3g} MHz")
        assert "float64 cannot resolve its phase" in err
        assert not list(tmp_path.glob("*report*"))

    def test_run_holds_the_snapped_bias_to_the_bound(self, capsys, tmp_path):
        # snap_1000x_delta parks at 1000 delta, a phase of 500*pi*(2n + 1) per
        # window: 3.1e9 rad at n = 1e6, and 1.0e9 rad at n = 318309
        for n, code in ((10**6, 1), (318309, 0)):
            path = tmp_path / "copy.json"
            path.write_text(json.dumps({"experiment": "copy_table", "m": n + 1, "n": n}))
            got, _, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
            assert got == code
            assert err.startswith("error: config.eps_high_mhz: a qubit parked at 5e+10 MHz "
                                  "turns 3.14e+09 rad per window") == (code == 1)

    def test_run_refuses_a_sweep_point_past_the_bound(self, capsys, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text(json.dumps({"experiment": "gate", "mode": "full",
                                    "eps_grid": [2500.0, 1e13]}))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: config.eps_grid[1]: a qubit parked at 1e+13 MHz")

    @pytest.mark.parametrize("eps, t_ns, code", [
        ("1.5e10", "10", 0), ("1.6e10", "10", 1), ("1.6e10", "9", 0), ("1e13", "10", 1),
    ])
    def test_schedule_takes_the_bound_at_its_window(self, capsys, tmp_path, eps, t_ns, code):
        # the bound is 1e9 / (2*pi*1e-3 * t_ns) MHz: about 1.59e10 MHz at 10 ns
        path = tmp_path / "wire.json"
        got, _, err = run_cli(capsys, "schedule", "--kind", "quantum", "--n-qubits", "5",
                              "--n-states", "1", "--t-ns", t_ns, "--eps-high-mhz", eps,
                              "--out", str(path))
        assert got == code and path.exists() == (code == 0)
        assert err.startswith("error: --eps-high-mhz: a qubit parked at") == (code == 1)


def assert_matches_golden(got, want, path="report"):
    """Keys, strings, ints and bools exactly; floats to 1e-9, and a float
    under a key naming a phase modulo 2 pi."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches_golden(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        diff = got - want
        if "phase" in path.rsplit(".", 1)[-1]:
            diff = (diff + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(diff) <= 1e-9, (path, got, want)
    else:
        assert got == want, path


_QUANTUM = {"experiment": "quantum_wire", "n_qubits": 5, "seed": 1}
_CLASSICAL = {"experiment": "classical_wire", "n_qubits": 4, "bits": [1, 0]}
_GATE = {"experiment": "gate", "eps_grid": [250.0, 2500.0, 25000.0]}
#: One case per assertion key, each config running both modes: the key, its
#: config, a limit that passes, the change that makes it fail, and the checks it
#: prints in order, with their status when it fails.
_KEY_CASES = [
    ("min_reduced_fidelity", _QUANTUM, 0.999, {"assertions": {"min_reduced_fidelity": 1.5}},
     [("min_reduced_fidelity", "FAIL")]),
    ("max_reduced_phase_error", _QUANTUM, 1e-6,
     {"assertions": {"max_reduced_phase_error": -1.0}}, [("max_reduced_phase_error", "FAIL")]),
    ("min_corrected_fidelity", _QUANTUM, 0.99, {"assertions": {"min_corrected_fidelity": 1.5}},
     [("min_corrected_fidelity", "FAIL")]),
    # a 30 MHz parking bias (25 GHz by default) flips a full-mode bit; reduced mode
    # models parked qubits as ideal
    ("require_echo", _CLASSICAL, True, {"eps_high_mhz": 30.0},
     [("echo_reduced", "PASS"), ("echo_full", "FAIL")]),
    ("expect_latency_sequences", _CLASSICAL, 2,
     {"assertions": {"expect_latency_sequences": 99}},
     [("latency_reduced", "FAIL"), ("latency_full", "FAIL")]),
    ("min_fidelity", {"experiment": "copy_table"}, 0.999, {"assertions": {"min_fidelity": 1.5}},
     [("min_fidelity_reduced", "FAIL"), ("min_fidelity_full", "FAIL")]),
    ("max_worst_infidelity", _GATE, 0.015, {"assertions": {"max_worst_infidelity": 1e-30}},
     [("max_worst_infidelity", "FAIL")]),
    ("slope_range", _GATE, [-2.5, -1.5], {"assertions": {"slope_range": [1.0, 2.0]}},
     [("slope_range", "FAIL")]),
]


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

    @pytest.mark.parametrize("name", BUNDLED + (str(GOLDEN / "gate_config.json"),),
                             ids=lambda name: pathlib.Path(name).stem)
    def test_reports_match_golden(self, capsys, tmp_path, name):
        code, _, _ = run_cli(capsys, "run", "--config", name, "--out-dir", str(tmp_path))
        assert code == 0
        reports = sorted(tmp_path.glob("*_report.json"))
        assert len(reports) == 1
        want = json.loads((GOLDEN / reports[0].name).read_text())
        assert_matches_golden(json.loads(reports[0].read_text()), want)

    @pytest.mark.parametrize("name", ["fig2_quantum_wire", "fig4_classical_wire"])
    def test_schedule_files_match_golden_bytes(self, capsys, tmp_path, name):
        code, _, _ = run_cli(capsys, "run", "--config", name, "--out-dir", str(tmp_path))
        assert code == 0
        written = sorted(tmp_path.glob("*_schedule.json"))
        assert len(written) == 1
        assert written[0].read_bytes() == (GOLDEN / written[0].name).read_bytes()

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

    @pytest.mark.parametrize("key, base, limit, breaks, failing", _KEY_CASES,
                             ids=[case[0] for case in _KEY_CASES])
    @pytest.mark.parametrize("passes", [True, False], ids=["passing", "failing"])
    def test_every_assertion_key(self, capsys, tmp_path, key, base, limit, breaks, failing,
                                 passes):
        cfg = base | {"assertions": {key: limit}} | ({} if passes else breaks)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        lines = [l.split(":")[0].split() for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        graded = [(name, status) for status, name in lines
                  if name not in ("schedule_replay_clean", "line_check_ok")]
        assert graded == [(name, "PASS" if passes else status) for name, status in failing]
        assert code == (0 if passes else 3)

    def test_every_assertion_key_has_a_case(self):
        keys = [key for experiment in cli._ASSERTIONS.values() for key in experiment]
        assert sorted(keys) == sorted(case[0] for case in _KEY_CASES)

    @pytest.mark.parametrize(
        "cfg, fragment",
        [
            ({"experiment": "gate", "mode": "reduced",
              "assertions": {"max_worst_infidelity": 1e-30}},
             "config.assertions.max_worst_infidelity: grades mode full, "
             "which this config does not run"),
            ({"experiment": "quantum_wire", "seed": 0, "mode": "full",
              "assertions": {"min_reduced_fidelity": 2.0}},
             "config.assertions.min_reduced_fidelity: grades mode reduced"),
            ({"experiment": "quantum_wire", "seed": 0, "mode": "full",
              "assertions": {"max_reduced_phase_error": 0.0}},
             "config.assertions.max_reduced_phase_error: grades mode reduced"),
            ({"experiment": "quantum_wire", "seed": 0, "mode": "reduced",
              "assertions": {"min_corrected_fidelity": 2.0}},
             "config.assertions.min_corrected_fidelity: grades mode full"),
        ],
        ids=["gate-worst-infidelity-reduced", "quantum-min-reduced-full",
             "quantum-phase-error-full", "quantum-min-corrected-reduced"],
    )
    def test_assertion_on_a_mode_the_config_does_not_run_exits_1(
        self, capsys, tmp_path, cfg, fragment
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and fragment in err

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

    def test_sweep_at_one_repeated_bias_exits_1(self, capsys, tmp_path):
        # A slope needs two distinct biases; a fit through repeated points
        # is rank-deficient.
        cfg = {"experiment": "gate", "mode": "full", "eps_grid": [2500.0, 2500.0]}
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "two or more distinct biases" in err

    @pytest.mark.parametrize("key", ["m", "n"])
    def test_cycle_count_past_the_float_range_exits_1(self, capsys, tmp_path, key):
        cfg = {"experiment": "copy_table", "m": 10**400, key: 10**400 if key == "m" else 0}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "non-finite delta or xi" in err

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

    @pytest.mark.parametrize("cfg, message", [
        ([{"experiment": "classical_wire"}], "top level must be an object"),
        ({"experiment": "classical_wire", "n_qubits": 6}, "config.bits: required"),
        ({"experiment": "quantum_wire", "n_qubits": 5, "n_states": 2, "mode": "reduced",
          "states": [[1.0, 0.0, 0.0, 0.0]]},
         "config.states: expected 'random' or a list of 2 4-number entries"),
    ], ids=["top-level-list", "no-bits", "states-short"])
    def test_config_refusals_name_their_fault(self, capsys, tmp_path, cfg, message):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("bits", [[True, 0.0, 1.0], [1, True], [1, 0.0], [1.0]],
                             ids=["bools-and-floats", "bool", "float-zero", "float-one"])
    def test_bits_are_the_integers_0_and_1(self, capsys, tmp_path, bits):
        path = tmp_path / "bits.json"
        path.write_text(json.dumps({"experiment": "classical_wire", "n_qubits": 6,
                                    "bits": bits}))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert "config.bits: expected a non-empty list of the integers 0 and 1" in err

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

    def test_deeply_nested_config(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and str(path) in err and "not valid JSON" in err

    def test_integer_past_the_digit_limit_names_the_config(self, capsys, tmp_path):
        # as for a schedule file: json's plain ValueError is no traceback or bare line
        path = tmp_path / "long.json"
        path.write_text(f'{{"experiment": "quantum_wire", "t_ns": {"9" * 5000}}}')
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config {str(path)!r} is not valid JSON: ")
        assert "digits" in err and err.count("\n") == 1

    def test_unknown_config_name(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--config", "fig9_missing", "--out-dir", str(tmp_path)
        )
        assert code == 1

    def test_schedule_file_is_written_part_by_part(self, capsys, tmp_path):
        # the bundled quantum wire at L = 256 with 16 states in reduced mode:
        # its schedule text is never held whole, so the run's traced peak stays
        # under 1.5x the file (2.8x while the text was joined and encoded whole)
        cfg = cli._load_config("fig2_quantum_wire") | {"n_qubits": 256, "n_states": 16,
                                                       "mode": "reduced"}
        del cfg["assertions"]["min_corrected_fidelity"]
        path = tmp_path / "wire.json"
        path.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.5 * (tmp_path / cfg["outputs"]["schedule"]).stat().st_size

    @pytest.mark.parametrize("name", ["fig2_quantum_wire", "fig4_classical_wire"])
    def test_an_unwritable_report_leaves_no_schedule_file(self, capsys, tmp_path, name):
        # the report names a directory inside --out-dir: the schedule file and
        # the report are written together, once both are built, so the run
        # exits 1 and leaves neither (the schedule file was written first)
        cfg = cli._load_config(name)
        cfg["outputs"]["report"] = "report"
        out_dir = tmp_path / "out"
        (out_dir / "report").mkdir(parents=True)
        path = tmp_path / "wire.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(out_dir))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {str(out_dir / 'report')!r}: it names a directory\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["report"]


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--config", "table1_copy", "--out-dir", "{file}"),
        ("solve", "--t-ns", "10", "--out", "{file}/x"),
        ("schedule", "--kind", "quantum", "--n-qubits", "3", "--n-states", "1",
         "--out", "{file}/x"),
        ("trace", "--delta-mhz", "10", "--duration-ns", "1", "--out", "{file}/x"),
        ("solve", "--t-ns", "10", "--out", "{dir}"),
    ],
    ids=["run-out-dir-is-file", "solve-under-file", "schedule-under-file",
         "trace-under-file", "solve-out-is-dir"],
)
def test_unwritable_output_path_exits_1(capsys, tmp_path, argv):
    (tmp_path / "file").write_text("keep")
    (tmp_path / "dir").mkdir()
    paths = {"file": tmp_path / "file", "dir": tmp_path / "dir"}
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 1
    assert err.startswith("error: cannot ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert (tmp_path / "file").read_text() == "keep" and not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("existing", [False, True], ids=["new-path", "existing-path"])
def test_failing_parts_leave_no_file_behind(tmp_path, existing):
    # a part that fails after others reached path.tmp: no .tmp file is left
    # and path is not written (a file already there stays as it was)
    path = tmp_path / "out.json"
    if existing:
        path.write_text("keep")

    def parts():
        yield "x" * 2**20  # past the write buffer: on disk before the failure
        raise ValueError("no more parts")

    with pytest.raises(ValueError, match="no more parts"):
        cli._write_text((str(path), parts()))
    assert [p.name for p in tmp_path.iterdir()] == (["out.json"] if existing else [])
    assert not existing or path.read_text() == "keep"


@pytest.mark.parametrize("existing", [False, True], ids=["new-paths", "existing-paths"])
def test_a_failing_second_file_leaves_neither_file_new(tmp_path, existing):
    # every .tmp file is whole before any path is replaced
    first, second = tmp_path / "a.csv", tmp_path / "b.py"
    if existing:
        first.write_text("keep a")
        second.write_text("keep b")

    def parts():
        yield "x"
        raise ValueError("no more parts")

    with pytest.raises(ValueError, match="no more parts"):
        cli._write_text((str(first), ["a"]), (str(second), parts()))
    assert sorted(p.name for p in tmp_path.iterdir()) == (["a.csv", "b.py"] if existing else [])
    assert not existing or (first.read_text(), second.read_text()) == ("keep a", "keep b")


def test_two_files_whose_second_path_is_the_first_ones_tmp_name(tmp_path):
    # "t.csv.tmp" is the second path: once it replaced t.csv, the first .tmp
    # name holds the second file, which the clean-up must not remove
    first = tmp_path / "t.csv"
    cli._write_text((str(first), ["a"]), (str(first) + ".tmp", ["b"]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.csv.tmp"]
    assert (first.read_text(), (tmp_path / "t.csv.tmp").read_text()) == ("a", "b")


class TestModuleEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swapchannel", "solve", "--t-ns", "10"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert_allclose(json.loads(proc.stdout)["delta_mhz"], 25.0)

    def test_runs_in_process_as_the_main_module(self, capsys, monkeypatch):
        # what `python -m swapchannel` runs, here in this process
        monkeypatch.setattr(sys, "argv", ["swapchannel", "solve", "--t-ns", "10"])
        monkeypatch.delitem(sys.modules, "swapchannel.__main__", raising=False)
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("swapchannel", run_name="__main__")
        assert exit_.value.code == 0
        assert_allclose(json.loads(capsys.readouterr().out)["delta_mhz"], 25.0)


class TestOneParserPerProcess:
    def test_calls_keep_their_exit_codes_and_messages(self, capsys, tmp_path):
        # the parser is built once and reused: a refused call leaves nothing
        # behind that changes the next call's answer
        refused = tmp_path / "refused.json"
        refused.write_text('{"experiment": "classical_wire", "bits": [true, 0, 1]}')
        code, out, err = run_cli(capsys, "run", "--config", str(refused), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: config.bits")
        code, out, _ = run_cli(capsys, "run", "--config", "table1_copy", "--out-dir", str(tmp_path))
        assert code == 0 and out.startswith("PASS")
        code, out, err = run_cli(capsys, "run", "--config", "table1_copy", "--bogus")
        assert (code, out) == (1, "")
        assert err == "error: unrecognized arguments: --bogus\n"
        assert cli._build_parser() is cli._build_parser()


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
            ('{"experiment": "copy_table", "t_ns": 1' + "0" * 400 + "}",
             "config.t_ns: must be finite, got an integer too large for a float"),
        ],
        ids=["inf-eps-grid", "nan-t-ns", "inf-eps-high", "huge-int-t-ns"],
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
             "config.assertions.min_fidelity: must be a number, got 'x'"),
            ("copy_table", {"min_fidelity": True},
             "config.assertions.min_fidelity: must be a number, got True"),
            ("quantum_wire", {"min_reduced_fidelity": None},
             "config.assertions.min_reduced_fidelity: must be a number"),
            ("quantum_wire", {"max_reduced_phase_error": [1e-6]},
             "config.assertions.max_reduced_phase_error: must be a number"),
            ("gate", {"max_worst_infidelity": "0.01"},
             "config.assertions.max_worst_infidelity: must be a number"),
            ("classical_wire", {"require_echo": "yes"},
             "config.assertions.require_echo: expected true or false, got 'yes'"),
            ("classical_wire", {"expect_latency_sequences": 3.0},
             "config.assertions.expect_latency_sequences: must be an integer, got 3.0"),
            ("gate", {"slope_range": [-2.5]}, "config.assertions.slope_range: expected [low, high]"),
            ("gate", {"slope_range": ["a", -1.5]},
             "config.assertions.slope_range[0]: must be a number, got 'a'"),
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

    @pytest.mark.parametrize(
        "cfg, fragment",
        [
            ({"experiment": "quantum_wire", "seed": 0, "n_qubits": 10**9},
             f"config.n_qubits: must be <= {MAX_CONFIG_QUBITS}, got 1000000000"),
            ({"experiment": "quantum_wire", "seed": 0, "n_qubits": MAX_CONFIG_QUBITS + 1},
             f"config.n_qubits: must be <= {MAX_CONFIG_QUBITS}"),
            ({"experiment": "quantum_wire", "seed": 0, "n_states": 10**400},
             f"config.n_states: must be <= {MAX_CONFIG_ITEMS}, got 1{'0' * 400}"),
            ({"experiment": "classical_wire", "bits": [1], "n_qubits": 2**63},
             f"config.n_qubits: must be <= {MAX_CONFIG_QUBITS}"),
            ({"experiment": "classical_wire", "bits": [1, 0] * (MAX_CONFIG_ITEMS // 2 + 1)},
             f"config.bits: expected a list of 1 to {MAX_CONFIG_ITEMS} 0/1 bits"),
            ({"experiment": "gate", "eps_grid": [1000.0] * (MAX_CONFIG_ITEMS + 1)},
             f"config.eps_grid: expected a list of 2 to {MAX_CONFIG_ITEMS} biases"),
        ],
        ids=["qubits-1e9", "qubits-past-cap", "states-1e400", "classical-qubits-2e63",
             "bits-past-cap", "eps-grid-past-cap"],
    )
    def test_huge_sizes_exit_1_before_allocating(self, capsys, tmp_path, cfg, fragment):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "run", "--config", str(path), "--out-dir", str(tmp_path)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and fragment in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ('{"experiment": "copy_table", "mode": "full", "mode": "reduced"}',
             "duplicate key 'mode'"),
            ('{"experiment": "copy_table", "outputs": {"report": "a.json", "report": "b.json"}}',
             "duplicate key 'report'"),
            ('{"experiment": ["copy_table"]}', "config.experiment: must be one of"),
            ('{"experiment": {"gate": 1}}', "config.experiment: must be one of"),
            ('{"experiment": "copy_table", "outputs": {"report": "../up.json"}}',
             "config.outputs.report: expected a file name inside --out-dir, got '../up.json'"),
            ('{"experiment": "copy_table", "outputs": {"report": "/abs.json"}}',
             "config.outputs.report: expected a file name inside --out-dir, got '/abs.json'"),
            ('{"experiment": "copy_table", "outputs": {"report": "sub/../../up.json"}}',
             "config.outputs.report: expected a file name inside --out-dir"),
            ('{"experiment": "copy_table", "assertions": []}',
             "config.assertions: expected an object"),
        ],
        ids=["duplicate-key", "duplicate-nested-key", "list-experiment", "object-experiment",
             "parent-dir-output", "absolute-output", "nested-parent-dir-output",
             "list-assertions"],
    )
    def test_ambiguous_configs_exit_1(self, capsys, tmp_path, text, fragment):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and fragment in err

    @pytest.mark.parametrize("report, schedule", [
        ("wire.json", "wire.json"), ("wire.json", "./wire.json"), ("sub/wire.json", "sub//wire.json"),
    ], ids=["one-name", "dot-slash", "double-slash"])
    def test_report_and_schedule_at_one_path_exit_1(self, capsys, tmp_path, report, schedule):
        # the report would overwrite the schedule file: refused before the run
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"experiment": "quantum_wire",
                                    "outputs": {"report": report, "schedule": schedule}}))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: config.outputs: report and schedule name one file, {schedule!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.json"]

    @pytest.mark.parametrize(
        "cfg, fragment",
        [
            ({"experiment": "quantum_wire", "seed": 3, "states": [[1.0, 0.0, 0.0, 0.0]]},
             "error: config.seed: only random states take a seed"),
            ({"experiment": "copy_table", "outputs": {"schedule": "s.json"}},
             "error: config.outputs.schedule: unknown key"),
            ({"experiment": "gate", "outputs": {"schedule": "s.json"}},
             "error: config.outputs.schedule: unknown key"),
        ],
        ids=["seed-beside-states", "copy-table-schedule", "gate-schedule"],
    )
    def test_keys_the_run_would_ignore_exit_1(self, capsys, tmp_path, cfg, fragment):
        path = tmp_path / "ignored.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "run", "--config", str(path), "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == fragment + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ignored.json"]


def _readme_table(header: str) -> list[list[str]]:
    """The body rows of the README table under ``header``, as lists of cells."""
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


class TestReadmeNames:
    """Every name the package or a module exports resolves and is named, in
    backticks, in the README's API list."""

    @pytest.mark.parametrize("module", ["", ".chain", ".evolve", ".mps", ".gates",
                                        ".scheduler", ".solver", ".runner", ".cli"])
    def test_every_exported_name_is_documented(self, module):
        mod = importlib.import_module("swapchannel" + module)
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        names = [name for name in mod.__all__ if not name.startswith("__")]
        assert names
        for name in names:
            assert hasattr(mod, name), name
            assert re.search(rf"`{re.escape(name)}\b", readme), name


class TestReadmeTables:
    """The README's key and assertion tables list exactly the rows of
    ``cli._KEYS`` and ``cli._ASSERTIONS``, with their kinds, bounds, named
    values and defaults."""

    def test_key_table_lists_every_row(self):
        listed = {}
        for experiments, key, kind, default in _readme_table(
            "| experiment | key | kind and bounds | default |"
        ):
            for experiment in cli._KEYS if experiments == "every" else [experiments.strip("`")]:
                listed[experiment, key.strip("`")] = kind, default
        rows = {(e, key): row for e, keys in cli._KEYS.items() for key, row in keys.items()}
        assert sorted(listed) == sorted(rows)
        for (experiment, key), row in rows.items():
            kind, default = listed[experiment, key]
            assert kind.startswith(row.kind), (experiment, key)
            numbers = {float(x) for x in re.findall(r"(?<![\w.])\d+(?:\.\d+)?(?:e-?\d+)?", kind)}
            bounds = [row.low, row.high]
            if row.kind in ("biases", "bits", "states"):
                bounds += row.items
            assert {b for b in bounds if b is not None} <= numbers, (experiment, key)
            assert all(f"`{json.dumps(v)}`" in kind for v in row.named), (experiment, key)
            if row.kind == "outputs":
                assert set(re.findall(r"`(\w+)`", kind)) == set(row.default), experiment
            required = row.default is None and None not in row.named
            assert default == ("required" if required else f"`{json.dumps(row.default)}`"), key

    def test_assertion_table_lists_every_row(self):
        listed = {
            (experiment.strip("`"), key.strip("`")): (kind, check)
            for experiment, key, kind, _, check in _readme_table(
                "| experiment | key | kind | grades | check |"
            )
        }
        rows = {(e, key): a for e, keys in cli._ASSERTIONS.items() for key, a in keys.items()}
        assert sorted(listed) == sorted(rows)
        for pair, a in rows.items():
            kind, check = listed[pair]
            assert kind.startswith(a.kind), pair
            assert check == f"`{a.name.format(mode='<mode>')}`", pair


class TestSizeCapsRefuseBeforeBuilding:
    """``schedule`` takes the caps of ``run`` and ``trace`` caps its samples;
    a size just over a cap is refused before the chain or the trajectory is
    built (both are replaced by stubs that fail)."""

    @pytest.fixture(autouse=True)
    def nothing_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("built despite a size over its cap")

        monkeypatch.setattr(cli, "_chain_setup", built)
        monkeypatch.setattr(cli, "sample_trajectory", built)

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--kind", "quantum", "--n-qubits", str(MAX_CONFIG_QUBITS + 1), "--n-states", "1"],
             "--n-qubits"),
            (["--kind", "quantum", "--n-qubits", "3", "--n-states", str(MAX_CONFIG_ITEMS + 1)],
             "--n-states"),
            (["--kind", "classical", "--n-qubits", "4", "--bits", "1" * (MAX_CONFIG_ITEMS + 1)],
             "--bits"),
        ],
        ids=["n-qubits", "n-states", "bits"],
    )
    def test_schedule_sizes_over_the_run_caps_exit_1(self, capsys, tmp_path, flags, flag):
        path = tmp_path / "s.json"
        code, out, err = run_cli(capsys, "schedule", *flags, "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag}") and "must be <= 1024, got 1025" in err
        assert not path.exists()

    def test_trace_samples_over_the_cap_exit_1(self, capsys, tmp_path):
        cap = cli.MAX_TRACE_SAMPLES
        path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "trace", "--delta-mhz", "25", "--duration-ns", "40",
                                 "--samples", str(cap + 1), "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: --samples") and f"got {cap + 1}" in err
        assert not path.exists()


class TestStdoutMatchesGoldenBytes:
    @pytest.mark.parametrize(
        "flags, golden",
        [([], "solve_stdout.json"), (["--no-phase-exact"], "solve_no_phase_exact_stdout.json")],
        ids=["phase-exact", "no-phase-exact"],
    )
    def test_solve(self, capsys, flags, golden):
        code, out, _ = run_cli(capsys, "solve", "--t-ns", "10", *flags)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("name", ["quantum_wire", "classical_wire"])
    def test_validate(self, capsys, tmp_path, monkeypatch, name):
        # run on a copy in the working directory, so the "schedule" path is stable
        monkeypatch.chdir(tmp_path)
        shutil.copy(GOLDEN / f"{name}_schedule.json", tmp_path)
        code, out, _ = run_cli(capsys, "validate", "--schedule", f"{name}_schedule.json")
        assert code == 0
        assert out.encode() == (GOLDEN / f"validate_{name}_stdout.json").read_bytes()

    def test_validate_with_a_violation_and_a_line_conflict(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = json.loads((GOLDEN / "classical_wire_schedule.json").read_text())
        doc["windows"][0]["biases_mhz"][1] = 7.0  # qubit 3 shares line 0 at 0 MHz
        events = doc["windows"][1]["events"]  # inject into qubit 0 without reading it first
        doc["windows"][1]["events"] = [e for e in events if e["kind"] != "read_reset"]
        pathlib.Path("broken_schedule.json").write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", "--schedule", "broken_schedule.json")
        assert code == 3
        want = GOLDEN / "validate_broken_classical_wire_stdout.json"
        assert out.encode() == want.read_bytes()
