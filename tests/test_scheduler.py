import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for
from swapchannel import (
    LineAssignment,
    PulseEvent,
    PulseSchedule,
    ScheduleError,
    Window,
    classical_channel_schedule,
    line_conflict_check,
    quantum_channel_schedule,
    schedule_from_json,
    schedule_to_json,
    swap_pulses,
    validate_sacrificial,
)
from swapchannel.scheduler import replay_occupancy


def bare_window(n: int, targets=(), events=(), start=0.0, t=10.0) -> Window:
    evs = tuple(events) + tuple(
        PulseEvent(kind="cnot_pulse", qubit=q) for q in targets
    )
    return Window(
        start_ns=start, duration_ns=t, biases_mhz=(0.0,) * n, events=evs
    )


class TestScheduleContainers:
    def test_event_validation(self):
        with pytest.raises(ScheduleError):
            PulseEvent(kind="teleport", qubit=0)
        with pytest.raises(ScheduleError):
            PulseEvent(kind="inject", qubit=-1)

    def test_window_filters(self):
        w = bare_window(
            3, targets=(1,), events=(PulseEvent(kind="inject", qubit=0, data_index=0),)
        )
        assert w.gate_targets() == (1,)
        assert [e.kind for e in w.boundary_events()] == ["inject"]

    def test_schedule_rejects_bias_length_mismatch(self):
        w = Window(start_ns=0.0, duration_ns=1.0, biases_mhz=(0.0, 0.0))
        with pytest.raises(ScheduleError):
            PulseSchedule(n_qubits=3, windows=(w,))

    def test_schedule_rejects_gate_in_final_events(self):
        with pytest.raises(ScheduleError):
            PulseSchedule(
                n_qubits=2,
                windows=(),
                final_events=(PulseEvent(kind="cnot_pulse", qubit=0),),
            )

    def test_schedule_rejects_out_of_range_event(self):
        w = bare_window(2, targets=(5,))
        with pytest.raises(ScheduleError):
            PulseSchedule(n_qubits=2, windows=(w,))

    def test_makespan_and_pulse_count(self, design):
        spec = chain_for(design, 4)
        sch = swap_pulses(spec, 1, 2, design.t_ns)
        assert sch.n_windows == 3
        assert_allclose(sch.makespan_ns, 30.0)
        assert sch.pulse_count == 3

    def test_line_assignment_validation(self):
        with pytest.raises(ScheduleError):
            LineAssignment(lines=(0, 5), n_lines=2)
        la = LineAssignment(lines=(0, None, 0), n_lines=1)
        assert la.lines == (0, None, 0)


class TestSwapPulses:
    def test_target_sequence_and_biases(self, design):
        spec = chain_for(design, 4, eps_high=25000.0)
        sch = swap_pulses(spec, 1, 2, design.t_ns)
        assert [w.gate_targets() for w in sch.windows] == [(1,), (2,), (1,)]
        # Interior pulse parks the target at zero bias, everyone else holds.
        assert_allclose(sch.windows[0].biases_mhz, (25000.0, 0.0, 25000.0, 25000.0))
        assert_allclose(sch.windows[1].biases_mhz, (25000.0, 25000.0, 0.0, 25000.0))
        assert [w.start_ns for w in sch.windows] == [0.0, 10.0, 20.0]

    def test_end_qubit_pulse_bias_and_kind(self, design):
        spec = chain_for(design, 3, eps_high=25000.0)
        sch = swap_pulses(spec, 0, 1, design.t_ns)
        w0 = sch.windows[0]
        assert_allclose(w0.biases_mhz[0], design.xi_mhz)
        assert w0.events[0].kind == "readout_pulse"
        assert sch.windows[1].events[0].kind == "cnot_pulse"

    def test_rejects_bad_pairs(self, design):
        spec = chain_for(design, 4)
        with pytest.raises(ScheduleError):
            swap_pulses(spec, 1, 3, 10.0)
        with pytest.raises(ScheduleError):
            swap_pulses(spec, 3, 4, 10.0)
        with pytest.raises(ScheduleError):
            swap_pulses(spec, 1, 2, 0.0)

    def test_replay_moves_data(self, design):
        spec = chain_for(design, 4)
        sch = swap_pulses(spec, 1, 2, design.t_ns)
        result = replay_occupancy(sch, initial_occupancy=[0, 1, 0, 0])
        assert result.ok
        assert result.window_occupancy[0] == (0, 1, 0, 0)
        assert result.window_occupancy[1] == (0, 1, 0, 0)
        assert result.window_occupancy[2] == (0, 0, 1, 0)


class TestQuantumChannelSchedule:
    def test_window_count(self, design):
        spec = chain_for(design, 5)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        assert sch.n_windows == 3 * (5 - 1)
        sch, _ = quantum_channel_schedule(spec, 3, design.t_ns)
        assert sch.n_windows == 3 * (3 * 2 + 4)

    def test_boundary_event_placement(self, design):
        spec = chain_for(design, 5)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        injects = [
            (i, e)
            for i, w in enumerate(sch.windows)
            for e in w.boundary_events()
            if e.kind == "inject"
        ]
        assert [(i, e.qubit, e.data_index) for i, e in injects] == [
            (0, 0, 0),
            (9, 0, 1),
        ]
        reads = [
            (i, e)
            for i, w in enumerate(sch.windows)
            for e in w.boundary_events()
            if e.kind == "read_reset"
        ]
        # State 0 leaves after macro-step 4 (window 12); state 1 is read from
        # the trailing boundary.
        assert [(i, e.qubit, e.data_index) for i, e in reads] == [(12, 4, 0)]
        assert [(e.qubit, e.data_index) for e in sch.final_events] == [(4, 1)]

    def test_replay_clean_and_reads_ordered(self, design):
        for L in (3, 5, 7, 9, 11, 13):
            spec = chain_for(design, L)
            for n_states in (1, 2, 3):
                sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
                result = replay_occupancy(sch)
                assert result.ok, (L, n_states, result.violations[:2])
                assert len(result.window_occupancy) == sch.n_windows
                assert [r.symbol for r in result.reads] == [
                    ("data", k) for k in range(n_states)
                ]

    def test_line_counts(self, design):
        for L in (5, 7, 9, 11, 13):
            spec = chain_for(design, L)
            _, lines = quantum_channel_schedule(spec, 2, design.t_ns)
            assert lines.n_lines == 8
            _, lines = quantum_channel_schedule(spec, 2, design.t_ns, line_mode="mod3")
            assert lines.n_lines == 5

    def test_line_check_passes_both_modes(self, design):
        for mode in ("mod6", "mod3"):
            spec = chain_for(design, 9)
            sch, lines = quantum_channel_schedule(spec, 3, design.t_ns, line_mode=mode)
            report = line_conflict_check(sch, lines)
            assert report.ok, report.problems[:3]

    def test_collateral_qubits_follow_their_line(self, design):
        # On a 13-qubit wire, qubits 2 and 8 share an interior line; when 2
        # is pulsed and 8 is idle, 8 is dragged to the same bias.
        spec = chain_for(design, 13, eps_high=25000.0)
        sch, lines = quantum_channel_schedule(spec, 1, design.t_ns)
        assert lines.lines[2] == lines.lines[8]
        hit = False
        for w in sch.windows:
            targets = w.gate_targets()
            if 2 in targets and 8 not in targets:
                assert_allclose(w.biases_mhz[8], w.biases_mhz[2])
                hit = True
        assert hit

    def test_rejects_bad_arguments(self, design):
        spec = chain_for(design, 5)
        with pytest.raises(ScheduleError):
            quantum_channel_schedule(spec, 0, design.t_ns)
        with pytest.raises(ScheduleError):
            quantum_channel_schedule(spec, 1, -1.0)
        with pytest.raises(ScheduleError):
            quantum_channel_schedule(spec, 1, design.t_ns, line_mode="dense")
        with pytest.raises(ScheduleError):
            quantum_channel_schedule(chain_for(design, 1), 1, design.t_ns)


class TestClassicalChannelSchedule:
    def test_structure_for_six_qubits(self, design):
        spec = chain_for(design, 6)
        sch, lines = classical_channel_schedule(spec, [1, 0, 1], design.t_ns)
        assert sch.n_windows == 2 * (3 + 3 - 1)
        assert sch.windows[0].gate_targets() == (1, 3, 5)
        assert sch.windows[1].gate_targets() == (2, 4)
        assert lines.n_lines == 3
        assert lines.lines[0] is None

    def test_boundary_events(self, design):
        spec = chain_for(design, 6)
        sch, _ = classical_channel_schedule(spec, [1, 0, 1], design.t_ns)
        # Bit 0 enters at the very start; bits 1 and 2 are re-prepared on the
        # input qubit during the even-group windows of repeats 0 and 1.
        w0 = sch.windows[0].boundary_events()
        assert [(e.kind, e.qubit, e.data_index) for e in w0] == [("inject", 0, 0)]
        w1 = sch.windows[1].boundary_events()
        assert [(e.kind, e.data_index) for e in w1] == [("read_reset", None), ("inject", 1)]
        reads = [
            (i, e.data_index)
            for i, w in enumerate(sch.windows)
            for e in w.boundary_events()
            if e.kind == "read_reset" and e.qubit == 5
        ]
        assert reads == [(6, 0), (8, 1)]
        assert [(e.qubit, e.data_index) for e in sch.final_events] == [(5, 2)]

    def test_replay_clean_for_all_patterns(self, design):
        import itertools

        for L in (4, 6, 8):
            spec = chain_for(design, L)
            for bits in itertools.product((0, 1), repeat=3):
                sch, lines = classical_channel_schedule(spec, bits, design.t_ns)
                result = replay_occupancy(sch)
                assert result.ok, (L, bits, result.violations[:2])
                out_reads = [r for r in result.reads if r.qubit == L - 1]
                assert [r.symbol for r in out_reads] == [
                    ("data", k) for k in range(3)
                ]
                assert line_conflict_check(sch, lines).ok

    def test_rejects_bad_chains_and_bits(self, design):
        with pytest.raises(ScheduleError):
            classical_channel_schedule(chain_for(design, 5), [1], 10.0)
        with pytest.raises(ScheduleError):
            classical_channel_schedule(chain_for(design, 2), [1], 10.0)
        spec = chain_for(design, 6)
        with pytest.raises(ScheduleError):
            classical_channel_schedule(spec, [], 10.0)
        with pytest.raises(ScheduleError):
            classical_channel_schedule(spec, [0, 2], 10.0)


class TestReplayViolations:
    def test_inject_into_occupied_qubit(self):
        windows = (
            bare_window(2, events=(PulseEvent(kind="inject", qubit=0, data_index=0),)),
            bare_window(2, events=(PulseEvent(kind="inject", qubit=0, data_index=1),)),
        )
        result = replay_occupancy(PulseSchedule(n_qubits=2, windows=windows))
        kinds = [v.kind for v in result.violations]
        assert kinds == ["inject_occupied"]

    def test_swap_with_occupied_outer_neighbour(self, design):
        spec = chain_for(design, 4)
        sch = swap_pulses(spec, 1, 2, design.t_ns)
        result = replay_occupancy(sch, initial_occupancy=[1, 1, 0, 0])
        assert [v.kind for v in result.violations] == ["sacrificial_occupied"]
        assert result.violations[0].qubits == (0,)

    def test_swap_with_pulsed_outer_neighbour(self):
        # Two simultaneous triples on (0,1) and (2,3): qubit 2 is the outer
        # neighbour of the first pair and is itself pulsed.
        windows = (
            bare_window(4, targets=(0, 2)),
            bare_window(4, targets=(1, 3)),
            bare_window(4, targets=(0, 2)),
        )
        result = replay_occupancy(PulseSchedule(n_qubits=4, windows=windows))
        assert "sacrificial_occupied" in [v.kind for v in result.violations]

    def test_copy_precondition_violation(self):
        sch = PulseSchedule(n_qubits=2, windows=(bare_window(2, targets=(0,)),))
        result = replay_occupancy(sch, initial_occupancy=[1, 0])
        assert [v.kind for v in result.violations] == ["copy_precondition"]
        # The pulse still rewrites the target from its (virtual) left side.
        assert result.window_occupancy[0] == (1, 0)

    def test_indeterminate_comparison_with_data(self):
        windows = (
            bare_window(3, events=(PulseEvent(kind="inject", qubit=0, data_index=0),)),
            bare_window(3, targets=(0,)),
        )
        result = replay_occupancy(PulseSchedule(n_qubits=3, windows=windows))
        assert [v.kind for v in result.violations] == ["indeterminate"]

    def test_validate_sacrificial_wrapper(self, design):
        spec = chain_for(design, 4)
        sch = swap_pulses(spec, 1, 2, design.t_ns)
        assert validate_sacrificial(sch) == ()
        assert validate_sacrificial(sch, [0, 0, 0, 1]) != ()

    def test_rejects_bad_initial_occupancy(self, design):
        spec = chain_for(design, 4)
        sch = swap_pulses(spec, 1, 2, design.t_ns)
        with pytest.raises(ScheduleError):
            replay_occupancy(sch, initial_occupancy=[0, 0])
        with pytest.raises(ScheduleError):
            replay_occupancy(sch, initial_occupancy=[0, 2, 0, 0])


class TestLineConflictCheck:
    def test_detects_bias_mismatch_on_merged_lines(self, design):
        spec = chain_for(design, 5)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        # Claim all interior qubits share one line: windows pulsing a single
        # interior qubit now disagree about that line's value.
        bogus = LineAssignment(lines=(3, 0, 0, 0, 4), n_lines=5)
        report = line_conflict_check(sch, bogus)
        assert not report.ok
        assert any("line 0" in p for p in report.problems)

    def test_detects_pulsed_qubit_without_line(self):
        sch = PulseSchedule(n_qubits=2, windows=(bare_window(2, targets=(0,)),))
        report = line_conflict_check(sch, LineAssignment(lines=(None, 0), n_lines=1))
        assert not report.ok
        assert any("no line" in p for p in report.problems)

    def test_detects_occupied_collateral_qubit(self):
        w = Window(
            start_ns=0.0,
            duration_ns=10.0,
            biases_mhz=(0.0, 100.0, 0.0),
            events=(PulseEvent(kind="cnot_pulse", qubit=0),),
        )
        sch = PulseSchedule(n_qubits=3, windows=(w,))
        lines = LineAssignment(lines=(0, 1, 0), n_lines=2)
        report = line_conflict_check(sch, lines, initial_occupancy=[0, 0, 1])
        assert not report.ok
        assert any("qubit 2" in p for p in report.problems)

    def test_wrong_size_line_map(self, design):
        spec = chain_for(design, 4)
        sch = swap_pulses(spec, 1, 2, design.t_ns)
        report = line_conflict_check(sch, LineAssignment(lines=(0, 1), n_lines=2))
        assert not report.ok


class TestScheduleSerialisation:
    def test_round_trip(self, design):
        spec = chain_for(design, 5, eps_high=25000.0)
        sch, lines = quantum_channel_schedule(spec, 2, design.t_ns)
        text = schedule_to_json(sch, lines)
        parsed, parsed_lines = schedule_from_json(text)
        assert parsed == sch
        assert parsed_lines == lines
        assert schedule_to_json(parsed, parsed_lines) == text

    def test_round_trip_without_lines(self, design):
        spec = chain_for(design, 3)
        sch = swap_pulses(spec, 0, 1, design.t_ns)
        text = schedule_to_json(sch, None)
        parsed, parsed_lines = schedule_from_json(text)
        assert parsed == sch
        assert parsed_lines is None

    def test_refuses_non_finite_biases(self, design):
        window = Window(start_ns=0.0, duration_ns=design.t_ns, biases_mhz=(float("nan"), 0.0))
        with pytest.raises(ValueError):
            schedule_to_json(PulseSchedule(n_qubits=2, windows=(window,)), None)

    def test_output_is_stable_text(self, design):
        spec = chain_for(design, 3)
        sch = swap_pulses(spec, 0, 1, design.t_ns)
        text = schedule_to_json(sch, None)
        assert text.endswith("\n")
        assert text == schedule_to_json(sch, None)

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            '{"format": "something-else"}',
            '{"format": "swapchannel-schedule/1", "n_qubits": 2}',
        ],
    )
    def test_malformed_input_raises(self, text):
        with pytest.raises(ScheduleError):
            schedule_from_json(text)

    def test_bad_event_kind_raises(self, design):
        spec = chain_for(design, 3)
        text = schedule_to_json(swap_pulses(spec, 0, 1, design.t_ns), None)
        with pytest.raises(ScheduleError):
            schedule_from_json(text.replace("readout_pulse", "mystery_pulse"))
