import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import chain_for
from oracles import hold_bias_swap_pulses, schedule_rows
from swapchannel import (
    LineAssignment,
    PulseEvent,
    PulseSchedule,
    ScheduleError,
    Window,
    classical_channel_schedule,
    compute_frame_correction,
    line_conflict_check,
    quantum_channel_schedule,
    run_classical_channel,
    run_quantum_channel,
    schedule_from_json,
    schedule_to_json,
    validate_sacrificial,
)
from swapchannel.scheduler import EVENT_KINDS, ReadRecord, Violation, replay_occupancy


def bare_window(n: int, targets=(), events=(), start=0.0, t=10.0) -> Window:
    evs = tuple(events) + tuple(
        PulseEvent(kind="cnot_pulse", qubit=q) for q in targets
    )
    return Window(
        start_ns=start, duration_ns=t, biases_mhz=(0.0,) * n, events=evs
    )


def targets_of(schedule: PulseSchedule) -> tuple:
    """Per window, the qubits it pulses, from the schedule's one cut."""
    return tuple(map(tuple, schedule._cut[0]))


def boundary_of(schedule: PulseSchedule) -> tuple:
    """Per window, then for the final events, the boundary rows of the
    schedule's one cut as :class:`PulseEvent` rows."""
    return tuple(tuple(PulseEvent(EVENT_KINDS[k], q, None if d == -1 else d) for k, q, d in rows)
                 for rows in schedule._cut[1])


def with_event(event: PulseEvent) -> PulseSchedule:
    """A schedule of one bare window on two qubits holding ``event``."""
    return PulseSchedule(2, [bare_window(2, events=(event,))])


def with_injects(schedule: PulseSchedule, *qubits: int) -> PulseSchedule:
    """``schedule`` with data items 0, 1, ... injected into ``qubits`` at the
    start of its first window."""
    (first, *rest), final_events = schedule_rows(schedule)
    injects = tuple(
        PulseEvent(kind="inject", qubit=q, data_index=i) for i, q in enumerate(qubits)
    )
    windows = (Window(first.start_ns, first.duration_ns, first.biases_mhz,
                      injects + first.events), *rest)
    return PulseSchedule(schedule.n_qubits, windows, final_events, schedule.label)


class TestScheduleContainers:
    def test_event_validation(self):
        # the event rows are unchecked records: the schedule refuses them
        with pytest.raises(ScheduleError):
            with_event(PulseEvent(kind="teleport", qubit=0))
        with pytest.raises(ScheduleError):
            with_event(PulseEvent(kind="inject", qubit=-1, data_index=0))
        with pytest.raises(ScheduleError, match="has no data_index"):
            with_event(PulseEvent(kind="inject", qubit=0))
        for kind in ("inject", "read_reset"):
            with pytest.raises(ScheduleError, match="data_index must be >= 0, got -1"):
                with_event(PulseEvent(kind=kind, qubit=0, data_index=-1))
        read = schedule_rows(with_event(PulseEvent(kind="read_reset", qubit=0)))[0][0].events[0]
        assert read.data_index is None
        inject = with_event(PulseEvent(kind="inject", qubit=0, data_index=10**400))
        assert schedule_rows(inject)[0][0].events[0].data_index == 10**400

    def test_a_schedule_equals_no_other_type(self):
        sch = PulseSchedule(2, (bare_window(2, targets=(1,)),))
        windows, _ = schedule_rows(sch)
        assert sch.__eq__(windows) is NotImplemented
        assert sch != windows and sch != 0

    def test_window_filters(self):
        w = bare_window(
            3, targets=(1,), events=(PulseEvent(kind="inject", qubit=0, data_index=0),)
        )
        sch = PulseSchedule(3, (w,), (PulseEvent(kind="read_reset", qubit=2),))
        assert targets_of(sch) == ((1,),)
        assert [[e.kind for e in events] for events in boundary_of(sch)] == [["inject"], ["read_reset"]]

    def test_gate_targets_are_distinct_and_ascending(self):
        # a window's pulses are a set: the order and repetition of its gate
        # events do not matter, to the targets or to the pulse count
        sch = PulseSchedule(5, [bare_window(5, targets=(3, 1, 3)),
                                bare_window(5, targets=(4, 0), start=10.0), bare_window(5, start=20.0)])
        assert targets_of(sch) == ((1, 3), (0, 4), ())
        assert sch.pulse_count == 4

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({"start_ns": float("nan")}, "start_ns must be finite, got nan"),
            ({"start_ns": -float("inf")}, "start_ns must be finite, got -inf"),
            ({"duration_ns": float("inf")}, "duration_ns must be finite, got inf"),
            ({"duration_ns": -1e-12}, "duration_ns must be >= 0, got -1e-12"),
            ({"biases_mhz": (0.0, float("nan"))}, "biases_mhz must be finite, got nan"),
            ({"biases_mhz": (np.float64("-inf"), 0.0)}, "biases_mhz must be finite, got"),
        ],
        ids=["nan-start", "inf-start", "inf-duration", "negative-duration", "nan-bias",
             "numpy-inf-bias"],
    )
    def test_window_refuses_bad_values(self, fields, fragment):
        good = {"start_ns": 0.0, "duration_ns": 10.0, "biases_mhz": (0.0, 0.0)}
        with pytest.raises(ScheduleError, match=re.escape("window 0: " + fragment)):
            PulseSchedule(2, [Window(**(good | fields))])

    def test_a_bad_bias_names_the_first_window_holding_it(self):
        rows = [(1.0, 1.0), (1.0, 1.0), (2.0, float("inf")), (float("nan"), 1.0), (2.0, float("inf"))]
        windows = [Window(10.0 * w, 10.0, row) for w, row in enumerate(rows)]
        with pytest.raises(ScheduleError, match="^window 2: biases_mhz must be finite, got inf$"):
            PulseSchedule(2, windows)
        with pytest.raises(ScheduleError, match="^window 0: biases_mhz must be finite, got nan$"):
            PulseSchedule(2, windows[3:])

    def test_schedule_refuses_overlapping_windows(self):
        first = bare_window(2, start=5.0, t=10.0)
        with pytest.raises(ScheduleError, match="window 1 starts at 14.5 ns, before the "
                                                "previous window ends at 15.0 ns"):
            PulseSchedule(n_qubits=2, windows=(first, bare_window(2, start=14.5)))
        # touching within 1e-9 ns of rounding, and a zero-length window, are fine
        PulseSchedule(n_qubits=2, windows=(first, bare_window(2, start=15.0 - 1e-10),
                                           bare_window(2, start=25.0, t=0.0),
                                           bare_window(2, start=25.0)))

    def test_overlap_check_with_float32_times_does_not_overflow(self):
        # a float32 start beside a time past float32's range: numpy warned
        # "overflow encountered in cast"
        early, late = bare_window(1, start=np.float32(1.5), t=0.0), bare_window(1, start=3.5e38)
        PulseSchedule(n_qubits=1, windows=(early, late))
        with pytest.raises(ScheduleError, match="before the previous window ends"):
            PulseSchedule(n_qubits=1, windows=(late, early))

    @pytest.mark.parametrize("exponent", [5, 6, 9, 50, 150, 300])
    def test_generators_accept_their_own_long_windows(self, design, exponent):
        # window k starts at k * t_ns and window k - 1 ends at (k - 1) * t_ns + t_ns:
        # the two round apart by an ulp, past 1e-9 ns once t_ns is ~1e5 ns
        spec = chain_for(design, 12)
        t_values = np.random.default_rng(exponent).uniform(0.5, 5.0, 10) * 10.0**exponent
        for t_ns in [123456789.123, *t_values]:
            quantum_channel_schedule(spec, 4, t_ns)
            classical_channel_schedule(spec, [1, 0, 1, 1], t_ns)

    def test_overlap_far_from_zero_is_refused(self):
        first = bare_window(1, start=1e6, t=10.0)
        with pytest.raises(ScheduleError, match="window 1 starts at 1000009.0 ns"):
            PulseSchedule(n_qubits=1, windows=(first, bare_window(1, start=1e6 + 9.0)))
        # an end time past the float range overlaps every later start
        huge = bare_window(1, start=1e308, t=1e308)
        with pytest.raises(ScheduleError, match="before the previous window ends at inf ns"):
            PulseSchedule(n_qubits=1, windows=(huge, bare_window(1, start=1.5e308)))

    @pytest.mark.parametrize("n_qubits", [0, -1])
    def test_schedule_refuses_fewer_than_one_qubit(self, n_qubits):
        with pytest.raises(ScheduleError, match=f"n_qubits must be >= 1, got {n_qubits}"):
            PulseSchedule(n_qubits=n_qubits, windows=())

    def test_replay_is_kept_and_leaves_eq_and_hash(self, design):
        spec = chain_for(design, 5)
        sch, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        twin, _ = quantum_channel_schedule(spec, 2, design.t_ns)
        before = hash(sch)
        assert sch.replay is sch.replay
        fresh = replay_occupancy(twin)
        assert (sch.replay.violations, sch.replay.reads) == (fresh.violations, fresh.reads)
        assert np.array_equal(sch.replay.data_held, fresh.data_held)
        assert sch == twin and hash(sch) == before == hash(twin)
        assert "replay" not in repr(sch)

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
        sch = hold_bias_swap_pulses(spec, 1, 2, design.t_ns)
        assert sch.n_windows == 3
        assert_allclose(sch.makespan_ns, 30.0)
        assert sch.pulse_count == 3

    def test_line_assignment_validation(self):
        with pytest.raises(ScheduleError):
            LineAssignment(lines=(0, 5), n_lines=2)
        la = LineAssignment(lines=(0, None, 0), n_lines=1)
        assert la.lines == (0, None, 0)


def json_rows(schedule) -> tuple[tuple, tuple]:
    """The ``Window`` and final ``PulseEvent`` rows of the schedule's canonical JSON."""
    doc = json.loads(schedule_to_json(schedule))

    def event(e):
        return PulseEvent(e["kind"], e["qubit"], e["data_index"])

    windows = tuple(Window(w["start_ns"], w["duration_ns"], tuple(w["biases_mhz"]),
                           tuple(map(event, w["events"]))) for w in doc["windows"])
    return windows, tuple(map(event, doc["final_events"]))


#: A schedule file as a person might write it: integer spellings, keys in any
#: order, data indices left out.
HAND_WRITTEN = """{"format": "swapchannel-schedule/1", "n_qubits": 3, "label": "hand",
 "windows": [
  {"events": [{"qubit": 0, "kind": "inject", "data_index": 4}, {"kind": "cnot_pulse", "qubit": 1}],
   "start_ns": 0, "duration_ns": 10, "biases_mhz": [25000, -0.0, 1e-300]},
  {"start_ns": 10.5, "duration_ns": 0, "biases_mhz": [25000, 0, 2.5],
   "events": [{"kind": "read_reset", "qubit": 2}]}],
 "final_events": [{"kind": "read_reset", "qubit": 0, "data_index": 4}]}"""


class TestScheduleRows:
    """``oracles.schedule_rows``, the rows the row-based oracles and tests read,
    are the rows of the canonical JSON, value for value and type for type (a
    repr tells -0.0 from 0.0 and a numpy number from a plain one)."""

    @pytest.mark.parametrize("kind", ["quantum", "classical", "hand-built", "parsed"])
    def test_rows_are_those_of_the_json(self, design, kind):
        spec = chain_for(design, 6)
        if kind == "quantum":
            sch, _ = quantum_channel_schedule(spec, 3, design.t_ns)
        elif kind == "classical":
            sch, _ = classical_channel_schedule(spec, [1, 0, 1], design.t_ns)
        elif kind == "hand-built":
            sch = PulseSchedule(3, [
                Window(-0.0, 1.5, np.array([0.0, -0.0, 25000.0]), (
                    PulseEvent("inject", 0, 10**400), PulseEvent("cnot_pulse", np.int64(1)),
                    PulseEvent("read_reset", 2))),
                Window(1.5, 0, (1e-300, 2.5, 0))], (PulseEvent("read_reset", 0, 7),), "hand")
        else:
            sch, _ = schedule_from_json(HAND_WRITTEN)
        windows, final_events = schedule_rows(sch)
        assert len(windows) == sch.n_windows and windows
        assert repr((windows, final_events)) == repr(json_rows(sch))
        assert PulseSchedule(sch.n_qubits, windows, final_events, sch.label) == sch


class TestScheduleArrays:
    """A schedule is its read-only arrays: biases, starts, durations and the
    (window, kind, qubit, data_index) event table, final events last."""

    def test_swap_fragment_arrays(self, design):
        spec = chain_for(design, 4, eps_high=25000.0)
        sch = hold_bias_swap_pulses(spec, 1, 2, design.t_ns, start_ns=5.0)
        assert sch.starts.tolist() == [5.0, 15.0, 25.0]
        assert sch.durations.tolist() == [10.0] * 3
        assert sch.profiles[sch.profile_of].tolist() == [[25000.0, 0.0, 25000.0, 25000.0],
                                       [25000.0, 25000.0, 0.0, 25000.0],
                                       [25000.0, 0.0, 25000.0, 25000.0]]
        cnot = EVENT_KINDS.index("cnot_pulse")
        assert sch.events.tolist() == [[0, cnot, 1, -1], [1, cnot, 2, -1], [2, cnot, 1, -1]]
        assert targets_of(sch) == ((1,), (2,), (1,))
        assert boundary_of(sch) == ((), (), (), ())

    def test_arrays_and_attributes_are_read_only(self, design):
        sch, _ = quantum_channel_schedule(chain_for(design, 5), 2, design.t_ns)
        for name in ("profiles", "profile_of", "starts", "durations", "events"):
            assert not getattr(sch, name).flags.writeable, name
        with pytest.raises(ValueError):
            sch.profiles[0, 0] = 1.0
        with pytest.raises(AttributeError, match="read-only"):
            sch.n_qubits = 3

    def test_final_events_sit_after_the_last_window(self, design):
        sch, _ = quantum_channel_schedule(chain_for(design, 5), 2, design.t_ns)
        read = EVENT_KINDS.index("read_reset")
        assert sch.events[-1].tolist() == [sch.n_windows, read, 4, 1]
        _, final_events = schedule_rows(sch)
        assert final_events == (PulseEvent("read_reset", 4, 1),)
        assert boundary_of(sch)[-1] == final_events

    def test_rows_round_trip(self, design):
        sch, _ = classical_channel_schedule(chain_for(design, 6), [1, 0, 1], design.t_ns)
        rows = PulseSchedule(sch.n_qubits, *schedule_rows(sch), sch.label)
        assert rows == sch and rows.events.tolist() == sch.events.tolist()
        assert schedule_rows(rows) == schedule_rows(sch)

    def test_data_index_past_int64_is_an_int(self):
        big = 10**400
        sch = PulseSchedule(2, (Window(0.0, 1.0, (0.0, 0.0),
                                       (PulseEvent("inject", 0, big),)),),
                            (PulseEvent("read_reset", 0, big),))
        assert sch.events.dtype == object
        assert sch.events[:, 3].tolist() == [big, big]
        assert [r.symbol for r in sch.replay.reads] == [big]
        assert schedule_from_json(schedule_to_json(sch)) == (sch, None)

    def test_data_index_past_int64_beside_no_data_index_stays_an_int(self):
        # a column holding -1 (no data index) and an int in [2**63, 2**64) once
        # became float64: the index lost its last bits, was written as a float
        # and the file refused
        big = 2**63 + 1
        sch = PulseSchedule(2, (Window(0.0, 1.0, (0.0, 0.0), (
            PulseEvent("inject", 0, big), PulseEvent("read_reset", 1))),),
            (PulseEvent("read_reset", 0, big),))
        assert sch.events[:, 3].tolist() == [big, -1, big]
        assert {type(x) for x in sch.events.ravel()} == {int}
        assert [r.data_index for r in sch.replay.reads] == [None, big]
        assert schedule_from_json(schedule_to_json(sch)) == (sch, None)

    def test_equal_schedules_hash_alike_across_zero_signs(self):
        plus = PulseSchedule(1, (Window(0.0, 1.0, (0.0,)),))
        minus = PulseSchedule(1, (Window(-0.0, 1.0, (-0.0,)),))
        assert plus == minus and hash(plus) == hash(minus)
        assert schedule_to_json(plus) != schedule_to_json(minus)
        # both signs in one file: each number text is parsed apart
        both = PulseSchedule(2, (Window(-0.0, 1.0, (0.0, -0.0)), Window(1.0, 1.0, (-0.0, 0.0))))
        back, _ = schedule_from_json(schedule_to_json(both))
        assert np.signbit(back.profiles[back.profile_of]).tolist() == [[False, True], [True, False]]
        assert np.signbit(back.starts).tolist() == [True, False]

    @pytest.mark.parametrize("t_ns", [True, "10", float("nan"), float("inf")])
    def test_generators_refuse_a_window_length_that_is_not_a_finite_number(self, design,
                                                                          t_ns):
        spec = chain_for(design, 6)
        for make in (lambda: quantum_channel_schedule(spec, 1, t_ns),
                     lambda: classical_channel_schedule(spec, [1], t_ns)):
            with pytest.raises(ScheduleError, match="t_ns must be"):
                make()


class TestScheduleFieldTypes:
    """The schedule stores plain values: numpy numbers are converted, other
    types refused (the row types are unchecked records, refused where a
    schedule is built of them), so a programmatic schedule writes and parses
    like a generated one."""

    @pytest.mark.parametrize(
        "build, fragment",
        [
            (lambda: with_event(PulseEvent(kind="cnot_pulse", qubit=1.5)),
             "window 0: event qubit must be an integer, got 1.5"),
            (lambda: with_event(PulseEvent(kind="cnot_pulse", qubit=True)),
             "window 0: event qubit must be an integer, got True"),
            (lambda: with_event(PulseEvent(kind="read_reset", qubit=0, data_index="0")),
             "window 0: event data_index must be an integer or null, got '0'"),
            (lambda: with_event(PulseEvent(kind=["inject"], qubit=0)),
             "window 0: unknown event kind ['inject']"),
            (lambda: with_event(PulseEvent(kind=np.str_("read_reset"), qubit=0)),
             "window 0: unknown event kind"),
            (lambda: with_event(PulseEvent(kind="hold", qubit=0)),
             "window 0: unknown event kind 'hold'"),
            (lambda: PulseSchedule(2, (), (PulseEvent(kind="hold", qubit=0),)),
             "unknown event kind 'hold'"),
            (lambda: with_event(PulseEvent(kind="cnot_pulse", qubit=1, data_index=0)),
             "window 0: gate event on qubit 1 has a data_index"),
            (lambda: with_event(PulseEvent(kind="readout_pulse", qubit=0, data_index=10**400)),
             "window 0: gate event on qubit 0 has a data_index"),
            (lambda: PulseSchedule(2, [Window(0.0, 1.0, (0.0, True))]),
             "window 0: biases_mhz must be a number, got True"),
            (lambda: PulseSchedule(2, [Window(0.0, 1.0, "12")]),
             "window 0: biases_mhz must be an array of numbers, got '12'"),
            (lambda: PulseSchedule(2, [Window(0.0, 1.0, (0.0, 10**400))]),
             "window 0: biases_mhz must be finite, got an integer too large for a float"),
            (lambda: PulseSchedule(1, [Window("0", 1.0, (0.0,))]),
             "window 0: start_ns must be a number, got '0'"),
            (lambda: PulseSchedule(1, [Window(0.0, False, (0.0,))]),
             "window 0: duration_ns must be a number, got False"),
            (lambda: PulseSchedule(1, [Window(0.0, 1.0, (0.0,), events=("cnot",))]),
             "events must hold PulseEvents, got 'cnot'"),
            (lambda: PulseSchedule(n_qubits=2.5, windows=()),
             "n_qubits must be an integer, got 2.5"),
            (lambda: PulseSchedule(n_qubits=1, windows=(), label=3),
             "label must be a string, got 3"),
            (lambda: PulseSchedule(n_qubits=1, windows=(), label=np.str_("wire")),
             "label must be a string, got"),
            (lambda: PulseSchedule(n_qubits=1, windows=[(0.0, 1.0, (0.0,))]),
             "windows must hold Windows, got (0.0, 1.0, (0.0,))"),
            (lambda: LineAssignment(lines=(0, 1.0), n_lines=2),
             "line of qubit 1 must be an integer or null, got 1.0"),
            (lambda: LineAssignment(lines=(0,), n_lines=np.float64(1)),
             "lines.n_lines must be an integer, got"),
            (lambda: LineAssignment((None,) * 5, -1), "lines.n_lines must be >= 0, got -1"),
        ],
        ids=["float-qubit", "bool-qubit", "string-data-index", "list-kind", "numpy-kind",
             "hold-kind", "final-hold-kind", "cnot-data-index", "readout-huge-data-index",
             "bool-bias", "string-biases", "huge-int-bias", "string-start", "bool-duration",
             "string-event", "float-n-qubits", "int-label", "numpy-label", "tuple-window",
             "float-line", "float-n-lines", "negative-n-lines"],
    )
    def test_refusals(self, build, fragment):
        with pytest.raises(ScheduleError, match=re.escape(fragment)):
            build()

    def test_numpy_and_int_values_are_stored_plain(self):
        event = PulseEvent(kind="inject", qubit=np.int64(1), data_index=np.uint8(2))
        sch = PulseSchedule(np.int64(2), [Window(np.float32(1.5), 10, np.array([25000.0, 0]),
                                                 [event])], label="wire")
        (w,), _ = schedule_rows(sch)
        (stored,) = w.events
        assert (stored.qubit, stored.data_index) == (1, 2)
        assert (type(stored.qubit), type(stored.data_index)) == (int, int)
        assert (w.start_ns, w.duration_ns, w.biases_mhz) == (1.5, 10.0, (25000.0, 0.0))
        assert {type(w.start_ns), type(w.duration_ns)} | set(map(type, w.biases_mhz)) == {float}
        assert w.events == (PulseEvent("inject", 1, 2),)
        assert (type(sch.n_qubits), type(sch.label)) == (int, str)
        lines = LineAssignment(np.array([0, 1]), np.int64(2))
        assert lines == LineAssignment((0, 1), 2) and type(lines.lines[0]) is int
        assert schedule_from_json(schedule_to_json(sch, lines)) == (sch, lines)

    @pytest.mark.parametrize("container", [np.array, list], ids=["ndarray", "list"])
    def test_full_mode_runs_on_array_and_list_biases(self, design, container):
        spec = chain_for(design, 3)
        sch, _ = quantum_channel_schedule(spec, 1, design.t_ns)
        windows, (rows, final_events) = [], schedule_rows(sch)
        for w, targets in zip(rows, targets_of(sch)):
            biases = np.full(spec.n_qubits, spec.eps_high_mhz)
            for q in targets:
                biases[q] = w.biases_mhz[q]
            windows.append(Window(w.start_ns, w.duration_ns, container(biases), w.events))
        rebuilt = PulseSchedule(sch.n_qubits, windows, final_events, sch.label)
        state = [np.array([1.0, 1.0j]) / np.sqrt(2)]
        got = run_quantum_channel(spec, rebuilt, state, mode="full")
        assert got == run_quantum_channel(spec, sch, state, mode="full")
        assert rebuilt == sch


class TestSwapPulses:
    """The three-window swap fragment (``oracles.hold_bias_swap_pulses``, the
    package's former ``swap_pulses``) as a schedule: targets, biases, replay."""

    def test_target_sequence_and_biases(self, design):
        spec = chain_for(design, 4, eps_high=25000.0)
        sch = hold_bias_swap_pulses(spec, 1, 2, design.t_ns)
        assert targets_of(sch) == ((1,), (2,), (1,))
        # Interior pulse parks the target at zero bias, everyone else holds.
        windows, _ = schedule_rows(sch)
        assert_allclose(windows[0].biases_mhz, (25000.0, 0.0, 25000.0, 25000.0))
        assert_allclose(windows[1].biases_mhz, (25000.0, 25000.0, 0.0, 25000.0))
        assert [w.start_ns for w in windows] == [0.0, 10.0, 20.0]

    def test_end_qubit_pulse_bias_and_kind(self, design):
        spec = chain_for(design, 3, eps_high=25000.0)
        sch = hold_bias_swap_pulses(spec, 0, 1, design.t_ns)
        (w0, w1, _), _ = schedule_rows(sch)
        assert_allclose(w0.biases_mhz[0], design.xi_mhz)
        assert w0.events[0].kind == "readout_pulse"
        assert w1.events[0].kind == "cnot_pulse"

    def test_replay_moves_data(self, design):
        spec = chain_for(design, 4)
        sch = with_injects(hold_bias_swap_pulses(spec, 1, 2, design.t_ns), 1)
        result = replay_occupancy(sch)
        assert result.ok
        assert result.data_held.dtype == bool
        assert not result.data_held.flags.writeable
        assert result.data_held.tolist() == [
            [False, True, False, False],
            [False, True, False, False],
            [False, False, True, False],
        ]

    def test_replay_counts_swaps_since_the_inject(self):
        # data 0 swaps 1 -> 2 and is read there; data 1, injected into the
        # same qubit, swaps 2 -> 3: each read counts one swap, mod 2
        n = 5
        windows = [bare_window(n, [q], start=10.0 * i) for i, q in enumerate((1, 2, 1, 2, 3, 2))]
        windows[0] = bare_window(n, [1], [PulseEvent(kind="inject", qubit=1, data_index=0)])
        windows[3] = bare_window(n, [2], [PulseEvent(kind="read_reset", qubit=2, data_index=0),
                                          PulseEvent(kind="inject", qubit=2, data_index=1)],
                                 start=30.0)
        final = (PulseEvent(kind="read_reset", qubit=3, data_index=1),)
        result = replay_occupancy(PulseSchedule(n, tuple(windows), final))
        assert result.ok, result.violations
        assert [(r.symbol, r.z_parity) for r in result.reads] == [(0, 1), (1, 1)]


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
            for i, events in enumerate(boundary_of(sch)[:-1])
            for e in events
            if e.kind == "inject"
        ]
        assert [(i, e.qubit, e.data_index) for i, e in injects] == [
            (0, 0, 0),
            (9, 0, 1),
        ]
        reads = [
            (i, e)
            for i, events in enumerate(boundary_of(sch)[:-1])
            for e in events
            if e.kind == "read_reset"
        ]
        # State 0 leaves after macro-step 4 (window 12); state 1 is read from
        # the trailing boundary.
        assert [(i, e.qubit, e.data_index) for i, e in reads] == [(12, 4, 0)]
        assert [(e.qubit, e.data_index) for e in schedule_rows(sch)[1]] == [(4, 1)]

    def test_replay_clean_and_reads_ordered(self, design):
        for L in (3, 5, 7, 9, 11, 13):
            spec = chain_for(design, L)
            for n_states in (1, 2, 3):
                sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
                result = replay_occupancy(sch)
                assert result.ok, (L, n_states, result.violations[:2])
                assert result.data_held.shape == (sch.n_windows, L)
                assert [r.symbol for r in result.reads] == list(range(n_states))
                assert result.data_held.sum(axis=1).max() <= n_states

    def test_reads_carry_the_parity_of_l_minus_1_swaps(self, design):
        for L in range(3, 9):
            sch, _ = quantum_channel_schedule(chain_for(design, L), 2, design.t_ns)
            assert [r.z_parity for r in sch.replay.reads] == [(L - 1) % 2] * 2

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
        for w, targets in zip(schedule_rows(sch)[0], targets_of(sch)):
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
        assert targets_of(sch)[:2] == ((1, 3, 5), (2, 4))
        assert lines.n_lines == 3
        assert lines.lines[0] is None

    def test_boundary_events(self, design):
        spec = chain_for(design, 6)
        sch, _ = classical_channel_schedule(spec, [1, 0, 1], design.t_ns)
        # Bit 0 enters at the very start; bits 1 and 2 are re-prepared on the
        # input qubit during the even-group windows of repeats 0 and 1.
        w0, w1 = boundary_of(sch)[:2]
        assert [(e.kind, e.qubit, e.data_index) for e in w0] == [("inject", 0, 0)]
        assert [(e.kind, e.data_index) for e in w1] == [("read_reset", None), ("inject", 1)]
        reads = [
            (i, e.data_index)
            for i, events in enumerate(boundary_of(sch)[:-1])
            for e in events
            if e.kind == "read_reset" and e.qubit == 5
        ]
        assert reads == [(6, 0), (8, 1)]
        assert [(e.qubit, e.data_index) for e in schedule_rows(sch)[1]] == [(5, 2)]

    def test_replay_clean_for_all_patterns(self, design):
        import itertools

        for L in (4, 6, 8):
            spec = chain_for(design, L)
            for bits in itertools.product((0, 1), repeat=3):
                sch, lines = classical_channel_schedule(spec, bits, design.t_ns)
                result = replay_occupancy(sch)
                assert result.ok, (L, bits, result.violations[:2])
                out_reads = [r for r in result.reads if r.qubit == L - 1]
                assert [r.symbol for r in out_reads] == [0, 1, 2]
                assert line_conflict_check(sch, lines).ok

    def test_rejects_bad_chains_and_bits(self, design):
        with pytest.raises(ScheduleError):
            classical_channel_schedule(chain_for(design, 5), [1], 10.0)
        with pytest.raises(ScheduleError):
            classical_channel_schedule(chain_for(design, 2), [1], 10.0)
        spec = chain_for(design, 6)
        with pytest.raises(ScheduleError, match="bits must be a non-empty sequence, got none"):
            classical_channel_schedule(spec, [], 10.0)
        with pytest.raises(ScheduleError, match=r"bits\[1\] must be <= 1, got 2"):
            classical_channel_schedule(spec, [0, 2], 10.0)

    @pytest.mark.parametrize("bits", [[True, 0.0, 1.0], [1, 0, True], [1, 0.0], [np.bool_(1)],
                                      [1.0], ["1"]],
                             ids=["bools-and-floats", "bool", "float-zero", "numpy-bool",
                                  "float-one", "str"])
    def test_bits_are_the_ints_0_and_1(self, design, bits):
        # the first bit that is not a plain or numpy integer is named, in the
        # wording every integer check uses (``chain._integer``)
        spec = chain_for(design, 6)
        first = next(i for i, b in enumerate(bits) if type(b) not in (int, np.int64))
        with pytest.raises(ScheduleError, match=rf"bits\[{first}\] must be an integer, got "):
            classical_channel_schedule(spec, bits, design.t_ns)
        got, _ = classical_channel_schedule(spec, [np.int64(1), 0, np.uint8(1)], design.t_ns)
        assert got == classical_channel_schedule(spec, [1, 0, 1], design.t_ns)[0]


class TestReplayViolations:
    def test_inject_into_occupied_qubit(self):
        windows = (
            bare_window(2, events=(PulseEvent(kind="inject", qubit=0, data_index=0),)),
            bare_window(2, events=(PulseEvent(kind="inject", qubit=0, data_index=1),),
                        start=10.0),
        )
        result = replay_occupancy(PulseSchedule(n_qubits=2, windows=windows))
        kinds = [v.kind for v in result.violations]
        assert kinds == ["inject_occupied"]

    def test_swap_with_occupied_outer_neighbour(self, design):
        spec = chain_for(design, 4)
        sch = with_injects(hold_bias_swap_pulses(spec, 1, 2, design.t_ns), 0, 1)
        result = replay_occupancy(sch)
        assert [v.kind for v in result.violations] == ["sacrificial_occupied"]
        assert result.violations[0].qubits == (0,)

    def test_swap_with_pulsed_outer_neighbour(self):
        # Two simultaneous triples on (0,1) and (2,3): qubit 2 is the outer
        # neighbour of the first pair and is itself pulsed.
        windows = (
            bare_window(4, targets=(0, 2)),
            bare_window(4, targets=(1, 3), start=10.0),
            bare_window(4, targets=(0, 2), start=20.0),
        )
        result = replay_occupancy(PulseSchedule(n_qubits=4, windows=windows))
        assert "sacrificial_occupied" in [v.kind for v in result.violations]

    def test_indeterminate_comparison_with_data(self):
        windows = (
            bare_window(3, events=(PulseEvent(kind="inject", qubit=0, data_index=0),)),
            bare_window(3, targets=(0,), start=10.0),
        )
        result = replay_occupancy(PulseSchedule(n_qubits=3, windows=windows))
        assert [v.kind for v in result.violations] == ["indeterminate"]

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_copy_window_pulsing_neighbours(self, order):
        # each pulse of a window needs its neighbours parked, so a copy window
        # may not pulse two neighbours, in whatever order its events list them
        inject = PulseEvent(kind="inject", qubit=0, data_index=0)
        sch = PulseSchedule(4, [bare_window(4, targets=order, events=(inject,))])
        assert targets_of(sch) == ((1, 2),)
        assert replay_occupancy(sch).violations == (Violation(
            0, "pulsed_neighbour", (1, 2), "neighbours 1 and 2 are pulsed in one window"),)

    def test_a_qubit_in_both_swap_windows_is_no_swap(self):
        # targets (0, 1) in three windows: pairing 0 with 1 and 1 with 0 would
        # move data 0 to qubit 1 under one Z; the windows are copy windows,
        # each pulsing two neighbours
        inject = PulseEvent(kind="inject", qubit=0, data_index=0)
        windows = [bare_window(6, targets=(0, 1), events=(inject,) * (i == 0), start=10.0 * i)
                   for i in range(3)]
        read = (PulseEvent(kind="read_reset", qubit=1, data_index=0),)
        result = replay_occupancy(PulseSchedule(6, windows, read))
        flagged = [v.window_index for v in result.violations if v.kind == "pulsed_neighbour"]
        assert flagged == [0, 1, 2]
        assert result.reads[0].z_parity == 0
        assert result.swaps == ()

    @pytest.mark.parametrize("a, b", [
        ((0, 1), (0, 1)), ((1, 2), (1, 2)), ((2, 3), (2, 3)), ((3, 4), (3, 4)), ((4, 5), (4, 5)),
        ((0, 1, 3), (0, 1, 4)), ((0, 1, 4), (0, 1, 3)), ((0, 1, 4), (0, 1, 5)),
        ((0, 1, 5), (0, 1, 4)), ((0, 3, 4), (1, 3, 4)), ((0, 4, 5), (1, 4, 5)),
        ((1, 2, 4), (1, 2, 5)), ((1, 2, 5), (1, 2, 4)), ((1, 3, 4), (0, 3, 4)),
        ((1, 4, 5), (0, 4, 5)), ((1, 4, 5), (2, 4, 5)), ((2, 4, 5), (1, 4, 5)),
    ])
    def test_shared_targets_are_copy_windows(self, a, b):
        # (A, B, A) windows whose A and B share a qubit once matched into
        # pairs that share it and replayed clean; each window is a copy
        # window now, and each flags its neighbours
        sch = PulseSchedule(6, [bare_window(6, targets=t, start=10.0 * i)
                                for i, t in enumerate((a, b, a))])
        result = replay_occupancy(sch)
        assert {v.window_index for v in result.violations if v.kind == "pulsed_neighbour"} == {0, 1, 2}
        assert result.swaps == ()

    def test_no_abab_window_pulsing_neighbours_replays_clean(self):
        # every (A, B, A) schedule of 1-3 targets per window on 6 qubits
        # with a window pulsing two neighbours: none replays clean
        subsets = [c for k in (1, 2, 3) for c in itertools.combinations(range(6), k)]
        touching = {s for s in subsets if any(y - x == 1 for x, y in zip(s, s[1:]))}
        cases = [(a, b) for a in subsets for b in subsets if a in touching or b in touching]
        assert len(cases) == 1281
        for a, b in cases:
            sch = PulseSchedule(6, [bare_window(6, targets=t, start=10.0 * i)
                                    for i, t in enumerate((a, b, a))])
            assert not replay_occupancy(sch).ok, (a, b)

    def test_swaps_list_each_triple(self, design):
        # a designed wire's windows are all swap triples, each listed once by
        # its first window and the first qubit of each of its pairs
        sch, _ = quantum_channel_schedule(chain_for(design, 9), 2, design.t_ns)
        swaps = replay_occupancy(sch).swaps
        assert swaps[:4] == ((0, (0,)), (3, (1,)), (6, (2,)), (9, (0, 3)))
        assert [w for w, _ in swaps] == list(range(0, sch.n_windows, 3))
        for w, firsts in swaps:
            assert sorted(q for a in firsts for q in (a, a + 1)) == sorted(
                targets_of(sch)[w] + targets_of(sch)[w + 1])

    def test_validate_sacrificial_wrapper(self, design):
        spec = chain_for(design, 4)
        sch = hold_bias_swap_pulses(spec, 1, 2, design.t_ns)
        assert validate_sacrificial(sch) == ()
        assert validate_sacrificial(with_injects(sch, 3)) != ()


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
            events=(PulseEvent(kind="inject", qubit=2, data_index=0),
                    PulseEvent(kind="cnot_pulse", qubit=0)),
        )
        sch = PulseSchedule(n_qubits=3, windows=(w,))
        lines = LineAssignment(lines=(0, 1, 0), n_lines=2)
        report = line_conflict_check(sch, lines)
        assert not report.ok
        assert any("qubit 2" in p for p in report.problems)

    def test_wrong_size_line_map(self, design):
        spec = chain_for(design, 4)
        sch = hold_bias_swap_pulses(spec, 1, 2, design.t_ns)
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
        sch = hold_bias_swap_pulses(spec, 0, 1, design.t_ns)
        text = schedule_to_json(sch, None)
        parsed, parsed_lines = schedule_from_json(text)
        assert parsed == sch
        assert parsed_lines is None

    def test_refuses_non_finite_biases(self, design):
        with pytest.raises(ValueError):
            window = Window(start_ns=0.0, duration_ns=design.t_ns, biases_mhz=(float("nan"), 0.0))
            schedule_to_json(PulseSchedule(n_qubits=2, windows=(window,)), None)

    def test_line_assignment_without_n_lines_raises(self, design):
        spec = chain_for(design, 5, eps_high=25000.0)
        doc = json.loads(schedule_to_json(*quantum_channel_schedule(spec, 1, design.t_ns)))
        del doc["lines"]["n_lines"]
        with pytest.raises(ScheduleError, match="malformed line assignment: 'n_lines'"):
            schedule_from_json(json.dumps(doc))

    def test_output_is_stable_text(self, design):
        spec = chain_for(design, 3)
        sch = hold_bias_swap_pulses(spec, 0, 1, design.t_ns)
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

    @pytest.mark.parametrize("spelling", ["25000", "2.5e4", "25000.0", "1e400", "-1e400"])
    def test_number_spellings(self, spelling):
        # an integer or exponent spelling is the number it names; one past the
        # float range is refused as the non-finite float it parses to
        text = schedule_to_json(PulseSchedule(2, (Window(0.0, 10.0, (0.0, 25000.0)),)))
        text = text.replace("25000.0", spelling)
        if "e400" in spelling:
            with pytest.raises(ScheduleError, match=re.escape(
                    f"window 0: biases_mhz must be finite, got {float(spelling)}")):
                schedule_from_json(text)
        else:
            back, _ = schedule_from_json(text)
            assert back.profiles[back.profile_of].tolist() == [[0.0, 25000.0]]

    def test_bad_event_kind_raises(self, design):
        spec = chain_for(design, 3)
        text = schedule_to_json(hold_bias_swap_pulses(spec, 0, 1, design.t_ns), None)
        with pytest.raises(ScheduleError):
            schedule_from_json(text.replace("readout_pulse", "mystery_pulse"))


class TestProfiles:
    """A schedule stores each distinct bias row once.  A wire's rows are its
    line plan: eight lines (three for classical data) give it a few
    profiles at any length."""

    @pytest.mark.parametrize("n_qubits", [8, 16, 64, 256, 1024])
    def test_profile_counts_do_not_grow_with_the_wire(self, design, n_qubits):
        spec = chain_for(design, n_qubits)
        counts = [len(quantum_channel_schedule(spec, k, design.t_ns, line_mode=mode)[0].profiles)
                  for k, mode in ((1, "mod6"), (8, "mod6"), (64, "mod6"), (8, "mod3"))]
        counts.append(len(classical_channel_schedule(spec, [1, 0, 1, 1], design.t_ns)[0].profiles))
        many = 15 if n_qubits == 8 else 13
        assert counts == [8, many, many, 7, 2]

    @pytest.mark.parametrize("eps_high", [None, "xi"], ids=["parked", "parked-at-xi"])
    def test_profiles_are_the_distinct_rows_in_order_of_first_use(self, design, eps_high):
        # at eps_high = xi an end line pulsed to +xi leaves its row as it is:
        # the row is one profile, not two
        spec = chain_for(design, 10, eps_high=design.xi_mhz if eps_high else None)
        for sch, lines in (quantum_channel_schedule(spec, 3, design.t_ns),
                           classical_channel_schedule(spec, [1, 0, 1], design.t_ns)):
            rows = [row.tobytes() for row in sch.profiles[sch.profile_of]]
            distinct = list(dict.fromkeys(rows))
            assert [p.tobytes() for p in sch.profiles] == distinct
            assert sch.profile_of.tolist() == [distinct.index(row) for row in rows]
            back, _ = schedule_from_json(schedule_to_json(sch, lines))
            assert back.profiles.tobytes() == sch.profiles.tobytes()
            assert back.profile_of.tolist() == sch.profile_of.tolist()

    def test_zero_signs_are_profiles_apart(self):
        sch = PulseSchedule(1, [Window(float(w), 1.0, (z,)) for w, z in enumerate((0.0, -0.0, 0.0))])
        assert np.signbit(sch.profiles).tolist() == [[False], [True]]
        assert sch.profile_of.tolist() == [0, 1, 0]
        assert sch == PulseSchedule(1, [Window(float(w), 1.0, (0.0,)) for w in range(3)])


def traced_peak(call):
    """``call()`` and the peak bytes tracemalloc counts while it runs."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def table_bytes(schedule) -> int:
    """The bytes of the ``(n_windows, n_qubits)`` float64 bias table."""
    return schedule.n_windows * schedule.n_qubits * 8


def stored_bytes(schedule) -> int:
    return table_bytes(schedule) + sum(getattr(schedule, f).nbytes
                                       for f in ("starts", "durations", "events"))


def held_bytes(schedule) -> int:
    """The bytes of every array the schedule holds."""
    return sum(v.nbytes for v in vars(schedule).values() if isinstance(v, np.ndarray))


class TestArraysHeldOnce:
    """Generation, the line check and the parser keep one copy of each array,
    in bytes counted by tracemalloc at L = 256. The comments give each peak
    while the generators' arrays were copied, the quantum wire built a
    (macro-steps x L) lag grid, the line check gathered two full copies of
    the lined biases and each number of a file had a float of its own.  The
    replay builds no window or event rows, and nothing sized by the qubit
    count of a schedule without windows."""

    @pytest.fixture()
    def spec(self, design):
        return chain_for(design, 256, eps_high=25000.0)

    def test_quantum_wire(self, design, spec):
        (sch, _), peak = traced_peak(lambda: quantum_channel_schedule(spec, 16, design.t_ns))
        assert peak < 2 * stored_bytes(sch)  # 2.71x

    def test_classical_wire(self, design, spec):
        (sch, _), peak = traced_peak(
            lambda: classical_channel_schedule(spec, [1, 0, 1], design.t_ns))
        assert peak < 2.5 * stored_bytes(sch)  # 3.15x

    def test_line_check(self, design, spec):
        sch, lines = quantum_channel_schedule(spec, 16, design.t_ns)
        report, peak = traced_peak(lambda: line_conflict_check(sch, lines))
        assert report.ok
        assert peak < table_bytes(sch)  # 1.43x, the replay and the pulse mask included

    @pytest.mark.parametrize("n_qubits", [10**9, 2**63, 10**400])
    def test_replay_of_a_window_less_schedule(self, n_qubits):
        # such a schedule may declare any n_qubits: nothing is sized by it
        sch = PulseSchedule(n_qubits, (), (PulseEvent("read_reset", 3, 0),))
        replay, peak = traced_peak(lambda: replay_occupancy(sch))
        assert replay.reads == (ReadRecord(None, 3, 0, None, 0),)
        assert replay.data_held.size == 0
        assert peak < 2**20

    def test_replay_builds_no_rows(self, design, spec):
        # a generator builds no cut; the replay keeps the one per-window cut
        # (which the runner shares) and the pulse mask it is cut from, nothing else
        for sch, _ in (quantum_channel_schedule(spec, 16, design.t_ns),
                       classical_channel_schedule(spec, [1, 0, 1], design.t_ns)):
            fields = set(vars(sch))
            assert "_cut" not in fields
            assert replay_occupancy(sch).ok
            assert vars(sch).keys() - fields == {"_cut", "pulsed"}

    @pytest.mark.parametrize("wire", ["quantum", "classical"])
    def test_no_step_builds_the_bias_table(self, design, spec, wire):
        # every step reads the profiles: what a step leaves on the schedule (the
        # pulse mask, a byte a cell) stays under the bytes of the (n_windows,
        # n_qubits) bias table; the frame correction and a full-mode run (at a
        # size full mode runs) build theirs and drop it
        if wire == "quantum":
            sch, lines = quantum_channel_schedule(spec, 2, design.t_ns)
            run = lambda s: run_quantum_channel(spec, s, [[1.0, 0.0]] * 2, mode="reduced")
            small = chain_for(design, 5, eps_high=25000.0)
            full, _ = quantum_channel_schedule(small, 2, design.t_ns)
            stored = held_bytes(full)
            run_quantum_channel(small, full, [[1.0, 0.0]] * 2, mode="full")
            assert held_bytes(full) - stored < table_bytes(full)
        else:
            sch, lines = classical_channel_schedule(spec, [1, 0, 1], design.t_ns)
            run = lambda s: run_classical_channel(spec, s, [1, 0, 1], mode="reduced")
        back, _ = schedule_from_json(schedule_to_json(sch, lines))
        schedules = [(schedule, held_bytes(schedule)) for schedule in (sch, back)]
        for step in (replay_occupancy, lambda s: line_conflict_check(s, lines), schedule_to_json,
                     lambda s: compute_frame_correction(s, spec), run):
            for schedule, stored in schedules:
                step(schedule)
                assert held_bytes(schedule) - stored < table_bytes(schedule), step

    def test_parser(self, design, spec):
        sch, lines = quantum_channel_schedule(spec, 16, design.t_ns)
        text = schedule_to_json(sch, lines)
        back, peak = traced_peak(lambda: schedule_from_json(text))
        assert back == (sch, lines)
        assert peak < 1.5 * len(text)  # 2.77x
