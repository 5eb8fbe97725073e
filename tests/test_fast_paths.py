"""Differential tests of the array-speed schedule paths against the routes
they replaced (``tests/oracles.py``): the direct JSON writer against
``json.dumps`` of the schedule document, byte for byte, the vectorised
frame correction against the per-qubit loop, bit for bit, the array line
check against the per-window dict of bias sets, message for message, and
the array generators and the replay over the event table against the
object-building generators and the replay over ``Window`` rows."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import chain_for
from oracles import (
    _boundary_events,
    _gate_targets,
    hold_bias_swap_pulses,
    json_dumps_schedule,
    loop_classical_channel_schedule,
    loop_frame_correction,
    loop_line_conflict_check,
    loop_quantum_channel_schedule,
    loop_replay_occupancy,
    schedule_rows,
    set_match_pairs,
)
from swapchannel import (
    ChainSpec,
    LineAssignment,
    PulseEvent,
    PulseSchedule,
    ScheduleError,
    Window,
    classical_channel_schedule,
    compute_frame_correction,
    line_conflict_check,
    quantum_channel_schedule,
    schedule_from_json,
    schedule_to_json,
    solve_parameters,
)
from swapchannel.scheduler import (
    _CACHED_NUMBERS, EVENT_KINDS, _match_pairs, replay_occupancy
)

DESIGN = solve_parameters(10.0, m=1, n=0)  # the ``design`` fixture, for @given tests

GATE = ("cnot_pulse", "readout_pulse")
BOUNDARY = ("inject", "read_reset")

finite_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324, 25000.0]),
    st.integers(-(10**6), 10**6),
)
#: Window lengths and the gaps between windows: finite and non-negative, as a
#: Window requires, and small enough that six in a row stay finite.
spans = st.one_of(
    st.floats(0.0, 1e300),
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e300, 25000.0]),
    st.integers(0, 10**6),
)
labels = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé \U0001f600'),
                       st.characters()),
    max_size=12,
)


def events(n: int, kinds, gate_data=False):
    """Events on ``n`` qubits; an inject always names a data item and a gate
    event none, unless ``gate_data`` draws gate events that do (refused)."""
    def build(kind):
        index = st.integers(0, 60)
        if kind in GATE:
            data = index | st.just(2**64) if gate_data else st.none()
        else:
            data = index if kind == "inject" else st.one_of(st.none(), index)
        return st.builds(PulseEvent, kind=st.just(kind), qubit=st.integers(0, n - 1),
                         data_index=data)

    return st.sampled_from(kinds).flatmap(build)


@st.composite
def schedules(draw, bias_values=finite_numbers, min_windows=0):
    """Schedules of 1-12 qubits, none to six windows in time order (each with
    none to four events), and biases drawn, or a hold profile ``np.full(n, eps)``
    (np.float64) with some entries replaced, as the generators build them."""
    n = draw(st.integers(1, 12))
    windows = []
    start = draw(st.one_of(st.floats(-1e300, 1e300), st.integers(-(10**6), 10**6)))
    for _ in range(draw(st.integers(min_windows, 6))):
        if draw(st.booleans()):
            eps = draw(st.floats(1e-3, 1e6))
            biases = list(np.full(n, eps))
            for q in draw(st.lists(st.integers(0, n - 1), max_size=n)):
                biases[q] = draw(bias_values)
        else:
            biases = draw(st.lists(bias_values, min_size=n, max_size=n))
        duration = draw(spans)
        windows.append(
            Window(
                start_ns=start,
                duration_ns=duration,
                biases_mhz=tuple(biases),
                events=tuple(draw(st.lists(events(n, GATE + BOUNDARY), max_size=4))),
            )
        )
        start = start + duration + draw(spans)
    schedule = PulseSchedule(
        n_qubits=n,
        windows=tuple(windows),
        final_events=tuple(draw(st.lists(events(n, BOUNDARY), max_size=3))),
        label=draw(labels),
    )
    lines = None
    if draw(st.booleans()):
        n_lines = draw(st.integers(1, 8))
        lines = LineAssignment(
            lines=tuple(draw(st.lists(st.one_of(st.none(), st.integers(0, n_lines - 1)),
                                      min_size=n, max_size=n))),
            n_lines=n_lines,
        )
    return schedule, lines


@st.composite
def broken_wires(draw):
    """A designed wire, quantum (L 4-30, 1-8 states) or classical (even L
    4-30, 1-6 bits), rebuilt from its rows after 1-3 edits: an inject
    dropped or repeated in any window, a pulse moved by one qubit, a
    read_reset added, or a data index raised past int64 (an object table)."""
    if draw(st.booleans()):
        spec = chain_for(DESIGN, draw(st.integers(4, 30)))
        schedule, _ = quantum_channel_schedule(spec, draw(st.integers(1, 8)), DESIGN.t_ns)
    else:
        spec = chain_for(DESIGN, 2 * draw(st.integers(2, 15)))
        bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
        schedule, _ = classical_channel_schedule(spec, bits, DESIGN.t_ns)
    n = schedule.n_qubits
    rows, final = schedule_rows(schedule)
    events = [list(w.events) for w in rows] + [list(final)]
    anywhere = st.integers(0, len(events) - 1)  # a window, or the final events
    for edit in draw(st.lists(st.sampled_from(["drop", "repeat", "shift", "read", "huge"]),
                              min_size=1, max_size=3)):
        if edit == "read":
            data = draw(st.one_of(st.none(), st.integers(0, 8)))
            events[draw(anywhere)].append(PulseEvent("read_reset", draw(st.integers(0, n - 1)),
                                                     data))
            continue
        kinds = {"shift": GATE, "huge": BOUNDARY}.get(edit, ("inject",))
        spots = [(w, k) for w, row in enumerate(events) for k, e in enumerate(row)
                 if e.kind in kinds and not (edit == "huge" and e.data_index is None)]
        if not spots:
            continue
        w, k = draw(st.sampled_from(spots))
        e = events[w][k]
        if edit == "drop":
            del events[w][k]
        elif edit == "repeat":
            events[draw(anywhere)].append(e)
        elif edit == "shift":
            step = draw(st.sampled_from([-1, 1]))
            events[w][k] = replace(e, qubit=e.qubit + step if 0 <= e.qubit + step < n
                                   else e.qubit - step)
        else:
            events[w][k] = replace(e, data_index=2**63 + draw(st.integers(0, 10**30)))
    windows = [replace(w, events=tuple(row)) for w, row in zip(rows, events)]
    return PulseSchedule(n, windows, events[-1], schedule.label)


def _rows(schedule) -> dict:
    """The arguments that build ``schedule`` from its rows."""
    windows, final_events = schedule_rows(schedule)
    return {"n_qubits": schedule.n_qubits, "windows": windows,
            "final_events": final_events, "label": schedule.label}


def _replace_window(rows, index, **fields) -> None:
    windows = list(rows["windows"])
    windows[index] = replace(windows[index], **fields)
    rows["windows"] = tuple(windows)


def _document(rows) -> str:
    """The schedule file of the values ``rows`` hold, as they are."""
    def event(e):
        return {"kind": e.kind, "qubit": e.qubit, "data_index": e.data_index}

    return json.dumps({
        "format": "swapchannel-schedule/1",
        "n_qubits": rows["n_qubits"],
        "label": rows["label"],
        "windows": [{"start_ns": w.start_ns, "duration_ns": w.duration_ns,
                     "biases_mhz": list(w.biases_mhz), "events": list(map(event, w.events))}
                    for w in rows["windows"]],
        "final_events": list(map(event, rows["final_events"])),
        "lines": None,
    })


# Values a field may be handed: numpy integers and reals, ints and floats,
# which the schedule types store as plain ints and floats where they fit, and
# nan, inf, bools, strings, a list, None and ints past the float range.
_ODD = [float("nan"), float("inf"), -float("inf"), np.int64(3), np.uint8(0),
        np.float32(1.5), np.float64(-0.0), np.float64(1e300), 0, 1, 2.5, True,
        np.bool_(False), "2", [1, 2.5], None, 10**400, -(10**400)]
_SCHEDULE_FIELDS = ["bias", "start_ns", "duration_ns", "qubit", "data_index", "n_qubits",
                    "label"]
_FIELDS = _SCHEDULE_FIELDS + ["line", "n_lines"]


_NUMPY_TWIN = {int: np.int64, float: np.float64, str: np.str_}
_OTHER_NUMBER = {int: float, float: int}


def _numpy_twin(value):
    """``value`` as the numpy scalar of its type, where it has one."""
    return _NUMPY_TWIN.get(type(value), lambda v: v)(value)


def _other_number(value):
    """An int as a float, a float as the int ``int()`` makes of it; other values
    as they are."""
    return _OTHER_NUMBER.get(type(value), lambda v: v)(value)


def _odd_cases(fields) -> list:
    """Every (field, odd value) pair: each value of ``_ODD``, and the value a
    field holds retyped by :func:`_numpy_twin` or :func:`_other_number`."""
    return [pytest.param(field, odd, id=f"{field}-{getattr(odd, '__name__', repr(odd))[:16]}")
            for field in fields for odd in _ODD + [_numpy_twin, _other_number]]


def _with_odd(schedule, lines, field, odd, data, json_values=False):
    """The rows of ``schedule`` (:func:`_rows`) and ``lines``, one ``field``
    replaced by ``odd`` or, when it is a function, by ``odd`` of the value it
    replaces (a numpy number as the plain one when ``json_values``, so a file
    can hold it too); ``data`` picks the window, qubit or line.  A
    ``LineAssignment`` raises ScheduleError where it refuses the value."""
    def replaced(current):
        value = odd(current) if callable(odd) else odd
        return value.item() if json_values and isinstance(value, np.generic) else value

    rows = _rows(schedule)
    w = data.draw(st.integers(0, schedule.n_windows - 1))
    window = rows["windows"][w]
    if field == "bias":
        biases = list(window.biases_mhz)
        q = data.draw(st.integers(0, len(biases) - 1))
        biases[q] = replaced(biases[q])
        _replace_window(rows, w, biases_mhz=biases)
    elif field in ("start_ns", "duration_ns"):
        _replace_window(rows, w, **{field: replaced(getattr(window, field))})
    elif field in ("qubit", "data_index"):
        event = PulseEvent(kind="read_reset", qubit=0, data_index=1)
        event = replace(event, **{field: replaced(getattr(event, field))})
        _replace_window(rows, w, events=window.events + (event,))
    elif field in ("n_qubits", "label"):
        rows[field] = replaced(rows[field])
    elif lines is not None and field == "line":
        q = data.draw(st.integers(0, len(lines.lines) - 1))
        lines = replace(lines, lines=lines.lines[:q] + (replaced(lines.lines[q]),)
                        + lines.lines[q + 1:])
    elif lines is not None:
        lines = replace(lines, n_lines=replaced(lines.n_lines))
    return rows, lines


def _outcome(build):
    """What ``build()`` gives, or the message of the ScheduleError it raises."""
    try:
        return build()
    except ScheduleError as exc:
        return str(exc)


def assert_round_trips(schedule, lines):
    """The writer gives ``json.dumps``'s bytes, and the parser gives the
    schedule back."""
    text = schedule_to_json(schedule, lines)
    assert text == json_dumps_schedule(schedule, lines)
    assert schedule_from_json(text) == (schedule, lines)


class TestScheduleWriter:
    @settings(max_examples=120, deadline=None)
    @given(case=schedules())
    def test_bytes_equal_json_dumps(self, case):
        assert_round_trips(*case)

    @pytest.mark.parametrize("field, odd", _odd_cases(_FIELDS))
    @settings(max_examples=2, deadline=None)
    @given(case=schedules(min_windows=1), data=st.data())
    def test_odd_values_round_trip_or_are_refused(self, field, odd, case, data):
        try:
            rows, lines = _with_odd(*case, field, odd, data)
            schedule = PulseSchedule(**rows)
        except ScheduleError:
            return
        assert_round_trips(schedule, lines)

    @pytest.mark.parametrize("field, odd", _odd_cases(_SCHEDULE_FIELDS))
    @settings(max_examples=3, deadline=None)
    @given(case=schedules(min_windows=1), data=st.data())
    def test_rows_and_files_give_one_answer(self, field, odd, case, data):
        # every odd value in every schedule field: the rows and the file
        # holding the same values are both accepted as equal schedules, or
        # both refused with one message
        rows, _ = _with_odd(*case, field, odd, data, json_values=True)
        from_rows = _outcome(lambda: PulseSchedule(**rows))
        from_file = _outcome(lambda: schedule_from_json(_document(rows))[0])
        assert from_rows == from_file

    @settings(max_examples=60, deadline=None)
    @given(case=schedules(min_windows=1), data=st.data())
    def test_a_gate_event_with_a_data_index_is_refused(self, case, data):
        # anywhere in any window, by the rows and by the file holding them,
        # with the one message naming its window and qubit
        schedule, _ = case
        rows = _rows(schedule)
        w = data.draw(st.integers(0, schedule.n_windows - 1))
        event = data.draw(events(schedule.n_qubits, GATE, gate_data=True))
        before = rows["windows"][w].events
        at = data.draw(st.integers(0, len(before)))
        _replace_window(rows, w, events=before[:at] + (event,) + before[at:])
        message = f"window {w}: gate event on qubit {event.qubit} has a data_index"
        assert _outcome(lambda: PulseSchedule(**rows)) == message
        assert _outcome(lambda: schedule_from_json(_document(rows))[0]) == message

    def test_numpy_integer_qubit_is_written_as_int(self):
        event = PulseEvent(kind="read_reset", qubit=np.int64(1), data_index=np.uint16(4))
        sch = PulseSchedule(
            n_qubits=np.int32(2),
            windows=(Window(0.0, 1.0, (0.0, 0.0),
                            (PulseEvent(kind="cnot_pulse", qubit=np.int64(1)), event)),),
        )
        stored = schedule_rows(sch)[0][0].events[1]
        assert (type(stored.qubit), type(stored.data_index)) == (int, int)
        assert type(sch.n_qubits) is int
        assert schedule_to_json(sch) == json_dumps_schedule(sch)
        assert '"qubit": 1\n' in schedule_to_json(sch)

    def test_non_finite_bias_raises_value_error(self):
        with pytest.raises(ValueError, match="biases_mhz must be finite"):
            sch = PulseSchedule(n_qubits=2, windows=(Window(0.0, 1.0, (0.0, float("nan"))),))
            schedule_to_json(sch)

    @pytest.mark.parametrize("line_mode", ["mod6", "mod3"])
    @pytest.mark.parametrize("n_qubits, n_states", [(2, 1), (3, 2), (5, 3), (41, 5), (101, 2)])
    def test_generated_quantum_schedules(self, design, n_qubits, n_states, line_mode):
        spec = chain_for(design, n_qubits)
        sch, lines = quantum_channel_schedule(spec, n_states, design.t_ns,
                                              line_mode=line_mode)
        assert schedule_to_json(sch, lines) == json_dumps_schedule(sch, lines)
        assert schedule_to_json(sch) == json_dumps_schedule(sch)

    @pytest.mark.parametrize("n_qubits", [4, 6, 100])
    def test_generated_classical_and_swap_schedules(self, design, n_qubits):
        spec = chain_for(design, n_qubits)
        sch, lines = classical_channel_schedule(spec, [1, 0, 0, 1, 1], design.t_ns)
        assert schedule_to_json(sch, lines) == json_dumps_schedule(sch, lines)
        swap = hold_bias_swap_pulses(spec, 1, 2, design.t_ns)
        assert schedule_to_json(swap) == json_dumps_schedule(swap)

    def test_more_distinct_values_than_the_caches_hold(self):
        # 3000 distinct numbers and 150 distinct bias rows, each row coming
        # back after 100 others: past the parser's number cache, whose evicted
        # entries are parsed again, and 150 profiles, each spelled once; data
        # indices near 2**63 give event codes past int64
        rng = np.random.default_rng(7)
        rows = rng.normal(scale=1e3, size=(150, 20))
        rows[:, 0] = -0.0
        order = [w % 150 if w < 300 else (w * 37) % 150 for w in range(450)]
        windows = [Window(10.0 * w, 10.0, tuple(rows[r]), (PulseEvent("inject", r % 20, 2**62 + r),
                                                            PulseEvent("cnot_pulse", r % 20)))
                   for w, r in enumerate(order)]
        sch = PulseSchedule(20, windows, (PulseEvent("read_reset", 3, 2**62),))
        assert sch.events.dtype == np.int64
        assert len(np.unique(sch.profiles)) > _CACHED_NUMBERS and len(sch.profiles) == 150
        assert_round_trips(sch, LineAssignment(tuple(range(20)), 20))

    def test_empty_schedule(self):
        sch = PulseSchedule(n_qubits=1, windows=())
        assert schedule_to_json(sch) == json_dumps_schedule(sch)
        assert '"windows": []' in schedule_to_json(sch)


def assert_symbols_are_parked_or_data(schedule):
    replay = replay_occupancy(schedule)
    held = replay.data_held
    assert held.dtype == bool and not held.flags.writeable
    assert held.shape == (schedule.n_windows, schedule.n_qubits)
    windows, final_events = schedule_rows(schedule)
    events = [e for w in windows for e in w.events] + list(final_events)
    injected = {e.data_index for e in events if e.kind == "inject"}
    for r in replay.reads:
        assert r.symbol is None or (type(r.symbol) is int and r.symbol in injected), r


class TestMatchPairs:
    """The swap-pair matching against its former set-per-target body,
    ambiguity rule included: a target with both neighbours, or neither,
    still unmatched ends the match."""

    @settings(max_examples=300, deadline=None)
    @given(lefts=st.lists(st.integers(-2, 14), max_size=8),
           mids=st.lists(st.integers(-2, 14), max_size=8))
    def test_equals_the_set_route(self, lefts, mids):
        assert _match_pairs(lefts, mids) == set_match_pairs(lefts, mids)

    @settings(max_examples=200, deadline=None)
    @given(lefts=st.sets(st.integers(0, 40), min_size=1, max_size=12),
           shifts=st.lists(st.sampled_from([-1, 1]), min_size=12, max_size=12))
    def test_equals_the_set_route_on_neighbour_targets(self, lefts, shifts):
        lefts = sorted(lefts)
        mids = sorted({a + d for a, d in zip(lefts, shifts)})
        assert _match_pairs(lefts, mids) == set_match_pairs(lefts, mids)

    @pytest.mark.parametrize("lefts, mids, want", [
        ([1, 3], [2, 4], [(1, 2), (3, 4)]),
        ([2], [1], [(1, 2)]),
        ([2, 4], [1, 3], None),  # 2 sees both 1 and 3
        ([1], [3], None),
        ([], [], None),
    ])
    def test_cases(self, lefts, mids, want):
        assert _match_pairs(lefts, mids) == set_match_pairs(lefts, mids) == want


class TestReplaySymbols:
    """A symbol is None (parked |0>, the only literal) or the data index a
    qubit holds, so two unequal symbols under a copy pulse are undecidable,
    never a definite mismatch."""
    @settings(max_examples=60, deadline=None)
    @given(case=schedules())
    def test_random_schedules(self, case):
        assert_symbols_are_parked_or_data(case[0])

    def test_designed_wires(self, design):
        for n_qubits in range(2, 13):
            spec = chain_for(design, n_qubits)
            for n_states in (1, 2, 4):
                for line_mode in ("mod6", "mod3"):
                    sch, _ = quantum_channel_schedule(
                        spec, n_states, design.t_ns, line_mode=line_mode
                    )
                    assert_symbols_are_parked_or_data(sch)
            if n_qubits >= 4 and n_qubits % 2 == 0:
                for bits in ([0], [1], [1, 0, 1, 1], [0, 1, 1, 0, 0, 1]):
                    sch, _ = classical_channel_schedule(spec, bits, design.t_ns)
                    assert_symbols_are_parked_or_data(sch)


def assert_frame_matches_loop(schedule, spec):
    # 1e300 MHz over 1e300 ns overflows to inf on both paths alike
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = loop_frame_correction(schedule, spec)
        except ScheduleError:
            with pytest.raises(ScheduleError):
                compute_frame_correction(schedule, spec)
            return
        got = compute_frame_correction(schedule, spec)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    # assert_array_equal reads -0.0 == 0.0; the signs must match too
    assert np.array_equal(np.signbit(got), np.signbit(want))


xis = st.floats(1e-3, 1e4)


class TestFrameCorrection:
    @settings(max_examples=100, deadline=None)
    @given(case=schedules(), xi=xis)
    def test_random_schedules_equal_the_loop(self, case, xi):
        schedule, _ = case
        assert_frame_matches_loop(schedule, ChainSpec(schedule.n_qubits, 1.0, xi, None))

    @settings(max_examples=60, deadline=None)
    @given(
        case=schedules(bias_values=st.floats(-1e5, 1e5)),
        xi=xis,
    )
    def test_replay_clean_random_schedules_equal_the_loop(self, case, xi):
        # Only gate pulses on an all-|0> register, kept when the replay is
        # clean (a swap triple can still pulse a pair's outer neighbour), so
        # these schedules reach the array path.
        schedule, _ = case
        windows = tuple(
            Window(w.start_ns, w.duration_ns, w.biases_mhz,
                   tuple(e for e in w.events if e.kind in GATE))
            for w in schedule_rows(schedule)[0]
        )
        schedule = PulseSchedule(schedule.n_qubits, windows)
        assume(replay_occupancy(schedule).ok)
        assert_frame_matches_loop(schedule, ChainSpec(schedule.n_qubits, 1.0, xi, None))

    def test_gate_pulses_on_a_parked_register_can_fail_the_replay(self):
        # Targets {2, 5}, {3, 4}, {2, 5} form a swap triple whose pairs (2, 3)
        # and (4, 5) each pulse the other's outer neighbour.
        windows = tuple(
            Window(10.0 * i, 10.0, (1.0,) * 6,
                   tuple(PulseEvent(kind="cnot_pulse", qubit=q) for q in targets))
            for i, targets in enumerate([(2, 5), (3, 4), (2, 5)])
        )
        replay = replay_occupancy(PulseSchedule(6, windows))
        assert [v.message for v in replay.violations] == [
            "outer neighbour 4 of pair (2,3) is pulsed",
            "outer neighbour 3 of pair (4,5) is pulsed",
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        n_qubits=st.integers(2, 16),
        n_states=st.integers(1, 6),
        line_mode=st.sampled_from(["mod6", "mod3"]),
        eps=st.floats(1e3, 1e5),
        t_ns=st.floats(0.5, 50.0),
    )
    def test_designed_quantum_schedules_equal_the_loop(
        self, n_qubits, n_states, line_mode, eps, t_ns
    ):
        spec = chain_for(DESIGN, n_qubits, eps_high=eps)
        sch, _ = quantum_channel_schedule(spec, n_states, t_ns, line_mode=line_mode)
        assert_frame_matches_loop(sch, spec)

    @settings(max_examples=40, deadline=None)
    @given(
        half=st.integers(2, 8),
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=8),
        eps=st.floats(1e3, 1e5),
    )
    def test_designed_classical_schedules_equal_the_loop(self, half, bits, eps):
        spec = chain_for(DESIGN, 2 * half, eps_high=eps)
        sch, _ = classical_channel_schedule(spec, bits, DESIGN.t_ns)
        assert_frame_matches_loop(sch, spec)

    def test_hand_built_schedules_equal_the_loop(self, design):
        spec = chain_for(design, 5)
        pulse = PulseEvent(kind="cnot_pulse", qubit=2)
        inject = PulseEvent(kind="inject", qubit=0, data_index=0)
        cases = [
            PulseSchedule(n_qubits=5, windows=()),
            hold_bias_swap_pulses(spec, 0, 1, design.t_ns),
            hold_bias_swap_pulses(spec, 3, 4, design.t_ns),
            PulseSchedule(n_qubits=5, windows=(
                Window(0.0, 10, (-0.0, 0, 1e-300, 1e300, 25000.0), (inject,)),
                Window(10.0, 0.0, (25000.0,) * 5, (pulse,)),
                Window(10.0, 10.0, (25000.0,) * 5,
                       (PulseEvent(kind="read_reset", qubit=0),)),
            )),
        ]
        for sch in cases:
            assert_frame_matches_loop(sch, spec)
        one = chain_for(design, 1)
        idle = PulseSchedule(n_qubits=1, windows=(Window(0.0, 10.0, (25000.0,)),))
        assert_frame_matches_loop(idle, one)

    def test_bench_sized_schedules_equal_the_loop(self, design):
        for n_qubits, n_states in ((101, 20), (41, 50)):
            spec = chain_for(design, n_qubits)
            sch, _ = quantum_channel_schedule(spec, n_states, design.t_ns)
            assert_frame_matches_loop(sch, spec)
        spec = chain_for(design, 100)
        sch, _ = classical_channel_schedule(spec, [1, 0] * 20, design.t_ns)
        assert_frame_matches_loop(sch, spec)


def line_maps(n: int):
    n_lines = st.integers(1, 8)
    return n_lines.flatmap(lambda k: st.builds(
        LineAssignment,
        lines=st.lists(st.one_of(st.none(), st.integers(0, k - 1)), min_size=n, max_size=n)
        .map(tuple),
        n_lines=st.just(k),
    ))


def assert_line_check_matches_loop(schedule, lines):
    got = line_conflict_check(schedule, lines)
    want = loop_line_conflict_check(schedule, lines)
    assert got.problems == want.problems
    assert got.ok is want.ok


class TestLineConflictCheck:
    @settings(max_examples=50, deadline=None)
    @given(case=schedules(), data=st.data())
    def test_random_schedules_equal_the_loop(self, case, data):
        schedule, lines = case
        if lines is None:
            lines = data.draw(line_maps(schedule.n_qubits))
        assert_line_check_matches_loop(schedule, lines)

    @settings(max_examples=30, deadline=None)
    @given(
        case=schedules(bias_values=st.sampled_from([0.0, -0.0, 21.5, 25000.0]), min_windows=1),
        data=st.data(),
    )
    def test_schedules_with_shared_values_equal_the_loop(self, case, data):
        # Few distinct biases (with 0.0 and -0.0, equal but printed apart),
        # so lines both agree and disagree.
        schedule, _ = case
        assert_line_check_matches_loop(schedule, data.draw(line_maps(schedule.n_qubits)))

    @pytest.mark.parametrize("big", [10**9, 10**10, 2**63, 10**400],
                             ids=["1e9", "1e10", "2^63", "1e400"])
    def test_huge_line_numbers_allocate_nothing_per_line(self, design, big):
        # n_lines and the line numbers only name lines, here past any array
        # size or int64; arrays are sized by the lines in use.
        sch, lines = quantum_channel_schedule(chain_for(design, 7), 2, design.t_ns)
        for line_map in (
            lines.lines,
            (None,) * 7,
            tuple(None if m is None else big + m for m in lines.lines),
            (big,) * 7,
            (None, big, 0, big, 1, big - 1, None),
            tuple(big - q for q in range(7)),
        ):
            assert_line_check_matches_loop(sch, LineAssignment(line_map, big + lines.n_lines))

    def test_wrong_size_map(self, design):
        sch, _ = quantum_channel_schedule(chain_for(design, 5), 1, design.t_ns)
        for lines in (LineAssignment((0, 1), 2), LineAssignment((None,) * 6, 1)):
            assert_line_check_matches_loop(sch, lines)

    @pytest.mark.parametrize("n_qubits", range(2, 13))
    def test_designed_wires_and_altered_maps(self, design, n_qubits):
        spec = chain_for(design, n_qubits)
        cases = [
            quantum_channel_schedule(spec, n_states, design.t_ns, line_mode=line_mode)
            for n_states in (1, 2, 4) for line_mode in ("mod6", "mod3")
        ]
        if n_qubits >= 4 and n_qubits % 2 == 0:
            cases += [classical_channel_schedule(spec, bits, design.t_ns)
                      for bits in ([0], [1, 0, 1, 1], [0, 1, 1, 0, 0, 1])]
        for sch, lines in cases:
            assert line_conflict_check(sch, lines).ok
            assert_line_check_matches_loop(sch, lines)
            k = lines.n_lines
            for altered in (
                LineAssignment(tuple(None if q % 3 == 1 else m for q, m in
                                     enumerate(lines.lines)), k),
                LineAssignment(tuple(None if m is None else (m + 1) % k
                                     for m in lines.lines), k),
                LineAssignment((0,) * n_qubits, 1),
                LineAssignment(tuple(q % 2 for q in range(n_qubits)), 2),
            ):
                assert_line_check_matches_loop(sch, altered)

    def test_bench_sized_schedules_equal_the_loop(self, design):
        for n_qubits, n_states in ((101, 20), (41, 50)):
            sch, lines = quantum_channel_schedule(chain_for(design, n_qubits), n_states,
                                                  design.t_ns)
            assert_line_check_matches_loop(sch, lines)
            assert_line_check_matches_loop(sch, LineAssignment((0,) * n_qubits, 1))
        sch, lines = classical_channel_schedule(chain_for(design, 100), [1, 0] * 20,
                                                design.t_ns)
        assert_line_check_matches_loop(sch, lines)


def assert_replay_matches_loop(schedule):
    got, want = replay_occupancy(schedule), loop_replay_occupancy(schedule)
    assert got.violations == want.violations
    assert got.reads == want.reads
    assert got.swaps == want.swaps
    assert got.data_held.shape == want.data_held.shape
    assert np.array_equal(got.data_held, want.data_held)
    assert got.data_held.dtype == bool and not got.data_held.flags.writeable


def assert_cut_matches_rows(schedule):
    """The schedule's one per-window cut holds what the oracle's filters of its
    ``Window`` rows give: each window's distinct targets, ascending, then each
    window's boundary rows and the final ones, as plain int rows."""
    targets, boundary = schedule._cut
    windows, final_events = schedule_rows(schedule)
    assert targets == [list(_gate_targets(w)) for w in windows]
    final = Window(0.0, 0.0, (), final_events)
    assert boundary == [[[EVENT_KINDS.index(e.kind), e.qubit,
                          -1 if e.data_index is None else e.data_index]
                         for e in _boundary_events(w)] for w in (*windows, final)]
    values = [q for row in targets for q in row] + [x for rows in boundary for r in rows for x in r]
    assert {type(x) for x in values} <= {int}


class TestScheduleCut:
    """The one per-window cut that the replay, the runner and the line check
    read, against the oracle's per-window filters of the ``Window`` rows."""

    @settings(max_examples=100, deadline=None)
    @given(case=schedules())
    def test_hand_built_schedules(self, case):
        assert_cut_matches_rows(case[0])

    @settings(max_examples=60, deadline=None)
    @given(schedule=broken_wires())
    def test_broken_designed_wires(self, schedule):
        assert_cut_matches_rows(schedule)

    @pytest.mark.parametrize("n_qubits", [*range(4, 15, 2), 40, 100])
    def test_designed_wires(self, design, n_qubits):
        # the generators order a window's boundary events before its pulses
        spec = chain_for(design, n_qubits)
        for n_states in (1, 2, 5):
            for line_mode in ("mod6", "mod3"):
                assert_cut_matches_rows(quantum_channel_schedule(
                    spec, n_states, design.t_ns, line_mode=line_mode)[0])
        for bits in ([1], [0, 1, 1], [1, 0] * 6):
            assert_cut_matches_rows(classical_channel_schedule(spec, bits, design.t_ns)[0])

    def test_data_index_past_int64(self):
        big = 2**64 + 1
        events = (PulseEvent("inject", 0, big), PulseEvent("cnot_pulse", 1), PulseEvent("read_reset", 2))
        with pytest.raises(ScheduleError, match="^window 0: gate event on qubit 2 has a data_index$"):
            PulseSchedule(3, (Window(0.0, 1.0, (0.0,) * 3,
                                     events + (PulseEvent("cnot_pulse", 2, big),)),))
        sch = PulseSchedule(3, (Window(0.0, 1.0, (0.0,) * 3, events),), (PulseEvent("read_reset", 0, big),))
        assert sch.events.dtype == object
        assert_cut_matches_rows(sch)
        assert sch._cut == ([[1]], [[[2, 0, big], [3, 2, -1]], [[3, 0, big]]])

    @pytest.mark.parametrize("n_qubits", [1, 10**400], ids=["one-qubit", "past-int64"])
    def test_window_less_schedule(self, n_qubits):
        final = (PulseEvent("read_reset", 0, 7),)
        with pytest.raises(ScheduleError, match="^unknown event kind 'hold'$"):
            PulseSchedule(n_qubits, (), final + (PulseEvent("hold", 0),))
        sch = PulseSchedule(n_qubits, (), final)
        assert_cut_matches_rows(sch)
        assert sch._cut == ([], [[[3, 0, 7]]])


def assert_same_arrays(got, want):
    """Equal schedules with bit-identical float arrays (-0.0 apart from 0.0)."""
    assert got == want
    for name in ("starts", "durations"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.profiles[got.profile_of].tobytes()
            == want.profiles[want.profile_of].tobytes()), "biases"
    assert got.events.dtype == want.events.dtype
    assert schedule_rows(got) == schedule_rows(want)


class TestArrayRoutesMatchTheRowRoutes:
    """The generators write the arrays the object-building generators give,
    and the replay over the event table finds what the replay over
    ``Window`` rows finds: violations, reads with their z parity, and the
    data-held mask."""

    @pytest.mark.parametrize("line_mode", ["mod6", "mod3"])
    @pytest.mark.parametrize("n_qubits", [*range(2, 14), 40, 41, 101])
    def test_quantum_wires(self, design, n_qubits, line_mode):
        spec = chain_for(design, n_qubits)
        for n_states in (1, 2, 4, 7):
            got = quantum_channel_schedule(spec, n_states, design.t_ns, line_mode=line_mode)
            want = loop_quantum_channel_schedule(spec, n_states, design.t_ns,
                                                 line_mode=line_mode)
            assert_same_arrays(got[0], want[0])
            assert got[1] == want[1]
            assert_replay_matches_loop(got[0])
            assert [r.z_parity for r in got[0].replay.reads] == [(n_qubits - 1) % 2] * n_states

    @pytest.mark.parametrize("n_qubits", [4, 6, 8, 10, 12, 100])
    def test_classical_wires(self, design, n_qubits):
        spec = chain_for(design, n_qubits)
        for bits in ([0], [1], [1, 0, 1, 1], [0, 1, 1, 0, 0, 1], [1, 0] * 20):
            got = classical_channel_schedule(spec, bits, design.t_ns)
            want = loop_classical_channel_schedule(spec, bits, design.t_ns)
            assert_same_arrays(got[0], want[0])
            assert got[1] == want[1]
            assert_replay_matches_loop(got[0])

    @settings(max_examples=60, deadline=None)
    @given(n_qubits=st.integers(2, 30), n_states=st.integers(1, 8),
           line_mode=st.sampled_from(["mod6", "mod3"]), eps=st.floats(1e3, 1e5),
           t_ns=st.floats(1e-3, 1e6))
    def test_quantum_wires_at_drawn_sizes_and_times(self, n_qubits, n_states, line_mode, eps,
                                                    t_ns):
        spec = chain_for(DESIGN, n_qubits, eps_high=eps)
        got, _ = quantum_channel_schedule(spec, n_states, t_ns, line_mode=line_mode)
        want, _ = loop_quantum_channel_schedule(spec, n_states, t_ns, line_mode=line_mode)
        assert_same_arrays(got, want)

    @settings(max_examples=50, deadline=None)
    @given(case=schedules())
    def test_hand_built_schedules(self, case):
        schedule, _ = case
        assert_replay_matches_loop(schedule)
        rebuilt = PulseSchedule(schedule.n_qubits, *schedule_rows(schedule), schedule.label)
        assert_same_arrays(rebuilt, schedule)

    @settings(max_examples=100, deadline=None)
    @given(schedule=broken_wires())
    def test_broken_designed_wires(self, schedule):
        # swap triples with occupied or pulsed outer neighbours, and mid-wire
        # copies and injects, which the hand-built schedules rarely form
        assert_replay_matches_loop(schedule)

    @settings(max_examples=30, deadline=None)
    @given(case=schedules(bias_values=st.sampled_from([0.0, -0.0, 25000.0]), min_windows=1))
    def test_hand_built_schedules_round_trip_bit_for_bit(self, case):
        schedule, lines = case
        back, back_lines = schedule_from_json(schedule_to_json(schedule, lines))
        assert_same_arrays(back, schedule)
        assert back_lines == lines
