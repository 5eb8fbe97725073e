"""Differential tests of the array-speed schedule paths against the routes
they replaced (``tests/oracles.py``): the direct JSON writer against
``json.dumps`` of the schedule document, byte for byte, and the vectorised
frame correction against the per-qubit loop, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_for
from oracles import json_dumps_schedule, loop_frame_correction
from swapchannel import (
    ChainSpec,
    LineAssignment,
    PulseEvent,
    PulseSchedule,
    ScheduleError,
    Window,
    classical_channel_schedule,
    compute_frame_correction,
    quantum_channel_schedule,
    schedule_to_json,
    solve_parameters,
    swap_pulses,
)
from swapchannel.scheduler import replay_occupancy

DESIGN = solve_parameters(10.0, m=1, n=0)  # the ``design`` fixture, for @given tests

GATE = ("cnot_pulse", "readout_pulse")
BOUNDARY = ("inject", "read_reset")

finite_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324, 25000.0]),
    st.integers(-(10**6), 10**6),
)
labels = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé \U0001f600'),
                       st.characters()),
    max_size=12,
)
data_indices = st.one_of(st.none(), st.integers(-3, 60))


def events(n: int, kinds):
    return st.builds(
        PulseEvent,
        kind=st.sampled_from(kinds),
        qubit=st.integers(0, n - 1),
        data_index=data_indices,
    )


@st.composite
def schedules(draw, bias_values=finite_numbers, min_windows=0):
    """Schedules of 1-12 qubits, none to six windows (each with none to four
    events), and biases drawn, or ``ChainSpec.hold_biases()`` (np.float64)
    with some entries replaced, as the generators build them."""
    n = draw(st.integers(1, 12))
    windows = []
    for _ in range(draw(st.integers(min_windows, 6))):
        if draw(st.booleans()):
            eps = draw(st.floats(1e-3, 1e6))
            biases = list(ChainSpec(n, 1.0, 1.0, eps).hold_biases())
            for q in draw(st.lists(st.integers(0, n - 1), max_size=n)):
                biases[q] = draw(bias_values)
        else:
            biases = draw(st.lists(bias_values, min_size=n, max_size=n))
        windows.append(
            Window(
                start_ns=draw(finite_numbers),
                duration_ns=draw(finite_numbers),
                biases_mhz=tuple(biases),
                events=tuple(draw(st.lists(events(n, GATE + BOUNDARY + ("hold",)),
                                           max_size=4))),
            )
        )
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


def _replace_window(schedule, index, **fields):
    windows = list(schedule.windows)
    w = windows[index]
    windows[index] = Window(
        start_ns=fields.get("start_ns", w.start_ns),
        duration_ns=fields.get("duration_ns", w.duration_ns),
        biases_mhz=fields.get("biases_mhz", w.biases_mhz),
        events=fields.get("events", w.events),
    )
    return PulseSchedule(schedule.n_qubits, tuple(windows), schedule.final_events,
                         schedule.label)


# Values json.dumps refuses (nan, inf: ValueError; numpy ints and float32:
# TypeError) or writes by another rule than a plain number (bool, a list, a
# float subclass).
_ODD = [float("nan"), float("inf"), -float("inf"), np.int64(3), np.float32(1.5),
        True, [1, 2.5], np.float64(-0.0), np.float64(1e300)]


def assert_writer_matches_json(schedule, lines):
    try:
        want = json_dumps_schedule(schedule, lines)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            schedule_to_json(schedule, lines)
    else:
        assert schedule_to_json(schedule, lines) == want


class TestScheduleWriter:
    @settings(max_examples=120, deadline=None)
    @given(case=schedules())
    def test_bytes_equal_json_dumps(self, case):
        assert_writer_matches_json(*case)

    @settings(max_examples=80, deadline=None)
    @given(case=schedules(min_windows=1), data=st.data())
    def test_odd_values_write_or_raise_as_json_does(self, case, data):
        schedule, lines = case
        w = data.draw(st.integers(0, schedule.n_windows - 1))
        odd = data.draw(st.sampled_from(_ODD))
        field = data.draw(st.sampled_from(["bias", "start_ns", "duration_ns",
                                           "data_index", "label"]))
        if field == "bias":
            biases = list(schedule.windows[w].biases_mhz)
            biases[data.draw(st.integers(0, len(biases) - 1))] = odd
            schedule = _replace_window(schedule, w, biases_mhz=tuple(biases))
        elif field in ("start_ns", "duration_ns"):
            schedule = _replace_window(schedule, w, **{field: odd})
        elif field == "data_index":
            event = PulseEvent(kind="read_reset", qubit=0, data_index=odd)
            schedule = _replace_window(
                schedule, w, events=schedule.windows[w].events + (event,)
            )
        else:
            schedule = PulseSchedule(schedule.n_qubits, schedule.windows,
                                     schedule.final_events, odd)
        assert_writer_matches_json(schedule, lines)

    def test_numpy_integer_qubit_raises_type_error(self):
        sch = PulseSchedule(
            n_qubits=2,
            windows=(Window(0.0, 1.0, (0.0, 0.0),
                            (PulseEvent(kind="cnot_pulse", qubit=np.int64(1)),)),),
        )
        with pytest.raises(TypeError):
            json_dumps_schedule(sch)
        with pytest.raises(TypeError):
            schedule_to_json(sch)

    def test_non_finite_bias_raises_value_error(self):
        sch = PulseSchedule(n_qubits=2, windows=(Window(0.0, 1.0, (0.0, float("nan"))),))
        with pytest.raises(ValueError, match="Out of range float"):
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
        swap = swap_pulses(spec, 1, 2, design.t_ns)  # hold_biases: np.float64
        assert isinstance(swap.windows[0].biases_mhz[0], np.float64)
        assert schedule_to_json(swap) == json_dumps_schedule(swap)

    def test_empty_schedule(self):
        sch = PulseSchedule(n_qubits=1, windows=())
        assert schedule_to_json(sch) == json_dumps_schedule(sch)
        assert '"windows": []' in schedule_to_json(sch)


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
        # Only gate pulses on an all-|0> register: every copy precondition
        # holds, so these schedules always reach the array path.
        schedule, _ = case
        windows = tuple(
            Window(w.start_ns, w.duration_ns, w.biases_mhz,
                   tuple(e for e in w.events if e.kind in GATE))
            for w in schedule.windows
        )
        schedule = PulseSchedule(schedule.n_qubits, windows)
        assert replay_occupancy(schedule).ok
        assert_frame_matches_loop(schedule, ChainSpec(schedule.n_qubits, 1.0, xi, None))

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
        inject = PulseEvent(kind="inject", qubit=0, data_index=None)
        cases = [
            PulseSchedule(n_qubits=5, windows=()),
            swap_pulses(spec, 0, 1, design.t_ns),
            swap_pulses(spec, 3, 4, design.t_ns),
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
