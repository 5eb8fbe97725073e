"""Pulse-schedule generation, symbolic validation and serialisation.

A schedule is a sequence of constant-bias windows.  Boundary events (inject,
read_reset) fire at the START of their window, before any evolution; gate
events (cnot_pulse, readout_pulse) name the qubits intentionally pulsed for
the whole window.  ``final_events`` fire after the last window.

The symbolic replay tracks which qubits hold data (and which data item) and
which sit parked in |0> at every window, which is what the sacrificial-qubit
rules, the line-sharing rules and the idle-phase frame corrections all need.
It is computed once per schedule (:attr:`PulseSchedule.replay`) and every
check reads that one result.

A :class:`PulseSchedule` holds one read-only array per field: ``starts``, ``durations``,
``profiles`` (each distinct bias row once, by bit pattern, in order of first appearance),
``profile_of`` (each window's profile) and the int table ``events`` of ``(window, kind,
qubit, data_index)`` rows (a kind as its index in :data:`EVENT_KINDS`, no data index as
-1, the final events in window ``n_windows``).  Rows, a file and the generators all reach
those arrays through one check, which stores plain ints and finite floats (numpy numbers
converted, anything else refused); :class:`PulseEvent` and :class:`Window` are its
unchecked row types.
"""

from __future__ import annotations

import json
import struct
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

import numpy as np

from .chain import ChainSpec, _integer, _number

__all__ = [
    "ScheduleError", "GATE_KINDS", "BOUNDARY_KINDS", "EVENT_KINDS", "PulseEvent", "Window",
    "PulseSchedule", "LineAssignment", "Violation", "ReadRecord", "ReplayResult",
    "LineCheckReport", "quantum_channel_schedule", "classical_channel_schedule", "replay_occupancy",
    "validate_sacrificial", "line_conflict_check", "schedule_to_json", "schedule_from_json",
]

GATE_KINDS = ("cnot_pulse", "readout_pulse")
BOUNDARY_KINDS = ("inject", "read_reset")
#: Every event kind, in the order of its number in an event table.
EVENT_KINDS = GATE_KINDS + BOUNDARY_KINDS
_CNOT, _READOUT, _INJECT, _READ_RESET = range(4)
_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}
_NO_DATA = -1

_FORMAT_TAG = "swapchannel-schedule/1"
#: The writer's separators, which the parser cuts a file at: the first window's opening,
#: the keys of its duration, events and start, the next window's opening, the file's end.
_OPEN = ',\n  "windows": [\n    {\n      "biases_mhz": '
_KEYS = (',\n      "duration_ns": ', ',\n      "events": ', ',\n      "start_ns": ')
_NEXT = '\n    },\n    {\n      "biases_mhz": '
_END = "\n    }\n  ]\n}\n"
#: Entries of the parser's number cache.
_CACHED_NUMBERS = 1024


class ScheduleError(ValueError):
    """A schedule (or schedule request) that cannot be realised."""


_set = object.__setattr__


def _array(values, what: str):
    """A tuple or list as it is, an ndarray as its list; anything else
    (a str, a dict, a number) is refused."""
    if isinstance(values, np.ndarray):
        return values.tolist()
    if not isinstance(values, (tuple, list)):
        raise ScheduleError(f"{what}, got {values!r}")
    return values


def _tuple_of(values, item: type, what: str) -> tuple:
    """``values`` as a tuple of ``item`` instances."""
    values = _array(values, f"{what} must be an array of {item.__name__}")
    if not set(map(type, values)) <= {item}:
        for v in values:
            if not isinstance(v, item):
                raise ScheduleError(f"{what} must hold {item.__name__}s, got {v!r}")
    return tuple(values)


@dataclass(frozen=True)
class PulseEvent:
    """One event: a pulse on a qubit, or a boundary init/read on it.

    ``data_index`` ties inject/read_reset events to a logical data item so
    runners can pair outputs with inputs.  An unchecked record: the schedule
    it goes into checks its fields.
    """

    kind: str
    qubit: int
    data_index: int | None = None


@dataclass(frozen=True)
class Window:
    """One window at a constant bias profile.  An unchecked record: the
    schedule it goes into checks its fields."""

    start_ns: float
    duration_ns: float
    biases_mhz: tuple[float, ...]
    events: tuple[PulseEvent, ...] = ()


def _frozen(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array; an ndarray of ``dtype`` is kept, not copied."""
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _table(columns) -> np.ndarray:
    """The event table of its four columns: int64, or ints past int64 as objects."""
    try:
        return _frozen(columns, np.int64).reshape(4, -1).T
    except OverflowError:
        return _frozen([np.array(c, object).tolist() for c in columns], object).reshape(4, -1).T


def _only(values, *types) -> bool:
    return set(map(type, values)) <= set(types)


def _column(values, plain: bool, check, what: str, window=None, n_windows=None,
            **bounds) -> list:
    """``values`` as they are when ``plain`` (their type pass held), else
    ``check(value, what, **bounds)`` of each; the first refusal names the
    window of value i, ``window[i]`` (or i), unless it is a final event."""
    if plain:
        return values
    out = []
    for i, value in enumerate(values):
        try:
            out.append(check(value, what, error=ScheduleError, **bounds))
        except ScheduleError as exc:
            w = i if window is None else window[i]
            raise ScheduleError(("" if w == n_windows else f"window {w}: ") + str(exc)) from None
    return out


def _kind(kind, what: str, error) -> str:
    if type(kind) is not str or kind not in _KIND_CODE:
        raise error(f"unknown {what} {kind!r}")
    return kind


def _numbers(row, what: str, error) -> list:
    row = _array(row, f"{what} must be an array of numbers")
    return row if _only(row, float) else [_number(b, what, error=error) for b in row]


def _flat(event_lists) -> tuple[np.ndarray, list]:
    """The window column and the flat list of the events of each list."""
    return (np.repeat(np.arange(len(event_lists)), list(map(len, event_lists))),
            list(chain.from_iterable(event_lists)))


class PulseSchedule:
    """Windows in time order on ``n_qubits`` qubits (a plain int >= 1), then
    the boundary final events; ``label`` is a str.  The constructor takes
    :class:`Window` and :class:`PulseEvent` rows and stores the arrays of the
    module docstring, in window order; equality compares the arrays.  A schedule
    is read back as those arrays or as its JSON (:func:`schedule_to_json`)."""

    def __init__(self, n_qubits, windows=(), final_events=(), label=""):
        windows = _tuple_of(windows, Window, "windows")
        events = [_tuple_of(w.events, PulseEvent, "events") for w in windows]
        window, flat = _flat([*events, _tuple_of(final_events, PulseEvent, "final_events")])
        self._store(n_qubits, label, [w.start_ns for w in windows],
                    [w.duration_ns for w in windows], [w.biases_mhz for w in windows],
                    [window, [e.kind for e in flat], [e.qubit for e in flat],
                     [e.data_index for e in flat]])

    @classmethod
    def _from_arrays(cls, *fields) -> PulseSchedule:
        schedule = object.__new__(cls)
        schedule._store(*fields)
        return schedule

    def _store(self, n_qubits, label, starts, durations, biases, events) -> None:
        """Type and check every field and store it read-only: the one check of a
        schedule value.  A list (from rows or a file) takes one pass over its values'
        types; only a list that fails it is checked value by value, to name the first
        bad window; then each bias row, by its bytes, becomes its profile.  A generator's
        ndarrays (biases as ``(profiles, profile_of)``) are typed: they are stored as is."""
        n_qubits = _integer(n_qubits, "n_qubits", low=1, error=ScheduleError)
        if type(label) is not str:
            raise ScheduleError(f"label must be a string, got {label!r}")
        n_windows = len(starts)
        if not isinstance(events, np.ndarray):
            starts = _column(starts, _only(starts, float), _number, "start_ns")
            durations = _column(durations, _only(durations, float), _number, "duration_ns", low=0)
            shared = {id(row): row for row in biases}.values()  # a file's repeats are one row
            rows = _column(biases, _only(shared, list, tuple)
                           and _only(chain.from_iterable(shared), float), _numbers, "biases_mhz")
            window, kind, qubit, data = events
            kind = _column(kind, _only(kind, str) and set(kind) <= _KIND_CODE.keys(), _kind,
                           "event kind", window, n_windows)
            qubit = _column(qubit, _only(qubit, int) and min(qubit, default=0) >= 0, _integer,
                            "event qubit", window, n_windows, low=0)
            data = _column(data, _only(data, int, type(None))
                           and min(set(data) - {None}, default=0) >= 0,
                           _integer, "event data_index", window, n_windows, low=0, nullable=True)
            events = [window, [_KIND_CODE[k] for k in kind], qubit,
                      [_NO_DATA if d is None else d for d in data]]
            if not set(map(len, rows)) <= {n_qubits}:
                k = next(len(row) for row in rows if len(row) != n_qubits)
                raise ScheduleError(f"window has {k} biases for n_qubits={n_qubits}")
            numbered, pack = {}, struct.Struct(f"{n_qubits if rows else 0}d").pack
            number = {i: numbered.setdefault(pack(*row), (len(numbered), row))[0]
                      for i, row in {id(row): row for row in rows}.items()}
            of = [number[id(row)] for row in rows]
            biases = [row for _, row in numbered.values()], of
        # only a window-less schedule may have more qubits than numpy can shape
        width = n_qubits if n_qubits <= np.iinfo(np.intp).max else 0
        (profiles, profile_of), starts, durations = biases, _frozen(starts), _frozen(durations)
        profiles = _frozen(profiles).reshape(len(profiles), width)
        profile_of = _frozen(profile_of, np.intp)
        for name, values in (("start_ns", starts), ("duration_ns", durations),
                             ("biases_mhz", profiles)):
            if not np.isfinite(values).all():
                at = tuple(np.argwhere(~np.isfinite(values))[0])
                w = at[0] if values.ndim == 1 else np.argmax(profile_of == at[0])  # its first use
                raise ScheduleError(f"window {w}: {name} must be finite, "
                                    f"got {values[at].item()!r}")
        if (durations < 0).any():
            i = np.flatnonzero(durations < 0)[0]
            raise ScheduleError(f"window {i}: duration_ns must be >= 0, "
                                f"got {durations[i].item()!r}")
        events = _table(events)
        window, kind, qubit, data = events.T
        for flagged, message in (
            ((kind == _INJECT) & (data == _NO_DATA), "inject event on qubit {q} has no data_index"),
            (qubit >= n_qubits, "{final}event qubit {q} out of range"),
            ((window == n_windows) & (kind < _INJECT),
             "final_events may only contain boundary events"),
            ((kind < _INJECT) & (data != _NO_DATA), "gate event on qubit {q} has a data_index"),
        ):
            if flagged.any():
                w, _, q, _ = events[np.flatnonzero(flagged)[0]].tolist()
                at = "" if w == n_windows else f"window {w}: "
                raise ScheduleError(at + message.format(final="" if at else "final ", q=q))
        # windows may touch within rounding: 1e-9 ns, or a few ulps of the time
        with np.errstate(over="ignore"):
            ends = starts[:-1] + durations[:-1]
        early = starts[1:] < ends - np.maximum(1e-9, 4 * sys.float_info.epsilon * abs(starts[1:]))
        if early.any():
            i = np.flatnonzero(early)[0]
            raise ScheduleError(f"window {i + 1} starts at {starts[i + 1].item()!r} ns, "
                                f"before the previous window ends at {ends[i].item()!r} ns")
        vars(self).update(n_qubits=n_qubits, label=label, starts=starts, durations=durations,
                          profiles=profiles, profile_of=profile_of, events=events)

    def __setattr__(self, name, value):
        raise AttributeError(f"PulseSchedule is read-only: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PulseSchedule):
            return NotImplemented
        return (self.n_qubits, self.label) == (other.n_qubits, other.label) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("starts", "durations", "events")) and np.array_equal(
            self.profiles[self.profile_of], other.profiles[other.profile_of])

    def __hash__(self):
        # + 0.0 turns -0.0, which equals 0.0, into 0.0
        floats = [(a + 0.0).tobytes() for a in (self.starts, self.durations)]
        return hash((self.n_qubits, self.label, self.events.shape, *floats))

    def __repr__(self):
        return f"PulseSchedule({self.n_qubits} qubits, {self.n_windows} windows, {self.label!r})"

    @property
    def n_windows(self) -> int:
        return len(self.starts)

    @property
    def makespan_ns(self) -> float:
        return self.starts[-1].item() + self.durations[-1].item() if self.n_windows else 0.0

    @property
    def pulse_count(self) -> int:
        return int(np.count_nonzero(self.pulsed))

    @cached_property
    def _cut(self) -> tuple[list, list]:
        """The one per-window cut of the event table: per window, the distinct
        qubits it pulses, ascending (a row of :attr:`pulsed`); and per window,
        then for the final events, its boundary ``[kind, qubit, data_index]``
        rows in table order (no data index as -1)."""
        window, qubit = np.nonzero(self.pulsed)
        cuts = np.searchsorted(window, np.arange(self.n_windows + 1)).tolist()
        qubits = qubit.tolist()
        kind = self.events[:, 1]
        rows = self.events[(kind == _INJECT) | (kind == _READ_RESET)]
        bounds = np.searchsorted(rows[:, 0], np.arange(self.n_windows + 2)).tolist()
        rows = rows[:, 1:].tolist()
        return ([qubits[a:b] for a, b in zip(cuts, cuts[1:])],
                [rows[a:b] for a, b in zip(bounds, bounds[1:])])

    @cached_property
    def replay(self) -> "ReplayResult":
        """:func:`replay_occupancy` of this schedule, computed on first use."""
        return replay_occupancy(self)

    @cached_property
    def pulsed(self) -> np.ndarray:
        """Read-only ``(n_windows, n_qubits)`` mask of the pulsed qubits."""
        gates = self.events[self.events[:, 1] < _INJECT]
        pulsed = np.zeros((self.n_windows, self.profiles.shape[1]), dtype=bool)
        pulsed[gates[:, 0].astype(np.intp), gates[:, 2].astype(np.intp)] = True
        pulsed.flags.writeable = False
        return pulsed


@dataclass(frozen=True)
class LineAssignment:
    """Which shared bias line drives each qubit (None = no line, e.g. an
    input qubit driven only by its initialisation hardware)."""

    lines: tuple[int | None, ...]
    n_lines: int

    def __post_init__(self):
        _set(self, "n_lines", _integer(self.n_lines, "lines.n_lines", low=0, error=ScheduleError))
        lines = _array(self.lines, "lines must be an array of integers or null")
        if not set(map(type, lines)) <= {int, type(None)}:
            lines = [_integer(line, f"line of qubit {q}", nullable=True, error=ScheduleError)
                     for q, line in enumerate(lines)]
        _set(self, "lines", tuple(lines))
        for q, line in enumerate(self.lines):
            if line is not None and not 0 <= line < self.n_lines:
                raise ScheduleError(f"qubit {q} assigned to line {line} of {self.n_lines}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _window_length(t_ns) -> float:
    t_ns = _number(t_ns, "t_ns", error=ScheduleError)
    if t_ns <= 0:
        raise ScheduleError(f"t_ns must be > 0, got {t_ns}")
    return t_ns


def _events(window, kind: int, qubit, data_index) -> np.ndarray:
    """Event table columns, one entry per ``window`` (the rest broadcast)."""
    return np.stack(np.broadcast_arrays(np.asarray(window, dtype=np.int64),
                                        kind, qubit, data_index))


def _line_schedule(spec: ChainSpec, lines: LineAssignment, targets: np.ndarray,
                   boundary: np.ndarray, t_ns: float, label: str):
    """Windows of ``t_ns`` from 0, window w pulsing the qubits of
    the bool row ``targets[w]`` after its ``boundary`` events (event table
    columns).  A qubit holds ``eps_high`` but while its line is pulsed; each
    generator gives a pulsed qubit a line of its own pulse value, ``+xi`` at
    the chain ends and 0 inside (:func:`line_conflict_check` checks it)."""
    n, n_windows = spec.n_qubits, len(targets)
    line = np.array([-1 if m is None else m for m in lines.lines])
    ends = np.isin(np.arange(n), (0, n - 1))
    value = np.zeros(lines.n_lines)
    value[line[ends & (line >= 0)]] = spec.xi_mhz
    window, qubit = np.nonzero(targets)
    line_pulsed = np.zeros((n_windows, lines.n_lines), dtype=bool)
    line_pulsed[window, line[qubit]] = True
    line_pulsed[:, value == spec.eps_high_mhz] = False  # its qubits' biases stay as they are
    code = line_pulsed @ (1 << np.arange(lines.n_lines))  # a window's profile (<= 8 lines)
    _, first, number = np.unique(code, return_index=True, return_inverse=True)
    profiles = np.where(line_pulsed[np.sort(first)][:, line] & (line >= 0), value[line],
                        spec.eps_high_mhz)
    # a window's boundary events first, in their given order, then its pulses by qubit:
    # an event follows the other kind's events of earlier windows (a pulse, of its own too)
    boundary = boundary[:, np.argsort(boundary[0], kind="stable")]
    events = np.empty((4, boundary.shape[1] + window.size), dtype=np.int64)
    events[:, np.arange(boundary.shape[1]) + np.searchsorted(window, boundary[0])] = boundary
    at = np.arange(window.size) + np.searchsorted(boundary[0], window, side="right")
    events[0, at], events[2, at], events[3, at] = window, qubit, _NO_DATA
    events[1, at] = np.where(ends[qubit], _READOUT, _CNOT)
    starts = np.arange(n_windows) * t_ns
    return PulseSchedule._from_arrays(n, label, starts, np.full(n_windows, t_ns),
                                      (profiles, np.argsort(np.argsort(first))[number]), events)


def _quantum_lines(n_qubits: int, line_mode: str) -> LineAssignment:
    """Shared-line map for the swapping wire.

    ``mod6``: six interior lines cycling with position, plus dedicated IN
    and OUT lines (8 provisioned regardless of chain length).  ``mod3``: the
    denser variant exploiting the data spacing, three interior lines plus IN
    and OUT (5 lines).
    """
    interior_lines = {"mod6": 6, "mod3": 3}.get(line_mode)
    if interior_lines is None:
        raise ScheduleError(f"unknown line_mode {line_mode!r}")
    interior = [(q - 1) % interior_lines for q in range(1, n_qubits - 1)]
    # IN and OUT follow the interior lines
    return LineAssignment([interior_lines, *interior, interior_lines + 1], interior_lines + 2)


def quantum_channel_schedule(spec: ChainSpec, n_states: int, t_ns: float, *,
                             line_mode: str = "mod6") -> tuple[PulseSchedule, LineAssignment]:
    """Pipelined swapping wire moving ``n_states`` qubit states end to end.

    Each macro-step is one swap triple applied simultaneously to every
    in-flight state; states are injected three macro-steps apart (the data
    spacing that keeps every swap's outer neighbours parked), and each is read
    and reset one window boundary after reaching the output qubit.
    """
    L = spec.n_qubits
    if L < 2:
        raise ScheduleError(f"wire needs at least 2 qubits, got {L}")
    n_states = _integer(n_states, "n_states", low=1, error=ScheduleError)
    t_ns = _window_length(t_ns)

    lines = _quantum_lines(L, line_mode)
    n_macro = 3 * (n_states - 1) + (L - 1)
    # at macro-step t = 3s + a, state s swaps the pair (a, a + 1): its three
    # windows pulse a, a + 1, a, cells t * 3L + a (+ L + 1, + 2L) of the targets
    s = np.arange(n_states)
    left = (9 * L * s[:, None] + (3 * L + 1) * np.arange(L - 1)).ravel()
    targets = np.zeros(n_macro * 3 * L, dtype=bool)
    targets[left] = targets[left + L + 1] = targets[left + 2 * L] = True
    # state s is injected at macro-step 3s and read at 3s + L - 1 (the last at the end)
    boundary = np.concatenate([_events(3 * (3 * s + L - 1), _READ_RESET, L - 1, s),
                               _events(9 * s, _INJECT, 0, s)], axis=1)
    return _line_schedule(spec, lines, targets.reshape(-1, L), boundary, t_ns,
                          "quantum-wire"), lines


def _classical_lines(n_qubits: int) -> LineAssignment:
    """Three shared lines: odd interiors, even interiors, and the output.
    The input qubit is driven by its initialisation hardware only."""
    interior = [0 if q % 2 else 1 for q in range(1, n_qubits - 1)]
    return LineAssignment(lines=[None, *interior, 2], n_lines=3)


def classical_channel_schedule(spec: ChainSpec, bits: Sequence[int],
                               t_ns: float) -> tuple[PulseSchedule, LineAssignment]:
    """Bit pipeline over an even chain: alternate copy pulses on the odd and
    even interiors, with the output pulsed alongside the odd group.

    Bit 0 enters at the first window; each later bit is re-prepared on the
    input qubit at the start of the second window of the previous repeat.  A
    bit written to the output is read and reset at the start of the NEXT
    repeat (its value must survive the even-group window in between, whose
    copies compare against it).  A bit is the int 0 or 1 (a numpy integer
    too), not a bool or a float.
    """
    L = spec.n_qubits
    if L < 4 or L % 2:
        raise ScheduleError(f"bit pipeline needs an even chain of >= 4 qubits, got {L}")
    bits = [_integer(b, f"bits[{i}]", low=0, high=1, error=ScheduleError) for i, b in enumerate(bits)]
    if not bits:
        raise ScheduleError("bits must be a non-empty sequence, got none")
    t_ns = _window_length(t_ns)

    latency = L // 2
    odd = np.arange(L) % 2 == 1  # the odd interiors and the output
    even = ~odd & (np.arange(L) > 0)  # the even interiors
    targets = np.tile(np.stack([odd, even]), (latency + len(bits) - 1, 1))
    # bit j is read at the first window of repeat j + latency (the last bit
    # after the last window); bit j + 1 is written in the second window of
    # repeat j, once the input qubit is reset
    j = np.arange(len(bits))
    boundary = np.concatenate([
        _events(2 * (j + latency), _READ_RESET, L - 1, j),
        _events([0], _INJECT, 0, 0),
        _events(2 * j[:-1] + 1, _READ_RESET, 0, _NO_DATA),
        _events(2 * j[:-1] + 1, _INJECT, 0, j[1:]),
    ], axis=1)
    lines = _classical_lines(L)
    return _line_schedule(spec, lines, targets, boundary, t_ns, "classical-wire"), lines


# ---------------------------------------------------------------------------
# symbolic replay and validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    window_index: int | None  # None = final_events
    kind: str
    qubits: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ReadRecord:
    window_index: int | None
    qubit: int
    data_index: int | None
    symbol: int | None  # the data index the qubit held; None = parked |0>
    z_parity: int = 0  # swaps of that data since its inject, mod 2: a Z each


@dataclass(frozen=True, eq=False)
class ReplayResult:
    """The replay's findings.  ``data_held`` is a read-only bool array of
    shape ``(n_windows, n_qubits)``: ``data_held[w, q]`` is True when qubit q
    holds data during window w, False when it is parked in |0>.  ``swaps``
    gives each swap triple's first window and the first qubit a of each of
    its pairs (a, a + 1).  (Compared by identity: an array has no single
    truth value.)"""

    violations: tuple[Violation, ...]
    data_held: np.ndarray
    reads: tuple[ReadRecord, ...]
    swaps: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _match_pairs(lefts: Sequence[int], mids: Sequence[int]) -> list[tuple[int, int]] | None:
    """Pair every first/third-window target with a unique adjacent
    second-window target; None if no perfect matching exists."""
    if len(lefts) != len(mids) or not lefts:
        return None
    remaining = set(mids)
    pairs = []
    for a in sorted(lefts):
        below = a - 1 in remaining
        if below == (a + 1 in remaining):  # no candidate, or two
            return None
        b = a - 1 if below else a + 1
        remaining.remove(b)
        pairs.append((min(a, b), max(a, b)))
    return pairs if not remaining else None


def _symbol_text(symbol: int | None) -> str:
    return "|0>" if symbol is None else f"data {symbol}"


def replay_occupancy(schedule: PulseSchedule) -> ReplayResult:
    """Symbolically execute a schedule from |0...0>, tracking per-qubit
    basis occupancy (:attr:`PulseSchedule.replay` keeps the result).

    A qubit's symbol is the data index it holds, or None while it is parked
    in |0>.  Three consecutive windows whose targets form the (A, B, A)
    exchange pattern, A and B disjoint, are swap triples (symbols exchanged,
    outer neighbours required to be parked); any other gate window is a copy
    pulse (target must equal its right-hand symbol, then takes the left-hand
    one; missing neighbours count as parked).  |0> is the only literal
    (read_reset parks a qubit, inject writes its data index, gates only move
    symbols), so a copy whose symbols differ is undecidable.  Inject into
    anything but a parked qubit, an undecidable comparison, a disturbed
    sacrificial qubit, or two neighbours pulsed in one copy window (each
    needs the other parked) each yield a violation.

    Each read records its data's swaps since the inject, mod 2
    (:attr:`ReadRecord.z_parity`): a swap leaves a Z on the data it moves, and
    a copy, which writes basis data, starts the count again.

    It reads targets and boundary rows from the schedule's one per-window cut
    (``PulseSchedule._cut``), which the runner shares.  In its flat
    per-qubit lists a window touches only its own qubits (a swap triple its
    pairs, a copy window its targets and their left neighbours), and it builds
    violation messages only when a one-pass check finds a violation.
    """
    n, n_windows = schedule.n_qubits, schedule.n_windows
    # per qubit, its data index (None = parked) and (-1)^(its data's swaps), 0
    # when parked or copied; the last slot, also read as index -1, is both ends'
    # missing neighbour.  A schedule without windows may have any n_qubits: dicts
    if n_windows:
        occ, sign, held = [None] * (n + 1), [0] * (n + 1), bytearray(n)
    else:
        occ, sign, held = defaultdict(type(None)), defaultdict(int), {}
    rows = bytearray()  # per window, 1 for each qubit holding data
    violations: list[Violation] = []
    reads: list[ReadRecord] = []
    swaps: list[tuple] = []

    targets, boundary = schedule._cut

    def run_boundary(w, i):
        for code, q, data in boundary[w]:
            data = None if data == _NO_DATA else data
            if code == _READ_RESET:
                reads.append(ReadRecord(i, q, data, occ[q], int(sign[q] < 0)))
                occ[q], sign[q], held[q] = None, 0, 0
                continue
            if occ[q] is not None:  # an inject
                violations.append(Violation(i, "inject_occupied", (q,), (
                    f"inject into qubit {q} holding {_symbol_text(occ[q])}")))
            occ[q], sign[q], held[q] = data, 1, 1

    pulsed = schedule.pulsed
    side_by_side = set(np.flatnonzero((pulsed[:, 1:] & pulsed[:, :-1]).any(axis=1)).tolist())
    i = 0
    while i < n_windows:
        run_boundary(i, i)
        t0 = targets[i]
        pairs = None
        if (t0 and i + 2 < n_windows and t0 == targets[i + 2]
                and not (boundary[i + 1] or boundary[i + 2])):
            pairs = _match_pairs(t0, targets[i + 1])
        if pairs is not None and set(t0).isdisjoint(targets[i + 1]):  # else a qubit in two pairs
            lefts = tuple([a for a, _ in pairs])
            swaps.append((i, lefts))
            # an outer neighbour is pulsed when the next pair starts two qubits on
            outers = [occ[a - 1] for a in lefts] + [occ[a + 2] for a in lefts]
            if outers.count(None) < len(outers) or 2 in map(int.__sub__, lefts[1:], lefts):
                all_targets = set(t0).union(targets[i + 1])
                for a, b in pairs:
                    for outer in (a - 1, b + 1):
                        if outer in all_targets:
                            state = "is pulsed"
                        elif occ[outer] is not None:
                            state = f"holds {_symbol_text(occ[outer])}"
                        else:
                            continue
                        violations.append(Violation(i, "sacrificial_occupied", (outer,), (
                            f"outer neighbour {outer} of pair ({a},{b}) {state}")))
            rows += held * 2
            for a in lefts:
                b = a + 1
                occ[a], occ[b] = occ[b], occ[a]
                sign[a], sign[b] = -sign[b], -sign[a]
                held[a], held[b] = held[b], held[a]
            rows += held
            i += 3
            continue
        # plain copy window (or an idle window with no targets)
        rows += held
        if i in side_by_side or [occ[q] for q in t0] != [occ[q + 1] for q in t0]:
            neighbours = set(t0) if i in side_by_side else ()
            for q in t0:
                if q + 1 in neighbours:
                    violations.append(Violation(i, "pulsed_neighbour", (q, q + 1), (
                        f"neighbours {q} and {q + 1} are pulsed in one window")))
                if occ[q] != occ[q + 1]:
                    violations.append(Violation(i, "indeterminate", (q,), (
                        f"cannot compare qubit {q} ({_symbol_text(occ[q])}) "
                        f"with its right neighbour ({_symbol_text(occ[q + 1])})")))
        # every target takes its left neighbour's symbol from before the window
        for q, symbol in zip(t0, [occ[q - 1] for q in t0]):
            occ[q], sign[q], held[q] = symbol, 0, symbol is not None
        i += 1

    run_boundary(n_windows, None)
    # an array over bytes is read-only
    data_held = np.frombuffer(bytes(rows), dtype=bool).reshape(pulsed.shape)
    return ReplayResult(violations=tuple(violations), data_held=data_held, reads=tuple(reads),
                        swaps=tuple(swaps))


def validate_sacrificial(schedule: PulseSchedule) -> tuple[Violation, ...]:
    """All occupancy-discipline violations of a schedule (empty = valid)."""
    return schedule.replay.violations


@dataclass(frozen=True)
class LineCheckReport:
    ok: bool
    problems: tuple[str, ...]


def line_conflict_check(schedule: PulseSchedule, assignment: LineAssignment) -> LineCheckReport:
    """Can this schedule really be driven through the shared lines?

    Checks, per window: all qubits on one line carry one bias value; every
    pulsed qubit has a line; and no qubit holding data sits on a line that
    is being pulsed (collateral pulses are only harmless on parked |0>
    qubits).

    The checks run on the profile rows (bias conflicts) and ``(n_windows, n_qubits)``
    masks, the lines in use numbered densely (a file may give any line below any
    ``n_lines``); only a window with a problem is visited one qubit at a time, for its
    messages: bias conflicts by line, unlined pulsed qubits, data qubits on pulsed lines.
    """
    problems: list[str] = []
    lines = assignment.lines
    if len(lines) != schedule.n_qubits:
        problem = f"line map covers {len(lines)} qubits, schedule has {schedule.n_qubits}"
        return LineCheckReport(ok=False, problems=(problem,))
    replay = schedule.replay
    for v in replay.violations:
        problems.append(f"occupancy violation at window {v.window_index}: {v.message}")
    in_use = sorted({line for line in lines if line is not None})
    rank = {line: k for k, line in enumerate(in_use)}
    rank_of = np.array([rank.get(line, -1) for line in lines], dtype=np.intp)
    profiles, profile_of, pulsed = schedule.profiles, schedule.profile_of, schedule.pulsed
    conflict = np.zeros((len(profiles), len(in_use)), dtype=bool)
    shares = np.zeros_like(pulsed)
    for g in range(len(in_use)):  # one line's columns at a time
        members = np.flatnonzero(rank_of == g)
        values = profiles[:, members]
        conflict[:, g] = values.min(axis=1) != values.max(axis=1)
        shares[:, members] = pulsed[:, members].any(axis=1, keepdims=True)
    shares &= replay.data_held & ~pulsed
    unlined = pulsed & (rank_of < 0)
    flagged = conflict.any(axis=1)[profile_of] | unlined.any(axis=1) | shares.any(axis=1)
    for i in np.flatnonzero(flagged).tolist():
        row = profiles[profile_of[i]].tolist()
        for g in np.flatnonzero(conflict[profile_of[i]]).tolist():
            values = {row[q] for q in np.flatnonzero(rank_of == g).tolist()}
            problems.append(f"window {i}: line {in_use[g]} would need biases {sorted(values)}")
        for q in np.flatnonzero(unlined[i]).tolist():
            problems.append(f"window {i}: pulsed qubit {q} has no line")
        for q in np.flatnonzero(shares[i]).tolist():
            problems.append(f"window {i}: qubit {q} holds data but shares pulsed line {lines[q]}")
    return LineCheckReport(ok=not problems, problems=tuple(problems))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def _json_value(v) -> str:
    """``v`` (None, a str, an int or a finite float) as ``json.dumps`` writes it."""
    if v is None:
        return "null"
    if type(v) is str:
        return encode_basestring_ascii(v)
    return repr(v)


def _json_list(items: list[str], pad: str) -> str:
    """A JSON array of already written ``items``, opened on a line at ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_event(event: list, pad: str) -> str:
    """An entry's ``(kind, qubit, data_index)`` as an object opened at ``pad``."""
    kind, qubit, data_index = event
    data = "null" if data_index == _NO_DATA else repr(data_index)
    return (f'{{\n{pad}  "data_index": {data},\n{pad}  "kind": "{EVENT_KINDS[kind]}",'
            f'\n{pad}  "qubit": {qubit!r}\n{pad}}}')


class _Floats(dict):
    """Each number text's float, parsed once while the text repeats."""

    def __missing__(self, text):
        if len(self) >= _CACHED_NUMBERS:
            self.clear()
        value = self[text] = float(text)
        return value


def _json_parts(schedule: PulseSchedule, assignment: LineAssignment | None) -> Iterator[str]:
    """The text of :func:`schedule_to_json`, part by part."""
    cuts = np.searchsorted(schedule.events[:, 0], np.arange(schedule.n_windows + 1)).tolist()
    final = [_json_event(e, "    ") for e in schedule.events[cuts[-1]:, 1:].tolist()]
    lines = "null" if assignment is None else (
        f'{{\n    "map": {_json_list(list(map(_json_value, assignment.lines)), "    ")},'
        f'\n    "n_lines": {_json_value(assignment.n_lines)}\n  }}')
    head = (
        f'{{\n  "final_events": {_json_list(final, "  ")},'
        f'\n  "format": {_json_value(_FORMAT_TAG)},'
        f'\n  "label": {_json_value(schedule.label)},'
        f'\n  "lines": {lines},'
        f'\n  "n_qubits": {_json_value(schedule.n_qubits)}'
    )
    if not schedule.n_windows:
        yield head + ',\n  "windows": []\n}\n'
        return
    # an event's number among the distinct entries, by its code kind + k * qubit
    # + k * n_qubits * (data_index + 1) for k kinds (Python ints past int64)
    radix = len(EVENT_KINDS) * schedule.n_qubits
    entries = schedule.events[:cuts[-1], 1:]
    if radix * (int(entries[:, 2].max(initial=0)) + 2) > np.iinfo(np.int64).max:
        entries = entries.astype(object)
    codes = entries[:, 0] + len(EVENT_KINDS) * entries[:, 1] + radix * (entries[:, 2] + 1)
    _, first, number = np.unique(codes, return_index=True, return_inverse=True)
    # an item of the top-level "windows" array: brace at 4 spaces, keys at 6
    texts = [_json_event(e, "        ") for e in entries[first].tolist()]
    bias_texts = [_json_list(list(map(repr, row)), "      ") for row in schedule.profiles.tolist()]
    close = head + _OPEN
    for p, duration, a, b, start in zip(schedule.profile_of.tolist(), schedule.durations.tolist(),
                                        cuts, cuts[1:], schedule.starts.tolist()):
        yield from (close, bias_texts[p], _KEYS[0], repr(duration), _KEYS[1],
                    _json_list(list(map(texts.__getitem__, number[a:b].tolist())), "      "),
                    _KEYS[2], repr(start))
        close = _NEXT
    yield _END


def schedule_to_json(schedule: PulseSchedule, assignment: LineAssignment | None = None) -> str:
    """Canonical JSON text (stable bytes for identical schedules).

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"`` for the schedule document, written directly:
    the fixed schema's keys are spelled out in sorted order, each distinct
    event entry and each bias profile is written once, and the parts of
    :func:`_json_parts` (which the CLI writes one by one) are joined once.
    The schedule holds only str, int and finite float values, so every value
    has one spelling.
    """
    return "".join(_json_parts(schedule, assignment))


def _by_layout(text: str, decode) -> tuple[dict, tuple]:
    """The head object and ``(starts, durations, biases, events)`` columns of a text in
    :func:`_json_parts`' layout: the head decoded as ``text[:cut] + "}"``, then each window's
    four values, each distinct piece decoded once inside three arrays (its depth in the file,
    so the recursion limit falls as for the whole text).  Every separator holds a newline,
    which no JSON string or number can, and the non-empty head and each piece decode whole:
    this is the text's parse.  ValueError where a cut or a decode fails."""
    if not isinstance(text, str) or not text.endswith(_END):
        raise ValueError("not in the writer's layout")
    cut, stop = text.index(_OPEN), len(text) - len(_END)
    head = decode(text[:cut] + "}")
    if type(head) is not dict or not head:
        raise ValueError("not in the writer's layout")
    pieces, columns, at = {}, ([], [], [], []), cut + len(_OPEN)
    while at <= stop:
        for column, sep in zip(columns, (*_KEYS, _NEXT)):
            end = text.find(sep, at, stop) if sep is _NEXT else text.index(sep, at, stop)
            end = stop if end < 0 else end  # only the last window's start runs on to the end
            piece = text[at:end]
            if piece not in pieces:  # a membership test: null decodes to None
                ((pieces[piece],),), = decode(f"[[[{piece}]]]")  # one value, or ValueError
            column.append(pieces[piece])
            at = end + len(sep)
    biases, durations, events, starts = columns
    return head, (starts, durations, biases, events)


def schedule_from_json(text: str) -> tuple[PulseSchedule, LineAssignment | None]:
    """Parse a schedule file.  Every field must have its JSON type (integers for
    ``n_qubits``, qubits, data indices and lines, numbers for times and biases, a string
    ``label``, arrays for ``windows``, ``final_events`` and a window's ``events``): nothing
    is coerced.  A file in the writer's layout is read piece by piece (:func:`_by_layout`);
    any other text is decoded whole, with one result and one message either way.  A number
    text repeated in the file is one float.  The parser only finds each field's values and
    drops the document; :class:`PulseSchedule` checks them."""
    floats = _Floats()
    try:
        obj, columns = _by_layout(text, json.JSONDecoder(parse_float=floats.__getitem__).decode)
    except (ValueError, RecursionError):
        try:
            obj, columns = json.loads(text, parse_float=floats.__getitem__), None
        except (ValueError, RecursionError) as exc:  # also an integer past the digit limit
            raise ScheduleError(f"schedule file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != _FORMAT_TAG:
        raise ScheduleError(f"not a {_FORMAT_TAG} document")
    try:
        n_qubits = obj["n_qubits"]
        if columns is None:  # decoded whole
            windows = _array(obj["windows"], "windows must be an array")
            columns = [[w[key] for w in windows]
                       for key in ("start_ns", "duration_ns", "biases_mhz", "events")]
            del windows
        starts, durations, biases, events = columns
        events = [e if type(e) is list else _array(e, f"window {i}: events must be an array")
                  for i, e in enumerate(events)]
        window, flat = _flat([*events, _array(obj["final_events"], "final_events must be an array")])
        kinds, qubits = ([e[key] for e in flat] for key in ("kind", "qubit"))
        columns = [window, kinds, qubits, [e.get("data_index") for e in flat]]
        label, lines_obj = obj.get("label", ""), obj.get("lines")
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc
    del obj, events, flat
    schedule = PulseSchedule._from_arrays(n_qubits, label, starts, durations, biases, columns)
    if lines_obj is None:
        return schedule, None
    try:
        return schedule, LineAssignment(lines=lines_obj["map"], n_lines=lines_obj["n_lines"])
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed line assignment: {exc}") from exc
