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

The four value types (:class:`PulseEvent`, :class:`Window`,
:class:`PulseSchedule`, :class:`LineAssignment`) own their field types: a
constructor stores plain ints, finite floats, strs and tuples, converting
numpy numbers and lists and refusing anything else with
:class:`ScheduleError`.  So the JSON parser only hands fields over, and the
writer spells every value one way.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .chain import ChainSpec

__all__ = [
    "ScheduleError",
    "GATE_KINDS",
    "BOUNDARY_KINDS",
    "PulseEvent",
    "Window",
    "PulseSchedule",
    "LineAssignment",
    "Violation",
    "ReadRecord",
    "ReplayResult",
    "LineCheckReport",
    "swap_pulses",
    "quantum_channel_schedule",
    "classical_channel_schedule",
    "replay_occupancy",
    "validate_sacrificial",
    "line_conflict_check",
    "schedule_to_json",
    "schedule_from_json",
]

GATE_KINDS = ("cnot_pulse", "readout_pulse")
BOUNDARY_KINDS = ("inject", "read_reset")
_ALL_KINDS = GATE_KINDS + BOUNDARY_KINDS + ("hold",)

_FORMAT_TAG = "swapchannel-schedule/1"


class ScheduleError(ValueError):
    """A schedule (or schedule request) that cannot be realised."""


_set = object.__setattr__
#: What a number field takes besides a float: ints and numpy reals (a bool,
#: although an int, is refused)
_REAL = (int, float, np.integer, np.floating)


def _integer(value, what: str, nullable: bool = False):
    """``value`` as a plain int (or None when ``nullable``): numpy integers
    are taken, bool, float and str are refused."""
    if type(value) is int or (nullable and value is None):
        return value
    if isinstance(value, (int, np.integer)) and type(value) is not bool:
        return int(value)
    null = " or null" if nullable else ""
    raise ScheduleError(f"{what} must be an integer{null}, got {value!r}")


def _finite(value, what: str, kind: str = "a number") -> float:
    """``value`` as a finite plain float: ints and numpy reals are taken,
    bool and str are refused, and so is a value past the float range."""
    if type(value) is not float:
        if not isinstance(value, _REAL) or type(value) is bool:
            raise ScheduleError(f"{what} must be {kind}, got {value!r}")
        try:
            value = float(value)
        except OverflowError as exc:
            raise ScheduleError(f"{what} must be finite: {exc}") from None
    if not math.isfinite(value):
        raise ScheduleError(f"{what} must be finite, got {value!r}")
    return value


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


def _biases(values) -> tuple[float, ...]:
    """``biases_mhz`` as a tuple of finite plain floats; an array of floats
    is taken with one type test and one finiteness pass, no call per bias."""
    values = _array(values, "biases_mhz must be an array of numbers")
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return tuple(values)
    return tuple(_finite(b, "biases_mhz", "an array of numbers") for b in values)


@dataclass(frozen=True)
class PulseEvent:
    """One event: a pulse on a qubit, or a boundary init/read on it.

    ``data_index`` ties inject/read_reset events to a logical data item so
    runners can pair outputs with inputs; an inject must name one, and no
    index is negative.
    """

    kind: str
    qubit: int
    data_index: int | None = None

    def __post_init__(self):
        if type(self.kind) is not str or self.kind not in _ALL_KINDS:
            raise ScheduleError(f"unknown event kind {self.kind!r}")
        if type(self.qubit) is not int:
            _set(self, "qubit", _integer(self.qubit, "event qubit"))
        if self.data_index is not None and type(self.data_index) is not int:
            _set(self, "data_index",
                 _integer(self.data_index, "event data_index", nullable=True))
        if self.qubit < 0:
            raise ScheduleError(f"event qubit must be >= 0, got {self.qubit}")
        if self.data_index is None:
            if self.kind == "inject":
                raise ScheduleError(f"inject event on qubit {self.qubit} has no data_index")
        elif self.data_index < 0:
            raise ScheduleError(f"event data_index must be >= 0, got {self.data_index}")


@dataclass(frozen=True)
class Window:
    """One window at a constant bias profile: finite float times and biases,
    and a duration >= 0."""

    start_ns: float
    duration_ns: float
    biases_mhz: tuple[float, ...]
    events: tuple[PulseEvent, ...] = ()

    def __post_init__(self):
        for name in ("start_ns", "duration_ns"):
            value = getattr(self, name)
            if type(value) is not float or not math.isfinite(value):
                _set(self, name, _finite(value, name))
        if self.duration_ns < 0:
            raise ScheduleError(f"duration_ns must be >= 0, got {self.duration_ns!r}")
        _set(self, "biases_mhz", _biases(self.biases_mhz))
        _set(self, "events", _tuple_of(self.events, PulseEvent, "events"))

    def gate_targets(self) -> tuple[int, ...]:
        return tuple(e.qubit for e in self.events if e.kind in GATE_KINDS)

    def boundary_events(self) -> tuple[PulseEvent, ...]:
        return tuple(e for e in self.events if e.kind in BOUNDARY_KINDS)


@dataclass(frozen=True)
class PulseSchedule:
    """Windows in time order on ``n_qubits`` qubits (a plain int >= 1), then
    the boundary ``final_events``; ``label`` is a str."""

    n_qubits: int
    windows: tuple[Window, ...]
    final_events: tuple[PulseEvent, ...] = ()
    label: str = ""

    def __post_init__(self):
        if type(self.n_qubits) is not int:
            _set(self, "n_qubits", _integer(self.n_qubits, "n_qubits"))
        if type(self.label) is not str:
            raise ScheduleError(f"label must be a string, got {self.label!r}")
        _set(self, "windows", _tuple_of(self.windows, Window, "windows"))
        _set(self, "final_events", _tuple_of(self.final_events, PulseEvent, "final_events"))
        if self.n_qubits < 1:
            raise ScheduleError(f"n_qubits must be >= 1, got {self.n_qubits}")
        end_ns = -math.inf
        for i, w in enumerate(self.windows):
            if len(w.biases_mhz) != self.n_qubits:
                raise ScheduleError(
                    f"window has {len(w.biases_mhz)} biases for n_qubits={self.n_qubits}"
                )
            for e in w.events:
                if e.qubit >= self.n_qubits:
                    raise ScheduleError(f"event qubit {e.qubit} out of range")
            # windows may touch within rounding: 1e-9 ns, or a few ulps of the time
            if w.start_ns < end_ns - max(1e-9, 4 * sys.float_info.epsilon * abs(w.start_ns)):
                raise ScheduleError(
                    f"window {i} starts at {w.start_ns!r} ns, before the previous "
                    f"window ends at {end_ns!r} ns"
                )
            end_ns = w.start_ns + w.duration_ns
        for e in self.final_events:
            if e.kind in GATE_KINDS:
                raise ScheduleError("final_events may only contain boundary events")
            if e.qubit >= self.n_qubits:
                raise ScheduleError(f"final event qubit {e.qubit} out of range")

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def makespan_ns(self) -> float:
        if not self.windows:
            return 0.0
        last = self.windows[-1]
        return last.start_ns + last.duration_ns

    @property
    def pulse_count(self) -> int:
        return sum(len(w.gate_targets()) for w in self.windows)

    @cached_property
    def replay(self) -> "ReplayResult":
        """:func:`replay_occupancy` of this schedule, computed on first use."""
        return replay_occupancy(self)

    @cached_property
    def pulsed(self) -> np.ndarray:
        """Read-only ``(n_windows, n_qubits)`` bool array: True where a window
        pulses a qubit."""
        rows, qubits = [], []
        for w, window in enumerate(self.windows):
            for e in window.events:
                if e.kind in GATE_KINDS:
                    rows.append(w)
                    qubits.append(e.qubit)
        pulsed = np.zeros((self.n_windows, self.n_qubits), dtype=bool)
        pulsed[rows, qubits] = True
        pulsed.flags.writeable = False
        return pulsed


@dataclass(frozen=True)
class LineAssignment:
    """Which shared bias line drives each qubit (None = no line, e.g. an
    input qubit driven only by its initialisation hardware)."""

    lines: tuple[int | None, ...]
    n_lines: int

    def __post_init__(self):
        if type(self.n_lines) is not int:
            _set(self, "n_lines", _integer(self.n_lines, "lines.n_lines"))
        lines = _array(self.lines, "lines must be an array of integers or null")
        if not set(map(type, lines)) <= {int, type(None)}:
            lines = [_integer(line, f"line of qubit {q}", nullable=True)
                     for q, line in enumerate(lines)]
        _set(self, "lines", tuple(lines))
        for q, line in enumerate(self.lines):
            if line is not None and not 0 <= line < self.n_lines:
                raise ScheduleError(f"qubit {q} assigned to line {line} of {self.n_lines}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _pulse_bias(spec: ChainSpec, qubit: int) -> float:
    """Pulse value: interior qubits to 0, end qubits to +xi (the virtual
    missing neighbour's worth)."""
    return spec.xi_mhz if qubit in (0, spec.n_qubits - 1) else 0.0


def _pulse_kind(spec: ChainSpec, qubit: int) -> str:
    return "readout_pulse" if qubit in (0, spec.n_qubits - 1) else "cnot_pulse"


def _window(
    spec: ChainSpec,
    start_ns: float,
    t_ns: float,
    targets: Sequence[int],
    lines: LineAssignment,
    extra_events: Sequence[PulseEvent] = (),
) -> Window:
    """One window pulsing ``targets``, its biases driven per line.  Each
    generator gives a pulsed qubit a line of its own pulse value (+xi at the
    ends, 0 inside), as :func:`line_conflict_check` checks on any schedule."""
    value = {lines.lines[q]: _pulse_bias(spec, q) for q in targets}
    # a qubit without a line is never pulsed: it holds at eps_high
    biases = [value.get(line, spec.eps_high_mhz) for line in lines.lines]
    events = tuple(extra_events) + tuple(
        PulseEvent(kind=_pulse_kind(spec, q), qubit=q) for q in sorted(targets)
    )
    return Window(start_ns=start_ns, duration_ns=t_ns, biases_mhz=biases, events=events)


def swap_pulses(
    spec: ChainSpec, left: int, right: int, t_ns: float, start_ns: float = 0.0
) -> PulseSchedule:
    """The three-window fragment exchanging two adjacent qubits.

    Pulse targets go (left, right, left); both outer neighbours (when they
    exist) must be parked in |0> for the exchange to hold, which is the
    validator's business, not this generator's.
    """
    if right != left + 1:
        raise ScheduleError(f"swap needs adjacent qubits, got ({left}, {right})")
    if not 0 <= left < right < spec.n_qubits:
        raise ScheduleError(f"qubits ({left}, {right}) out of range")
    if t_ns <= 0:
        raise ScheduleError(f"t_ns must be > 0, got {t_ns}")
    # a line per qubit: every unpulsed qubit holds at eps_high
    own_lines = LineAssignment(lines=tuple(range(spec.n_qubits)), n_lines=spec.n_qubits)
    windows = tuple(
        _window(spec, start_ns + i * t_ns, t_ns, [q], own_lines)
        for i, q in enumerate((left, right, left))
    )
    return PulseSchedule(
        n_qubits=spec.n_qubits, windows=windows, label=f"swap-{left}-{right}"
    )


def _quantum_lines(n_qubits: int, line_mode: str) -> LineAssignment:
    """Shared-line map for the swapping wire.

    ``mod6``: six interior lines cycling with position, plus dedicated IN
    and OUT lines (8 provisioned regardless of chain length).  ``mod3``: the
    denser variant exploiting the data spacing, three interior lines plus IN
    and OUT (5 lines).
    """
    if line_mode == "mod6":
        interior_lines, n_lines = 6, 8
    elif line_mode == "mod3":
        interior_lines, n_lines = 3, 5
    else:
        raise ScheduleError(f"unknown line_mode {line_mode!r}")
    interior = [(q - 1) % interior_lines for q in range(1, n_qubits - 1)]
    in_line, out_line = interior_lines, interior_lines + 1
    return LineAssignment(lines=[in_line, *interior, out_line], n_lines=n_lines)


def quantum_channel_schedule(
    spec: ChainSpec,
    n_states: int,
    t_ns: float,
    *,
    line_mode: str = "mod6",
) -> tuple[PulseSchedule, LineAssignment]:
    """Pipelined swapping wire moving ``n_states`` qubit states end to end.

    Each macro-step is one swap triple applied simultaneously to every
    in-flight state; states are injected three macro-steps apart (the data
    spacing that keeps every swap's outer neighbours parked), and each is read
    and reset one window boundary after reaching the output qubit.
    """
    L = spec.n_qubits
    if L < 2:
        raise ScheduleError(f"wire needs at least 2 qubits, got {L}")
    if n_states < 1:
        raise ScheduleError(f"n_states must be >= 1, got {n_states}")
    if t_ns <= 0:
        raise ScheduleError(f"t_ns must be > 0, got {t_ns}")

    lines = _quantum_lines(L, line_mode)
    n_macro = 3 * (n_states - 1) + (L - 1)
    windows: list[Window] = []
    for t in range(n_macro):
        boundary: list[PulseEvent] = []
        for s in range(n_states):
            if t == 3 * s + (L - 1):
                boundary.append(PulseEvent(kind="read_reset", qubit=L - 1, data_index=s))
            if t == 3 * s:
                boundary.append(PulseEvent(kind="inject", qubit=0, data_index=s))
        positions = [t - 3 * s for s in range(n_states) if 0 <= t - 3 * s <= L - 2]
        lefts = sorted(positions)
        rights = [p + 1 for p in lefts]
        for i, targets in enumerate((lefts, rights, lefts)):
            windows.append(
                _window(
                    spec,
                    (3 * t + i) * t_ns,
                    t_ns,
                    targets,
                    lines,
                    extra_events=tuple(boundary) if i == 0 else (),
                )
            )
    final = (
        PulseEvent(kind="read_reset", qubit=L - 1, data_index=n_states - 1),
    )
    schedule = PulseSchedule(
        n_qubits=L, windows=tuple(windows), final_events=final, label="quantum-wire"
    )
    return schedule, lines


def _classical_lines(n_qubits: int) -> LineAssignment:
    """Three shared lines: odd interiors, even interiors, and the output.
    The input qubit is driven by its initialisation hardware only."""
    interior = [0 if q % 2 else 1 for q in range(1, n_qubits - 1)]
    return LineAssignment(lines=[None, *interior, 2], n_lines=3)


def classical_channel_schedule(
    spec: ChainSpec, bits: Sequence[int], t_ns: float
) -> tuple[PulseSchedule, LineAssignment]:
    """Bit pipeline over an even chain: alternate copy pulses on the odd and
    even interiors, with the output pulsed alongside the odd group.

    Bit 0 enters at the first window; each later bit is re-prepared on the
    input qubit at the start of the second window of the previous repeat.  A
    bit written to the output is read and reset at the start of the NEXT
    repeat (its value must survive the even-group window in between, whose
    copies compare against it).
    """
    L = spec.n_qubits
    if L < 4 or L % 2:
        raise ScheduleError(f"bit pipeline needs an even chain of >= 4 qubits, got {L}")
    bits = list(bits)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ScheduleError(f"bits must be a non-empty 0/1 sequence, got {bits!r}")
    if t_ns <= 0:
        raise ScheduleError(f"t_ns must be > 0, got {t_ns}")

    lines = _classical_lines(L)
    odd_group = list(range(1, L - 1, 2))
    even_group = list(range(2, L - 1, 2))
    latency = L // 2
    n_seq = latency + len(bits) - 1

    windows: list[Window] = []
    for k in range(n_seq):
        first: list[PulseEvent] = []
        j = k - latency
        if 0 <= j < len(bits):
            first.append(PulseEvent(kind="read_reset", qubit=L - 1, data_index=j))
        if k == 0:
            first.append(PulseEvent(kind="inject", qubit=0, data_index=0))
        windows.append(
            _window(
                spec,
                (2 * k) * t_ns,
                t_ns,
                odd_group + [L - 1],
                lines,
                extra_events=tuple(first),
            )
        )
        second: list[PulseEvent] = []
        if k + 1 < len(bits):
            second.append(PulseEvent(kind="read_reset", qubit=0))
            second.append(PulseEvent(kind="inject", qubit=0, data_index=k + 1))
        windows.append(
            _window(
                spec,
                (2 * k + 1) * t_ns,
                t_ns,
                even_group,
                lines,
                extra_events=tuple(second),
            )
        )
    final = (
        PulseEvent(kind="read_reset", qubit=L - 1, data_index=len(bits) - 1),
    )
    schedule = PulseSchedule(
        n_qubits=L, windows=tuple(windows), final_events=final, label="classical-wire"
    )
    return schedule, lines


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
    holds data during window w, False when it is parked in |0>.  (Compared by
    identity: an array has no single truth value.)"""

    violations: tuple[Violation, ...]
    data_held: np.ndarray
    reads: tuple[ReadRecord, ...]

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
    exchange pattern are interpreted as swap triples (symbols exchanged,
    outer neighbours required to be parked); any other gate window is a copy
    pulse (target must equal its right-hand symbol, then takes the left-hand
    one; missing neighbours count as parked).  |0> is the only literal
    (read_reset parks a qubit, inject writes its data index, gates only move
    symbols), so a copy whose symbols differ is undecidable.  Inject into
    anything but a parked qubit, an undecidable comparison, or a disturbed
    sacrificial qubit each yield a violation.

    Each read records its data's swaps since the inject, mod 2
    (:attr:`ReadRecord.z_parity`): a swap leaves a Z on the data it moves, and
    a copy, which writes basis data, starts the count again.
    """
    n = schedule.n_qubits
    windows = schedule.windows
    # qubit -> the data index it holds; every other qubit is parked, and so
    # are the end qubits' missing neighbours -1 and n, which are never keys
    occ: dict[int, int] = {}
    z_parity: dict[int, int] = {}  # qubit -> z_parity of the data it holds
    rows: list[bytearray] = []  # per window, 1 for each qubit holding data

    violations: list[Violation] = []
    reads: list[ReadRecord] = []

    def snapshot():
        row = bytearray(n)
        for q in occ:
            row[q] = 1
        rows.append(row)

    def run_boundary(events, window_index):
        for e in events:
            if e.kind == "read_reset":
                reads.append(
                    ReadRecord(
                        window_index=window_index,
                        qubit=e.qubit,
                        data_index=e.data_index,
                        symbol=occ.pop(e.qubit, None),
                        z_parity=z_parity.pop(e.qubit, 0),
                    )
                )
            elif e.kind == "inject":
                if e.qubit in occ:
                    violations.append(
                        Violation(
                            window_index=window_index,
                            kind="inject_occupied",
                            qubits=(e.qubit,),
                            message=(
                                f"inject into qubit {e.qubit} holding "
                                f"{_symbol_text(occ[e.qubit])}"
                            ),
                        )
                    )
                occ[e.qubit] = e.data_index
                z_parity[e.qubit] = 0

    targets = [frozenset(w.gate_targets()) for w in windows]
    boundaries = [w.boundary_events() for w in windows]
    i = 0
    while i < len(windows):
        run_boundary(boundaries[i], i)
        t0 = targets[i]
        pairs = None
        if (t0 and i + 2 < len(windows) and t0 == targets[i + 2]
                and not (boundaries[i + 1] or boundaries[i + 2])):
            pairs = _match_pairs(sorted(t0), sorted(targets[i + 1]))
        if pairs is not None:
            all_targets = t0 | targets[i + 1]
            for a, b in pairs:
                for outer in (a - 1, b + 1):
                    if outer in all_targets:
                        state = "is pulsed"
                    elif outer in occ:
                        state = f"holds {_symbol_text(occ[outer])}"
                    else:
                        continue
                    violations.append(
                        Violation(
                            window_index=i,
                            kind="sacrificial_occupied",
                            qubits=(outer,),
                            message=f"outer neighbour {outer} of pair ({a},{b}) {state}",
                        )
                    )
            snapshot()
            rows.append(rows[-1])
            partner = {a: b for a, b in pairs} | {b: a for a, b in pairs}
            occ = {partner.get(q, q): symbol for q, symbol in occ.items()}
            z_parity = {partner.get(q, q): p ^ (q in partner) for q, p in z_parity.items()}
            snapshot()
            i += 3
            continue
        # plain copy window (or an idle window with no targets)
        snapshot()
        for q in sorted(t0):
            if occ.get(q) != occ.get(q + 1):
                violations.append(
                    Violation(
                        window_index=i,
                        kind="indeterminate",
                        qubits=(q,),
                        message=(
                            f"cannot compare qubit {q} ({_symbol_text(occ.get(q))}) "
                            f"with its right neighbour ({_symbol_text(occ.get(q + 1))})"
                        ),
                    )
                )
        # every target takes its left neighbour's symbol from before the window
        copied = {q: occ[q - 1] for q in t0 if q - 1 in occ}
        for q in t0:
            occ.pop(q, None)
            z_parity.pop(q, None)
        occ.update(copied)
        i += 1

    run_boundary(schedule.final_events, None)
    # numpy cannot shape even an empty array past its index range, which only
    # a window-less schedule can ask for: no biases bound its n_qubits
    width = n if n <= np.iinfo(np.intp).max else 0
    # an array over bytes is read-only
    held = np.frombuffer(b"".join(rows), dtype=bool).reshape(len(windows), width)
    return ReplayResult(violations=tuple(violations), data_held=held, reads=tuple(reads))


def validate_sacrificial(schedule: PulseSchedule) -> tuple[Violation, ...]:
    """All occupancy-discipline violations of a schedule (empty = valid)."""
    return schedule.replay.violations


@dataclass(frozen=True)
class LineCheckReport:
    ok: bool
    problems: tuple[str, ...]


def line_conflict_check(
    schedule: PulseSchedule, assignment: LineAssignment
) -> LineCheckReport:
    """Can this schedule really be driven through the shared lines?

    Checks, per window: all qubits on one line carry one bias value; every
    pulsed qubit has a line; and no qubit holding data sits on a line that
    is being pulsed (collateral pulses are only harmless on parked |0>
    qubits).

    The checks run on ``(n_windows, n_qubits)`` arrays, with the lines in
    use numbered densely in ascending order (a file may give any line below
    any ``n_lines``): a line's biases conflict where their minimum and maximum
    differ, and a line is pulsed where any of its qubits is.  Only a window
    with a problem is visited one qubit at a time, to write its messages: per
    window, the bias conflicts by line, the unlined pulsed qubits, then the
    data qubits on pulsed lines by qubit.
    """
    problems: list[str] = []
    lines = assignment.lines
    if len(lines) != schedule.n_qubits:
        return LineCheckReport(
            ok=False,
            problems=(
                f"line map covers {len(lines)} qubits, schedule has {schedule.n_qubits}",
            ),
        )
    replay = schedule.replay
    for v in replay.violations:
        problems.append(f"occupancy violation at window {v.window_index}: {v.message}")
    n, n_windows, windows = schedule.n_qubits, schedule.n_windows, schedule.windows
    in_use = sorted({line for line in lines if line is not None})
    rank = {line: k for k, line in enumerate(in_use)}
    rank_of = np.array([rank.get(line, -1) for line in lines], dtype=np.intp)
    # lined qubits grouped by rank (ascending qubits within a line)
    members = np.argsort(rank_of, kind="stable")[np.count_nonzero(rank_of < 0):]
    starts = np.searchsorted(rank_of[members], np.arange(len(in_use)))
    biases = np.array([w.biases_mhz for w in windows], dtype=float).reshape(n_windows, n)
    conflict = (np.minimum.reduceat(biases[:, members], starts, axis=1)
                != np.maximum.reduceat(biases[:, members], starts, axis=1))
    pulsed = schedule.pulsed
    line_pulsed = np.logical_or.reduceat(pulsed[:, members], starts, axis=1)
    shares = np.zeros_like(pulsed)
    shares[:, members] = line_pulsed[:, rank_of[members]]
    shares &= replay.data_held & ~pulsed
    unlined = pulsed & (rank_of < 0)
    flagged = conflict.any(axis=1) | unlined.any(axis=1) | shares.any(axis=1)
    for i in np.flatnonzero(flagged).tolist():
        w = windows[i]
        for g in np.flatnonzero(conflict[i]).tolist():
            values = {w.biases_mhz[q] for q in np.flatnonzero(rank_of == g).tolist()}
            problems.append(f"window {i}: line {in_use[g]} would need biases {sorted(values)}")
        for q in set(w.gate_targets()):
            if lines[q] is None:
                problems.append(f"window {i}: pulsed qubit {q} has no line")
        for q in np.flatnonzero(shares[i]).tolist():
            problems.append(
                f"window {i}: qubit {q} holds data but shares pulsed line {lines[q]}"
            )
    return LineCheckReport(ok=not problems, problems=tuple(problems))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def _json_value(v) -> str:
    """``v`` (None, a str, an int or a finite float, as the schedule types
    store every field) as ``json.dumps`` writes it."""
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


def _json_event(e: PulseEvent, pad: str) -> str:
    k = pad + "  "
    return (
        f'{{\n{k}"data_index": {_json_value(e.data_index)},'
        f'\n{k}"kind": {_json_value(e.kind)},'
        f'\n{k}"qubit": {_json_value(e.qubit)}\n{pad}}}'
    )


def _json_window(w: Window) -> str:
    # an item of the top-level "windows" array: brace at 4 spaces, keys at 6
    biases = _json_list(list(map(float.__repr__, w.biases_mhz)), "      ")
    events = _json_list([_json_event(e, "        ") for e in w.events], "      ")
    return (
        f'{{\n      "biases_mhz": {biases},'
        f'\n      "duration_ns": {_json_value(w.duration_ns)},'
        f'\n      "events": {events},'
        f'\n      "start_ns": {_json_value(w.start_ns)}\n    }}'
    )


def schedule_to_json(
    schedule: PulseSchedule, assignment: LineAssignment | None = None
) -> str:
    """Canonical JSON text (stable bytes for identical schedules).

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"`` for the schedule document, written directly:
    the fixed schema's keys are spelled out in sorted order, each window's
    biases are one ``float.__repr__`` join, and the windows go into the text
    in one final join (a megabyte-sized string is copied once, not once per
    nesting level).  The schedule types hold only None, str, int and finite
    float values, so every value has one spelling.
    """
    final = _json_list([_json_event(e, "    ") for e in schedule.final_events], "  ")
    if assignment is None:
        lines = "null"
    else:
        line_map = [_json_value(l) for l in assignment.lines]
        lines = (
            f'{{\n    "map": {_json_list(line_map, "    ")},'
            f'\n    "n_lines": {_json_value(assignment.n_lines)}\n  }}'
        )
    head = (
        f'{{\n  "final_events": {final},'
        f'\n  "format": {_json_value(_FORMAT_TAG)},'
        f'\n  "label": {_json_value(schedule.label)},'
        f'\n  "lines": {lines},'
        f'\n  "n_qubits": {_json_value(schedule.n_qubits)},'
        '\n  "windows": '
    )
    if not schedule.windows:
        return head + "[]\n}\n"
    parts = [head + "[\n    "]
    for w in schedule.windows:
        parts += (_json_window(w), ",\n    ")
    parts[-1] = "\n  ]\n}\n"
    return "".join(parts)


def _parse_event(obj: dict) -> PulseEvent:
    """One event object (:class:`PulseEvent` checks its fields)."""
    try:
        kind, qubit, data_index = obj["kind"], obj["qubit"], obj.get("data_index")
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed event object {obj!r}") from exc
    return PulseEvent(kind=kind, qubit=qubit, data_index=data_index)


def _parse_window(obj: dict, index: int) -> Window:
    """One window object (:class:`Window` checks its fields); an error names
    the window."""
    try:
        return Window(
            start_ns=obj["start_ns"],
            duration_ns=obj["duration_ns"],
            biases_mhz=obj["biases_mhz"],
            events=[_parse_event(e) for e in obj["events"]],
        )
    except ScheduleError as exc:
        raise ScheduleError(f"window {index}: {exc}") from None


def schedule_from_json(text: str) -> tuple[PulseSchedule, LineAssignment | None]:
    """Parse a schedule file.  The schedule types refuse what is not their
    field type, so every field must have its JSON type (integers for
    ``n_qubits``, qubits, data indices and lines, numbers for times and
    biases, a string ``label``): nothing is coerced."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScheduleError(f"schedule file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != _FORMAT_TAG:
        raise ScheduleError(f"not a {_FORMAT_TAG} document")
    try:
        schedule = PulseSchedule(
            n_qubits=obj["n_qubits"],
            windows=[_parse_window(w, i) for i, w in enumerate(obj["windows"])],
            final_events=[_parse_event(e) for e in obj["final_events"]],
            label=obj.get("label", ""),
        )
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc
    lines_obj = obj.get("lines")
    if lines_obj is None:
        return schedule, None
    try:
        return schedule, LineAssignment(lines=lines_obj["map"], n_lines=lines_obj["n_lines"])
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed line assignment: {exc}") from exc
