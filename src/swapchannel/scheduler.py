"""Pulse-schedule generation, symbolic validation and serialisation.

A schedule is a sequence of constant-bias windows.  Boundary events (inject,
read_reset) fire at the START of their window, before any evolution; gate
events (cnot_pulse, readout_pulse) name the qubits intentionally pulsed for
the whole window.  ``final_events`` fire after the last window.

The symbolic replay tracks which basis value (or which in-flight data symbol)
every qubit holds at every window, which is what the sacrificial-qubit rules,
the line-sharing rules and the idle-phase frame corrections all need.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Sequence

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


@dataclass(frozen=True)
class PulseEvent:
    """One event: a pulse on a qubit, or a boundary init/read on it.

    ``data_index`` ties inject/read_reset events to a logical data item so
    runners can pair outputs with inputs.
    """

    kind: str
    qubit: int
    data_index: int | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ScheduleError(f"unknown event kind {self.kind!r}")
        if self.qubit < 0:
            raise ScheduleError(f"event qubit must be >= 0, got {self.qubit}")


@dataclass(frozen=True)
class Window:
    start_ns: float
    duration_ns: float
    biases_mhz: tuple[float, ...]
    events: tuple[PulseEvent, ...] = ()

    def gate_targets(self) -> tuple[int, ...]:
        return tuple(e.qubit for e in self.events if e.kind in GATE_KINDS)

    def boundary_events(self) -> tuple[PulseEvent, ...]:
        return tuple(e for e in self.events if e.kind in BOUNDARY_KINDS)


@dataclass(frozen=True)
class PulseSchedule:
    n_qubits: int
    windows: tuple[Window, ...]
    final_events: tuple[PulseEvent, ...] = ()
    label: str = ""

    def __post_init__(self):
        for w in self.windows:
            if len(w.biases_mhz) != self.n_qubits:
                raise ScheduleError(
                    f"window has {len(w.biases_mhz)} biases for n_qubits={self.n_qubits}"
                )
            for e in w.events:
                if e.qubit >= self.n_qubits:
                    raise ScheduleError(f"event qubit {e.qubit} out of range")
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


@dataclass(frozen=True)
class LineAssignment:
    """Which shared bias line drives each qubit (None = no line, e.g. an
    input qubit driven only by its initialisation hardware)."""

    lines: tuple[int | None, ...]
    n_lines: int

    def __post_init__(self):
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
    extra_events: Sequence[PulseEvent] = (),
    lines: LineAssignment | None = None,
) -> Window:
    """One window pulsing ``targets``; biases driven per line when given."""
    if lines is None:
        biases = list(spec.hold_biases())
        for q in targets:
            biases[q] = _pulse_bias(spec, q)
    else:
        value: dict[int, float] = {}
        for q in targets:
            line = lines.lines[q]
            if line is None:
                raise ScheduleError(f"pulsed qubit {q} has no line")
            v = _pulse_bias(spec, q)
            if line in value and value[line] != v:
                raise ScheduleError(f"line {line} asked for two pulse values")
            value[line] = v
        biases = [
            value.get(lines.lines[q], float(spec.eps_high_mhz))
            if lines.lines[q] is not None
            else float(spec.eps_high_mhz)
            for q in range(spec.n_qubits)
        ]
    events = tuple(extra_events) + tuple(
        PulseEvent(kind=_pulse_kind(spec, q), qubit=q) for q in sorted(targets)
    )
    return Window(
        start_ns=start_ns,
        duration_ns=t_ns,
        biases_mhz=tuple(biases),
        events=events,
    )


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
    windows = tuple(
        _window(spec, start_ns + i * t_ns, t_ns, [q])
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
    lines: list[int | None] = []
    for q in range(n_qubits):
        if q == 0:
            lines.append(interior_lines)  # IN line
        elif q == n_qubits - 1:
            lines.append(interior_lines + 1)  # OUT line
        else:
            lines.append((q - 1) % interior_lines)
    return LineAssignment(lines=tuple(lines), n_lines=n_lines)


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
                    extra_events=tuple(boundary) if i == 0 else (),
                    lines=lines,
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
    lines: list[int | None] = []
    for q in range(n_qubits):
        if q == 0:
            lines.append(None)
        elif q == n_qubits - 1:
            lines.append(2)
        elif q % 2 == 1:
            lines.append(0)
        else:
            lines.append(1)
    return LineAssignment(lines=tuple(lines), n_lines=3)


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
                extra_events=tuple(first),
                lines=lines,
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
                extra_events=tuple(second),
                lines=lines,
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
    symbol: "int | tuple[str, int]"


@dataclass(frozen=True)
class ReplayResult:
    violations: tuple[Violation, ...]
    window_occupancy: tuple[tuple["int | tuple[str, int]", ...], ...]
    reads: tuple[ReadRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _sym_eq(a, b):
    """True / False when decidable, None when the symbols are incomparable."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if a == b:
        return True
    return None


def _match_pairs(lefts: Sequence[int], mids: Sequence[int]) -> list[tuple[int, int]] | None:
    """Pair every first/third-window target with a unique adjacent
    second-window target; None if no perfect matching exists."""
    if len(lefts) != len(mids) or not lefts:
        return None
    remaining = set(mids)
    pairs = []
    for a in sorted(lefts):
        cands = {a - 1, a + 1} & remaining
        if len(cands) != 1:
            return None
        b = cands.pop()
        remaining.remove(b)
        pairs.append((min(a, b), max(a, b)))
    return pairs if not remaining else None


def replay_occupancy(
    schedule: PulseSchedule,
    initial_occupancy: Sequence[int] | None = None,
) -> ReplayResult:
    """Symbolically execute a schedule, tracking per-qubit basis occupancy.

    Three consecutive windows whose targets form the (A, B, A) exchange
    pattern are interpreted as swap triples (occupancy exchanged, outer
    neighbours required to be literal |0>); any other gate window is a copy
    pulse (target must equal its right-hand symbol, then takes the left-hand
    one; missing neighbours count as |0>).  Inject into anything but literal
    |0>, an undecidable comparison, or a disturbed sacrificial qubit each
    yield a violation.
    """
    n = schedule.n_qubits
    occ: list = list(initial_occupancy) if initial_occupancy is not None else [0] * n
    if len(occ) != n or any(s not in (0, 1) for s in occ):
        raise ScheduleError("initial_occupancy must list 0/1 for every qubit")

    violations: list[Violation] = []
    reads: list[ReadRecord] = []
    per_window: list[tuple] = []

    def run_boundary(events, window_index):
        for e in events:
            if e.kind == "read_reset":
                reads.append(
                    ReadRecord(
                        window_index=window_index,
                        qubit=e.qubit,
                        data_index=e.data_index,
                        symbol=occ[e.qubit],
                    )
                )
                occ[e.qubit] = 0
            elif e.kind == "inject":
                if occ[e.qubit] != 0:
                    violations.append(
                        Violation(
                            window_index=window_index,
                            kind="inject_occupied",
                            qubits=(e.qubit,),
                            message=f"inject into qubit {e.qubit} holding {occ[e.qubit]!r}",
                        )
                    )
                occ[e.qubit] = ("data", e.data_index)

    def left_of(q):
        return occ[q - 1] if q > 0 else 0

    def right_of(q):
        return occ[q + 1] if q < n - 1 else 0

    windows = schedule.windows
    i = 0
    while i < len(windows):
        run_boundary(windows[i].boundary_events(), i)
        t0 = set(windows[i].gate_targets())
        pairs = None
        if t0 and i + 2 < len(windows):
            t1 = set(windows[i + 1].gate_targets())
            t2 = set(windows[i + 2].gate_targets())
            clean = not (
                windows[i + 1].boundary_events() or windows[i + 2].boundary_events()
            )
            if clean and t0 == t2:
                pairs = _match_pairs(sorted(t0), sorted(t1))
        if pairs is not None:
            all_targets = t0 | set(windows[i + 1].gate_targets())
            for a, b in pairs:
                for outer in (a - 1, b + 1):
                    if not 0 <= outer < n:
                        continue
                    if outer in all_targets:
                        violations.append(
                            Violation(
                                window_index=i,
                                kind="sacrificial_occupied",
                                qubits=(outer,),
                                message=f"outer neighbour {outer} of pair ({a},{b}) is pulsed",
                            )
                        )
                    elif occ[outer] != 0:
                        violations.append(
                            Violation(
                                window_index=i,
                                kind="sacrificial_occupied",
                                qubits=(outer,),
                                message=(
                                    f"outer neighbour {outer} of pair ({a},{b}) "
                                    f"holds {occ[outer]!r}"
                                ),
                            )
                        )
            per_window.append(tuple(occ))
            per_window.append(tuple(occ))
            for a, b in pairs:
                occ[a], occ[b] = occ[b], occ[a]
            per_window.append(tuple(occ))
            i += 3
            continue
        # plain copy window (or an idle window with no targets)
        per_window.append(tuple(occ))
        updates = {}
        for q in sorted(t0):
            eq = _sym_eq(occ[q], right_of(q))
            if eq is None:
                violations.append(
                    Violation(
                        window_index=i,
                        kind="indeterminate",
                        qubits=(q,),
                        message=(
                            f"cannot compare qubit {q} ({occ[q]!r}) with its right "
                            f"neighbour ({right_of(q)!r})"
                        ),
                    )
                )
            elif not eq:
                violations.append(
                    Violation(
                        window_index=i,
                        kind="copy_precondition",
                        qubits=(q,),
                        message=(
                            f"copy pulse on qubit {q} ({occ[q]!r}) whose right "
                            f"neighbour holds {right_of(q)!r}"
                        ),
                    )
                )
            updates[q] = left_of(q)
        for q, v in updates.items():
            occ[q] = v
        i += 1

    run_boundary(schedule.final_events, None)
    return ReplayResult(
        violations=tuple(violations),
        window_occupancy=tuple(per_window),
        reads=tuple(reads),
    )


def validate_sacrificial(
    schedule: PulseSchedule, initial_occupancy: Sequence[int] | None = None
) -> tuple[Violation, ...]:
    """All occupancy-discipline violations of a schedule (empty = valid)."""
    return replay_occupancy(schedule, initial_occupancy).violations


@dataclass(frozen=True)
class LineCheckReport:
    ok: bool
    problems: tuple[str, ...]


def line_conflict_check(
    schedule: PulseSchedule,
    assignment: LineAssignment,
    initial_occupancy: Sequence[int] | None = None,
) -> LineCheckReport:
    """Can this schedule really be driven through the shared lines?

    Checks, per window: all qubits on one line carry one bias value; every
    pulsed qubit has a line; and no qubit holding data (or a |1>) sits on a
    line that is being pulsed (collateral pulses are only harmless on parked
    |0> qubits).
    """
    problems: list[str] = []
    if len(assignment.lines) != schedule.n_qubits:
        return LineCheckReport(
            ok=False,
            problems=(
                f"line map covers {len(assignment.lines)} qubits, "
                f"schedule has {schedule.n_qubits}",
            ),
        )
    replay = replay_occupancy(schedule, initial_occupancy)
    for v in replay.violations:
        problems.append(f"occupancy violation at window {v.window_index}: {v.message}")
    for i, w in enumerate(schedule.windows):
        by_line: dict[int, set[float]] = {}
        for q, line in enumerate(assignment.lines):
            if line is not None:
                by_line.setdefault(line, set()).add(w.biases_mhz[q])
        for line, values in sorted(by_line.items()):
            if len(values) > 1:
                problems.append(
                    f"window {i}: line {line} would need biases {sorted(values)}"
                )
        targets = set(w.gate_targets())
        pulsed_lines = set()
        for q in targets:
            if assignment.lines[q] is None:
                problems.append(f"window {i}: pulsed qubit {q} has no line")
            else:
                pulsed_lines.add(assignment.lines[q])
        occ = replay.window_occupancy[i]
        for q, line in enumerate(assignment.lines):
            if q in targets or line not in pulsed_lines:
                continue
            if occ[q] != 0:
                problems.append(
                    f"window {i}: qubit {q} holds {occ[q]!r} but shares pulsed line {line}"
                )
    return LineCheckReport(ok=not problems, problems=tuple(problems))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def _json_value(v, pad: str) -> str:
    """``v`` as ``json.dumps(..., indent=2, sort_keys=True, allow_nan=False)``
    writes it on a line indented by ``pad``."""
    if v is None:
        return "null"
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int or (t is float and math.isfinite(v)):
        return repr(v)
    # a subclass (bool, np.float64), nan or inf (ValueError), a container or a
    # type json refuses (TypeError): json itself decides
    text = json.dumps(v, indent=2, sort_keys=True, allow_nan=False)
    return text.replace("\n", "\n" + pad)


def _json_list(items: list[str], pad: str) -> str:
    """A JSON array of already written ``items``, opened on a line at ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_numbers(values, pad: str) -> str:
    """A JSON array of numbers: one ``float.__repr__`` join when every value is
    a finite float, else each value through :func:`_json_value`."""
    if len(values) == 0:
        return "[]"
    inner = "\n" + pad + "  "
    try:
        body = ("," + inner).join(map(float.__repr__, values))
    except TypeError:  # an int or a non-number among them
        body = None
    # no finite float's repr holds an "n"; "nan" and "inf" do
    if body is None or "n" in body:
        body = ("," + inner).join(_json_value(v, pad + "  ") for v in values)
    return "[" + inner + body + "\n" + pad + "]"


def _json_event(e: PulseEvent, pad: str) -> str:
    k = pad + "  "
    return (
        f'{{\n{k}"data_index": {_json_value(e.data_index, k)},'
        f'\n{k}"kind": {_json_value(e.kind, k)},'
        f'\n{k}"qubit": {_json_value(e.qubit, k)}\n{pad}}}'
    )


def _json_window(w: Window) -> str:
    # an item of the top-level "windows" array: brace at 4 spaces, keys at 6
    events = _json_list([_json_event(e, "        ") for e in w.events], "      ")
    return (
        f'{{\n      "biases_mhz": {_json_numbers(w.biases_mhz, "      ")},'
        f'\n      "duration_ns": {_json_value(w.duration_ns, "      ")},'
        f'\n      "events": {events},'
        f'\n      "start_ns": {_json_value(w.start_ns, "      ")}\n    }}'
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
    nesting level).  A value that is not a plain str, int, finite float or
    None is handed to ``json.dumps`` itself, so a non-finite float still
    raises ``ValueError`` and a type json refuses still raises ``TypeError``.
    """
    final = _json_list([_json_event(e, "    ") for e in schedule.final_events], "  ")
    if assignment is None:
        lines = "null"
    else:
        line_map = [_json_value(l, "      ") for l in assignment.lines]
        lines = (
            f'{{\n    "map": {_json_list(line_map, "    ")},'
            f'\n    "n_lines": {_json_value(assignment.n_lines, "    ")}\n  }}'
        )
    head = (
        f'{{\n  "final_events": {final},'
        f'\n  "format": {_json_value(_FORMAT_TAG, "  ")},'
        f'\n  "label": {_json_value(schedule.label, "  ")},'
        f'\n  "lines": {lines},'
        f'\n  "n_qubits": {_json_value(schedule.n_qubits, "  ")},'
        '\n  "windows": '
    )
    if not schedule.windows:
        return head + "[]\n}\n"
    parts = [head + "[\n    "]
    for w in schedule.windows:
        parts += (_json_window(w), ",\n    ")
    parts[-1] = "\n  ]\n}\n"
    return "".join(parts)


def _typed(value, types: tuple, what: str):
    """``value`` if its exact type is one of ``types`` (so a bool is no int)."""
    if type(value) not in types:
        kind = {int: "an integer", float: "a number", str: "a string"}[types[-1]]
        nullable = " or null" if type(None) in types else ""
        raise ScheduleError(f"{what} must be {kind}{nullable}, got {value!r}")
    return value


def _parse_event(obj: dict) -> PulseEvent:
    """One event object; ``qubit`` must be a JSON integer and ``data_index`` a
    JSON integer or null (not null on an inject)."""
    try:
        kind, qubit, data_index = obj["kind"], obj["qubit"], obj.get("data_index")
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed event object {obj!r}") from exc
    # json.loads gives exactly int for an integer; bool and float are refused
    if type(qubit) is not int:
        raise ScheduleError(f"event qubit must be an integer, got {qubit!r}")
    if data_index is not None and type(data_index) is not int:
        raise ScheduleError(
            f"event data_index must be an integer or null, got {data_index!r}"
        )
    if kind == "inject" and data_index is None:
        raise ScheduleError(f"inject event on qubit {qubit} has no data_index")
    return PulseEvent(kind=kind, qubit=qubit, data_index=data_index)


def _parse_window(obj: dict, index: int, previous_end_ns: float) -> Window:
    """One window object; refuses times and ``biases_mhz`` that are not JSON
    numbers, non-finite or negative times and biases, and a window that
    starts before the previous one ends (beyond 1e-9 ns)."""
    times = (("start_ns", obj["start_ns"]), ("duration_ns", obj["duration_ns"]))
    for name, value in times:
        if type(value) not in (int, float):
            raise ScheduleError(f"window {index}: {name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ScheduleError(f"window {index}: {name} must be finite, got {value!r}")
    start, duration = (float(value) for _, value in times)
    raw = obj["biases_mhz"]
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int, float}:
        bad = raw
        if isinstance(raw, list):
            bad = next(b for b in raw if type(b) not in (int, float))
        raise ScheduleError(
            f"window {index}: biases_mhz must be an array of numbers, got {bad!r}"
        )
    biases = tuple(map(float, raw))
    if not all(map(math.isfinite, biases)):
        bad = next(b for b in biases if not math.isfinite(b))
        raise ScheduleError(f"window {index}: biases_mhz must be finite, got {bad!r}")
    if duration < 0:
        raise ScheduleError(f"window {index}: duration_ns must be >= 0, got {duration!r}")
    if start < previous_end_ns - 1e-9:
        raise ScheduleError(
            f"window {index} starts at {start!r} ns, before the previous window "
            f"ends at {previous_end_ns!r} ns"
        )
    return Window(
        start_ns=start,
        duration_ns=duration,
        biases_mhz=biases,
        events=tuple(_parse_event(e) for e in obj["events"]),
    )


def schedule_from_json(text: str) -> tuple[PulseSchedule, LineAssignment | None]:
    """Parse a schedule file; every field must have its JSON type (integers
    for ``n_qubits``, qubits, data indices and lines, numbers for times and
    biases, a string ``label``), nothing is coerced."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"schedule file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != _FORMAT_TAG:
        raise ScheduleError(f"not a {_FORMAT_TAG} document")
    try:
        windows: list[Window] = []
        end_ns = -math.inf
        for i, w in enumerate(obj["windows"]):
            windows.append(_parse_window(w, i, end_ns))
            end_ns = windows[-1].start_ns + windows[-1].duration_ns
        schedule = PulseSchedule(
            n_qubits=_typed(obj["n_qubits"], (int,), "n_qubits"),
            windows=tuple(windows),
            final_events=tuple(_parse_event(e) for e in obj["final_events"]),
            label=_typed(obj.get("label", ""), (str,), "label"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ScheduleError):
            raise
        raise ScheduleError(f"malformed schedule document: {exc}") from exc
    lines_obj = obj.get("lines")
    assignment = None
    if lines_obj is not None:
        try:
            assignment = LineAssignment(
                lines=tuple(
                    _typed(l, (type(None), int), f"line of qubit {q}")
                    for q, l in enumerate(lines_obj["map"])
                ),
                n_lines=_typed(lines_obj["n_lines"], (int,), "lines.n_lines"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ScheduleError):
                raise
            raise ScheduleError(f"malformed line assignment: {exc}") from exc
    return schedule, assignment
