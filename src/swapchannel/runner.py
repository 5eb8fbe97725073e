"""Experiment drivers: execute schedules and report fidelities.

Both channel runners drive one engine, :func:`_execute`, which applies the
schedule window by window and reads, resets and injects at the boundaries;
a runner only grades or thresholds the reads.  It has two modes:

* ``reduced``: each intended pulse is the exact neighbour-conditioned
  two-level propagator at the window's bias for the pulsed qubit (parked
  qubits frozen).  For a solved phase-exact design it realises the ideal gate
  algebra bit for bit.  Wire runs keep the pure state as an exact
  matrix-product state (:class:`~swapchannel.mps.MPS`), whose bonds stay at
  dimension 2 on designed schedules, so a wire costs O(L), not O(2^L).  A
  reset keeps the read qubit's dominant local branch, so an entangled read
  shows in its purity; only injects refuse entanglement.
* ``full``: the complete (real symmetric) chain Hamiltonian, window by
  window, with every parked-bias imperfection included.  The run starts from
  a state vector and stays on it, windows and frame correction included,
  until the first boundary after window 0 that carries events; there it
  becomes a density matrix, because reads, resets and later injects act on
  qubits that are slightly entangled with the chain and mix the state.  A
  wire with no mid-run boundary (one state) is a vector until the final
  read.  Resets trace the qubit out.

Both the reduced pulses and the frame correction take their bias from
:func:`~swapchannel.chain.effective_bias`, ``bias + xi*sum z_nbr``.
Full-mode runs can interleave the analytic frame correction: per window, each
unpulsed qubit accrues a known z phase ``2*pi*effective_bias*T*1e-3`` from its
bias and its frozen literal neighbours; undoing it in software is what makes
superposition transfers phase-faithful at finite parking bias.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import (
    ChainSpec, _z_values, build_hamiltonian, effective_bias, phase_angle, wrap_phase
)
from .evolve import (
    QuantumState,
    apply_unitary,
    inject_state,
    propagator,
    reduced_state,
    reset_qubit,
)
from .gates import ideal_cnot, reduced_pulse_operator
from .mps import MPS
from .scheduler import PulseSchedule, ScheduleError, Window, replay_occupancy
from .solver import GateDesign

__all__ = [
    "GateReport",
    "CopyRow",
    "SweepPoint",
    "TransferRecord",
    "TransferReport",
    "ClassicalRecord",
    "ClassicalReport",
    "run_gate_experiment",
    "copy_truth_table",
    "sweep_eps_high",
    "infidelity_slope",
    "compute_frame_correction",
    "run_quantum_channel",
    "run_classical_channel",
]


# ---------------------------------------------------------------------------
# single-gate experiments on a 3-qubit test chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateReport:
    """Controlled-flip quality on a (parked, target, control) chain."""

    mode: str
    t_ns: float
    eps_high_mhz: float
    gate: np.ndarray  # 4x4 in |control, target> ordering, parked sector
    distance: float  # Frobenius distance to ideal, mod global + control phase
    truth_table: tuple[tuple[tuple[int, int], float], ...]
    worst_infidelity: float
    leakage: float
    superposition_fidelity: float


def _window_unitary(spec: ChainSpec, design: GateDesign, mode: str) -> np.ndarray:
    if spec.n_qubits != 3:
        raise ValueError(f"gate experiment runs on a 3-qubit chain, got {spec.n_qubits}")
    if mode == "reduced":
        return reduced_pulse_operator(
            spec.delta_mhz, spec.xi_mhz, 0.0, design.t_ns, has_left=True, has_right=True
        )
    if mode == "full":
        biases = [spec.eps_high_mhz, 0.0, spec.eps_high_mhz]
        return propagator(build_hamiltonian(spec, biases), design.t_ns)
    raise ValueError(f"unknown mode {mode!r}")


def run_gate_experiment(
    spec: ChainSpec, design: GateDesign, *, mode: str = "full"
) -> GateReport:
    """Pulse the middle qubit of a 3-qubit chain once and grade the result.

    Qubit 0 is the parked |0> neighbour, qubit 1 the target, qubit 2 the
    control.  The reported 4x4 gate is the parked-sector block in
    |control, target> ordering; its distance to the ideal controlled flip is
    minimised over one global phase and one control-frame z phase (both are
    free in any larger circuit).
    """
    u8 = _window_unitary(spec, design, mode)
    # parked sector (qubit 0 in |0>) from |target, control> to |control, target> order
    g = u8[:4, :4].reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    ideal = ideal_cnot().matrix
    b0 = np.sum(ideal[:2, :2].conj() * g[:2, :2])
    b1 = np.sum(ideal[2:, 2:].conj() * g[2:, 2:])
    norm2 = float(np.sum(np.abs(g) ** 2))
    distance = float(np.sqrt(max(0.0, norm2 + 4.0 - 2.0 * (abs(b0) + abs(b1)))))

    table = []
    worst = 0.0
    leakage = 0.0
    for c in (0, 1):
        for t in (0, 1):
            col = g[:, 2 * c + t]
            fid = float(abs(col[2 * c + (t ^ c)]) ** 2)
            table.append(((c, t), fid))
            worst = max(worst, 1.0 - fid)
            leakage = max(leakage, 1.0 - float(np.sum(np.abs(col) ** 2)))

    v = np.zeros(4, dtype=complex)
    v[0] = v[2] = 1.0 / np.sqrt(2.0)  # (|0> + |1>)_control x |0>_target
    out = g @ v
    want = ideal @ v
    denom = float(np.linalg.norm(out)) or 1.0
    sup_fid = float(abs(np.vdot(want, out)) ** 2) / denom**2

    g.flags.writeable = False
    return GateReport(
        mode=mode,
        t_ns=design.t_ns,
        eps_high_mhz=float(spec.eps_high_mhz),
        gate=g,
        distance=distance,
        truth_table=tuple(table),
        worst_infidelity=worst,
        leakage=leakage,
        superposition_fidelity=sup_fid,
    )


@dataclass(frozen=True)
class CopyRow:
    initial: tuple[int, int, int]
    expected: tuple[int, int, int]
    fidelity: float


def copy_truth_table(
    spec: ChainSpec, design: GateDesign, *, mode: str = "full"
) -> tuple[CopyRow, ...]:
    """Single-pulse copy on a 3-qubit chain (source, target, mirror).

    Valid initial rows have target == mirror; the pulse then rewrites the
    target with the source value.
    """
    u8 = _window_unitary(spec, design, mode)
    rows = []
    for src in (0, 1):
        for t in (0, 1):
            initial = (src, t, t)
            expected = (src, src, t)
            idx_in = (initial[0] << 2) | (initial[1] << 1) | initial[2]
            idx_out = (expected[0] << 2) | (expected[1] << 1) | expected[2]
            fid = float(abs(u8[idx_out, idx_in]) ** 2)
            rows.append(CopyRow(initial=initial, expected=expected, fidelity=fid))
    return tuple(rows)


@dataclass(frozen=True)
class SweepPoint:
    eps_high_mhz: float
    worst_infidelity: float
    distance: float


def sweep_eps_high(
    design: GateDesign, eps_grid: Sequence[float], *, mode: str = "full"
) -> tuple[SweepPoint, ...]:
    """Gate quality versus parking bias, all else fixed by the design."""
    points = []
    for eps in eps_grid:
        spec = ChainSpec(
            n_qubits=3,
            delta_mhz=design.delta_mhz,
            xi_mhz=design.xi_mhz,
            eps_high_mhz=float(eps),
        )
        report = run_gate_experiment(spec, design, mode=mode)
        points.append(
            SweepPoint(
                eps_high_mhz=float(eps),
                worst_infidelity=report.worst_infidelity,
                distance=report.distance,
            )
        )
    return tuple(points)


def infidelity_slope(points: Sequence[SweepPoint]) -> float:
    """Log-log slope of worst infidelity vs parking bias."""
    if len(points) < 2:
        raise ValueError("need at least two sweep points for a slope")
    x = np.log10([p.eps_high_mhz for p in points])
    y = np.log10([max(p.worst_infidelity, 1e-300) for p in points])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# frame correction
# ---------------------------------------------------------------------------


def compute_frame_correction(schedule: PulseSchedule, spec: ChainSpec) -> np.ndarray:
    """Per-window, per-qubit idle z-phase angles (radians).

    ``angles[w, q]`` is the phase a parked qubit q accrues during window w
    from its own bias plus the coupling to its frozen literal neighbours
    (pulsed or data-carrying neighbours contribute nothing; their effect is
    part of the gate).  Pulsed qubits get 0.  Undo with
    ``exp(+1j * angles[w, q] * sz_q)`` after evolving window w.

    Requires a replay-clean schedule: definite occupancy is what makes the
    neighbour signs well defined.

    All windows are done at once on ``(n_windows, n_qubits)`` arrays: a
    pulsed mask, the z value of each literal symbol (0 for data and pulsed
    qubits), one :func:`~swapchannel.chain.effective_bias` call and one
    :func:`~swapchannel.chain.phase_angle` call.  Each angle sees the same
    float operations in the same order as a per-qubit scalar computation,
    so the result is bit-identical to it.
    """
    replay = replay_occupancy(schedule)
    if replay.violations:
        first = replay.violations[0]
        raise ScheduleError(
            f"schedule fails occupancy replay ({len(replay.violations)} violations; "
            f"first: window {first.window_index}, {first.message})"
        )
    n, n_windows = schedule.n_qubits, schedule.n_windows
    windows = schedule.windows
    pulsed = np.zeros((n_windows, n), dtype=bool)
    for w, window in enumerate(windows):
        pulsed[w, list(window.gate_targets())] = True
    # z value of each literal neighbour; 0 for a data symbol or a pulsed qubit
    occupancy = itertools.chain.from_iterable(replay.window_occupancy)
    sign = np.array(
        [1 - 2 * s if isinstance(s, int) else 0 for s in occupancy], dtype=np.int64
    ).reshape(n_windows, n)
    sign[pulsed] = 0
    biases = np.fromiter(
        itertools.chain.from_iterable(window.biases_mhz for window in windows),
        dtype=float,
        count=n_windows * n,
    ).reshape(n_windows, n)
    durations = np.fromiter(
        (window.duration_ns for window in windows), dtype=float, count=n_windows
    )
    angles = phase_angle(effective_bias(biases, spec.xi_mhz, sign), durations[:, None])
    angles[pulsed] = 0.0
    return angles


def _frame_diagonal(angles_row: np.ndarray, n_qubits: int) -> np.ndarray:
    """Diagonal of exp(+i * sum_q angles[q] * sz_q) over the full space."""
    return np.exp(1j * (_z_values(n_qubits) * angles_row).sum(axis=1))


def _apply_frame(state: QuantumState, diag: np.ndarray) -> QuantumState:
    if state.kind == "pure":
        return QuantumState.pure(diag * state.data)
    rho = diag[:, None] * state.data * diag.conj()[None, :]
    return QuantumState(kind="mixed", data=rho, n_qubits=state.n_qubits)


# ---------------------------------------------------------------------------
# channel runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferRecord:
    data_index: int
    window_index: int | None  # None = read after the last window
    fidelity_raw: float
    fidelity_corrected: float
    phase_error_raw: float
    phase_error_corrected: float
    purity_raw: float
    purity_corrected: float


@dataclass(frozen=True)
class TransferReport:
    mode: str
    n_qubits: int
    n_states: int
    makespan_ns: float
    pulse_count: int
    records: tuple[TransferRecord, ...]
    final_trace: float

    @property
    def min_fidelity_raw(self) -> float:
        return min(r.fidelity_raw for r in self.records)

    @property
    def min_fidelity_corrected(self) -> float:
        return min(r.fidelity_corrected for r in self.records)


def _reduced_state(state: QuantumState | MPS, qubit: int) -> tuple[np.ndarray, float]:
    if isinstance(state, MPS):
        return state.reduced_state(qubit)
    return reduced_state(state, qubit)


def _inject(state: QuantumState | MPS, qubit: int, amplitudes, purity_tol: float):
    """``inject_state`` for either state; an MPS is updated in place."""
    if isinstance(state, MPS):
        state.inject(qubit, amplitudes, purity_tol=purity_tol)
        return state
    return inject_state(state, qubit, amplitudes, purity_tol=purity_tol)


def _reset(state: QuantumState | MPS, qubit: int):
    """Re-prepare a read qubit in |0>, even if it is still entangled."""
    if isinstance(state, MPS):
        return _inject(state, qubit, (1.0, 0.0), purity_tol=1.0)
    return reset_qubit(state, qubit)


def _reduced_pulse_cache(spec: ChainSpec):
    """``op_for(qubit, window)``: the pulse operator at the window's bias for
    that qubit, and the first qubit it acts on."""
    cache: dict[tuple, np.ndarray] = {}

    def op_for(qubit: int, window: Window) -> tuple[np.ndarray, int]:
        has_left = qubit > 0
        has_right = qubit < spec.n_qubits - 1
        key = (has_left, has_right, window.biases_mhz[qubit], window.duration_ns)
        if key not in cache:
            cache[key] = reduced_pulse_operator(
                spec.delta_mhz,
                spec.xi_mhz,
                window.biases_mhz[qubit],
                window.duration_ns,
                has_left=has_left,
                has_right=has_right,
            )
        return cache[key], qubit - has_left

    return op_for


def _require_states(schedule: PulseSchedule, data_states: Sequence) -> list[np.ndarray]:
    """The data states as arrays, once every data index the schedule injects
    or reads (in windows and in ``final_events``) names one of them."""
    indices = set()
    events = [e for w in schedule.windows for e in w.events] + list(schedule.final_events)
    for e in events:
        if e.kind == "inject" and e.data_index is None:
            raise ValueError("inject events must carry a data_index")
        if e.kind in ("inject", "read_reset") and e.data_index is not None:
            indices.add(e.data_index)
    states = [np.asarray(s, dtype=complex) for s in data_states]
    if indices and (min(indices) < 0 or max(indices) >= len(states)):
        raise ValueError(
            f"schedule injects or reads data indices {sorted(indices)} but "
            f"{len(states)} states were supplied"
        )
    for s in states:
        if s.shape != (2,) or abs(np.linalg.norm(s) - 1.0) > 1e-9:
            raise ValueError("each data state must be a normalised 2-vector")
    return states


def _execute(
    spec: ChainSpec,
    schedule: PulseSchedule,
    data_states: Sequence,
    on_read,
    *,
    mode: str,
    purity_tol: float,
    frame_correction: bool = False,
) -> QuantumState | MPS:
    """Run ``schedule`` from |0...0> and return the final lab-frame state.

    Every read_reset first calls ``on_read(event, window_index, reads)``,
    where ``reads`` maps each branch to the read qubit's ``(rho2, purity)``:
    ``"raw"`` always, and ``"corrected"`` in a full-mode run with
    ``frame_correction``, whose copy of the state has each window's idle
    phases undone.  The qubit is then reset (:func:`_reset`).  Injects write
    ``data_states[event.data_index]`` and refuse a qubit whose purity is
    below ``1 - purity_tol``.
    """
    if schedule.n_qubits != spec.n_qubits:
        raise ValueError("schedule and spec disagree on n_qubits")
    states = _require_states(schedule, data_states)
    if mode not in ("reduced", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    reduced = mode == "reduced"

    # Both ground states are looked up per call, so tests can substitute them.
    branches = {"raw": (MPS.ground if reduced else QuantumState.ground)(spec.n_qubits)}
    angles = None
    if frame_correction and not reduced:
        angles = compute_frame_correction(schedule, spec)
        branches["corrected"] = QuantumState.ground(spec.n_qubits)

    op_for = _reduced_pulse_cache(spec)
    prop_cache: dict[tuple, np.ndarray] = {}

    def do_boundary(events, window_index):
        # Full mode keeps a state vector until the first boundary after window
        # 0 that carries events.  Before window 0 the register is exactly
        # |0...0>, so a vector inject there equals the trace-and-retensor map.
        # Later, the qubit read or injected is slightly entangled with the
        # chain, and only the density matrix gives the exact (mixing) map.
        if not reduced and events and window_index != 0:
            for name in branches:
                branches[name] = branches[name].to_mixed()
        for e in events:
            if e.kind == "read_reset":
                reads = {name: _reduced_state(s, e.qubit) for name, s in branches.items()}
                on_read(e, window_index, reads)
                for name in branches:
                    branches[name] = _reset(branches[name], e.qubit)
            elif e.kind == "inject":
                for name in branches:
                    branches[name] = _inject(
                        branches[name], e.qubit, states[e.data_index], purity_tol
                    )

    for i, window in enumerate(schedule.windows):
        do_boundary(window.boundary_events(), i)
        if reduced:
            branches["raw"].apply_layer([op_for(q, window) for q in window.gate_targets()])
            continue
        key = (window.biases_mhz, window.duration_ns)
        if key not in prop_cache:
            h = build_hamiltonian(spec, window.biases_mhz)
            prop_cache[key] = propagator(h, window.duration_ns)
        for name in branches:
            branches[name] = apply_unitary(branches[name], prop_cache[key])
        if angles is not None:
            diag = _frame_diagonal(angles[i], spec.n_qubits)
            branches["corrected"] = _apply_frame(branches["corrected"], diag)
    do_boundary(schedule.final_events, None)
    return branches["raw"]


def _grade(rho2: np.ndarray, purity: float, target: np.ndarray | None):
    """(fidelity, phase error, purity) of a read against its data state."""
    if target is None:
        return float("nan"), 0.0, purity
    fid = float(np.real(target.conj() @ rho2 @ target))
    if min(abs(target[0]), abs(target[1])) > 1e-6:
        phase = wrap_phase(
            float(np.angle(target[0] * np.conj(target[1])) - np.angle(rho2[0, 1]))
        )
    else:
        phase = 0.0
    return fid, phase, purity


def run_quantum_channel(
    spec: ChainSpec,
    schedule: PulseSchedule,
    data_states: Sequence,
    *,
    mode: str = "reduced",
    frame_correction: bool = True,
    purity_tol: float = 1e-3,
) -> TransferReport:
    """Drive a swapping-wire schedule and grade every read-out state.

    In reduced mode the run is frame-exact, so the raw and corrected columns
    of each record coincide.  In full mode the raw column is the lab frame
    and the corrected column has the per-window idle-phase correction
    interleaved.
    """
    targets = [np.asarray(s, dtype=complex) for s in data_states]
    records: list[TransferRecord] = []

    def on_read(e, window_index, reads):
        target = targets[e.data_index] if e.data_index is not None else None
        raw = _grade(*reads["raw"], target)
        cor = _grade(*reads["corrected"], target) if "corrected" in reads else raw
        records.append(
            TransferRecord(
                data_index=e.data_index if e.data_index is not None else -1,
                window_index=window_index,
                fidelity_raw=raw[0],
                fidelity_corrected=cor[0],
                phase_error_raw=raw[1],
                phase_error_corrected=cor[1],
                purity_raw=raw[2],
                purity_corrected=cor[2],
            )
        )

    final = _execute(
        spec,
        schedule,
        targets,
        on_read,
        mode=mode,
        purity_tol=purity_tol,
        frame_correction=frame_correction,
    )
    n_states = len({r.data_index for r in records if r.data_index >= 0})
    return TransferReport(
        mode=mode,
        n_qubits=spec.n_qubits,
        n_states=n_states,
        makespan_ns=schedule.makespan_ns,
        pulse_count=schedule.pulse_count,
        records=tuple(records),
        final_trace=final.trace(),
    )


@dataclass(frozen=True)
class ClassicalRecord:
    data_index: int
    window_index: int | None
    p_one: float
    bit: int


@dataclass(frozen=True)
class ClassicalReport:
    mode: str
    n_qubits: int
    bits_in: tuple[int, ...]
    bits_out: tuple[int, ...]
    ok: bool
    latency_sequences: int
    makespan_ns: float
    pulse_count: int
    records: tuple[ClassicalRecord, ...]
    min_margin: float


def run_classical_channel(
    spec: ChainSpec,
    schedule: PulseSchedule,
    bits: Sequence[int],
    *,
    mode: str = "reduced",
) -> ClassicalReport:
    """Drive a bit-pipeline schedule, thresholding each read at P(|1>) = 1/2.

    Latency is counted in two-window repeats up to the first read.
    """
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    records: list[ClassicalRecord] = []

    def on_read(e, window_index, reads):
        if e.data_index is not None:
            p1 = float(reads["raw"][0][1, 1].real)
            records.append(
                ClassicalRecord(
                    data_index=e.data_index,
                    window_index=window_index,
                    p_one=p1,
                    bit=int(p1 > 0.5),
                )
            )

    amplitudes = [(0.0, 1.0) if b else (1.0, 0.0) for b in bits]
    _execute(spec, schedule, amplitudes, on_read, mode=mode, purity_tol=1e-3)

    first_read_window = records[0].window_index if records else None
    if first_read_window is None:
        first_read_window = schedule.n_windows
    records.sort(key=lambda r: r.data_index)
    bits_out = tuple(r.bit for r in records)
    return ClassicalReport(
        mode=mode,
        n_qubits=spec.n_qubits,
        bits_in=tuple(bits),
        bits_out=bits_out,
        ok=bits_out == tuple(bits),
        latency_sequences=first_read_window // 2,
        makespan_ns=schedule.makespan_ns,
        pulse_count=schedule.pulse_count,
        records=tuple(records),
        min_margin=min((abs(r.p_one - 0.5) * 2.0 for r in records), default=0.0),
    )
