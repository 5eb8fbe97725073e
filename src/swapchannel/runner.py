"""Experiment drivers: execute schedules and report fidelities.

Both channel runners drive one engine, :func:`_execute`, which applies the
schedule window by window and reads, resets and injects at the boundaries;
a runner only grades or thresholds the reads.  It walks the schedule's one
per-window cut of targets and boundary rows, as the replay does.  Both state
types answer ``reduced_state``, ``reset``, ``inject`` and ``trace``, each
updating the state in place, so the boundaries do not ask which one it holds.
It has two modes:

* ``reduced``: each intended pulse is the exact neighbour-conditioned
  two-level propagator at the window's bias for the pulsed qubit (parked
  qubits frozen), from :func:`~swapchannel.gates._block_operator`, unchecked:
  the MPS checks each qubit, reads its neighbours' z and places the block,
  so the callback returns only the operator.  For a solved phase-exact
  design it realises the ideal gate algebra to round-off, a few float64 eps.
  Wire runs keep the pure state as an exact matrix-product state in Vidal
  form (:class:`~swapchannel.mps.MPS`), so a wire costs O(L), not O(2^L).
  :meth:`~swapchannel.mps.MPS.apply_layer` pulses a window as one layer of
  distinct qubits, no two neighbours: a frozen neighbour leaves the pulse's
  block (1-3 sites), and blocks of one size share one update: one stacked
  product and 2x2 SVD on the rows of a product state, else block by block.  A
  quantum run pulses each swap triple with parked outer neighbours as one
  layer of pairs, each block the product of the pair's three pulses.
  A reset keeps the read qubit's dominant local branch, so an entangled
  read shows in its purity; only injects refuse entanglement.
* ``full``: the complete (real symmetric) chain Hamiltonian, window by
  window, with every parked-bias imperfection included.  The state is a
  factor ``W`` with ``rho = W W^dagger`` (:class:`~swapchannel.evolve.QuantumState`).
  The pair ``(V, E t)`` of each distinct (biases, duration) window is cached
  for the run, and the mirror symmetry ``H(b[::-1]) = P H(b) P^T`` (P the bit
  reversal of the basis index) spares most ``eigh`` work: a window whose
  mirror image is cached shares its ``V``, applied ``mirrored`` (the factor's
  rows permuted), and a self-mirror window takes the eigensystems of its two
  half-size mirror sectors (:func:`_window_eigensystem`).  A window applies
  ``V e^{-iEt} V^T`` in the eigenbasis to both branches' factors side by side
  (two real products, ``8 dim^2 r`` flops for their ``r`` columns), and the
  propagator ``U`` is never assembled.  A reset or inject traces the qubit
  out, which doubles the columns of ``W``; the ``eigh`` of their smaller
  Gram matrix then keeps only the directions whose weight float64 resolves
  in ``rho``, above eps of the largest (:class:`~swapchannel.evolve.QuantumState`).
  The rank grows only where a read or inject leaves the rest of the chain
  mixed, so a wire with no mid-run boundary (one state) keeps one column.

Both the reduced pulses and the frame correction take their bias from
:func:`~swapchannel.chain.effective_bias`, ``bias + xi*sum z_nbr``.
Full-mode runs can interleave the analytic frame correction: per window, each
unpulsed qubit accrues a known z phase ``2*pi*effective_bias*T*1e-3`` from its
bias and its frozen literal neighbours; undoing it in software is what makes
superposition transfers phase-faithful at finite parking bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import (
    ChainSpec, _integer, _number, _z_values, build_hamiltonian,
    effective_bias, phase_angle, wrap_phase,
)
from .evolve import (
    QuantumState, _checked_amplitudes, _eigensystem, _sector_eigensystem, apply_eigensystem,
    propagator,
)
from .gates import IDEAL_CNOT, _block_operator, _swap_pulse, reduced_pulse_operator
from .mps import MPS
from .scheduler import _NO_DATA, _READ_RESET, PulseSchedule, ReplayResult, ScheduleError
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
        return reduced_pulse_operator(spec, 1, 0.0, design.t_ns)[0]
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
    b0 = np.sum(IDEAL_CNOT[:2, :2].conj() * g[:2, :2])
    b1 = np.sum(IDEAL_CNOT[2:, 2:].conj() * g[2:, 2:])
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
    want = IDEAL_CNOT @ v
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


def sweep_eps_high(design: GateDesign, eps_grid: Sequence[float]) -> tuple[SweepPoint, ...]:
    """Full-mode gate quality versus parking bias (the reduced model's is flat)."""
    points = []
    for i, eps in enumerate(eps_grid):
        eps = _number(eps, f"eps_grid[{i}]")
        spec = ChainSpec(
            n_qubits=3,
            delta_mhz=design.delta_mhz,
            xi_mhz=design.xi_mhz,
            eps_high_mhz=eps,
        )
        report = run_gate_experiment(spec, design, mode="full")
        points.append(
            SweepPoint(
                eps_high_mhz=eps,
                worst_infidelity=report.worst_infidelity,
                distance=report.distance,
            )
        )
    return tuple(points)


def infidelity_slope(points: Sequence[SweepPoint]) -> float:
    """Log-log slope of worst infidelity vs parking bias."""
    if len({p.eps_high_mhz for p in points}) < 2:
        raise ValueError("need sweep points at two or more distinct biases for a slope")
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

    Reads the schedule's one replay (:attr:`PulseSchedule.replay`), which
    must be clean: definite occupancy is what makes the neighbour signs well
    defined.  Every literal there is |0>, so a literal neighbour adds ``+xi``.

    All windows are done at once on ``(n_windows, n_qubits)`` arrays: the
    bias table ``profiles[profile_of]`` (not left cached on the schedule),
    its :attr:`~PulseSchedule.pulsed` mask, the z value of each literal
    neighbour (1 where the replay's ``data_held`` and the mask are both
    False, else 0), one :func:`~swapchannel.chain.effective_bias` call and one
    :func:`~swapchannel.chain.phase_angle` call.  Each angle sees the same
    float operations in the same order as a per-qubit scalar computation,
    so the result is bit-identical to it.
    """
    if schedule.n_qubits != spec.n_qubits:
        raise ValueError("schedule and spec disagree on n_qubits")
    replay = schedule.replay
    if replay.violations:
        first = replay.violations[0]
        raise ScheduleError(
            f"schedule fails occupancy replay ({len(replay.violations)} violations; "
            f"first: window {first.window_index}, {first.message})"
        )
    pulsed = schedule.pulsed
    # z value of each literal |0> neighbour; 0 for a data or a pulsed qubit
    sign = (~replay.data_held & ~pulsed).astype(np.int64)
    angles = phase_angle(effective_bias(schedule.profiles[schedule.profile_of], spec.xi_mhz, sign),
                         schedule.durations[:, None])
    angles[pulsed] = 0.0
    return angles


def _frame_diagonal(angles_row: np.ndarray, n_qubits: int) -> np.ndarray:
    """Diagonal of exp(+i * sum_q angles[q] * sz_q) over the full space."""
    return np.exp(1j * (_z_values(n_qubits) * angles_row).sum(axis=1))


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

    # over the reads with a data index: one without has a NaN fidelity
    @property
    def min_fidelity_raw(self) -> float:
        return min((r.fidelity_raw for r in self.records if r.data_index >= 0), default=np.nan)

    @property
    def min_fidelity_corrected(self) -> float:
        return min((r.fidelity_corrected for r in self.records if r.data_index >= 0), default=np.nan)


def _require_states(schedule: PulseSchedule, data_states: Sequence) -> list[np.ndarray]:
    """The data states as arrays, once every data index the schedule injects
    or reads (in windows and in the final events) names one of them."""
    indices = sorted({data for rows in schedule._cut[1] for _, _, data in rows} - {_NO_DATA})
    states = [_checked_amplitudes(s) for s in data_states]
    if indices and indices[-1] >= len(states):
        raise ValueError(
            f"schedule injects or reads data indices {indices} but "
            f"{len(states)} states were supplied"
        )
    return states


def _window_eigensystem(spec: ChainSpec, biases: tuple, duration: float, cache: dict):
    """``(V, E t, mirrored)`` of one full-mode window for :func:`apply_eigensystem`:
    its mirror image's cached pair, ``mirrored`` (``H(b[::-1]) = H(b)[m][:, m]``,
    no ``eigh``), or else, not mirrored, the two mirror sectors of a
    self-mirror profile or the eigensystem of its Hamiltonian, which is built
    symmetric and not checked again."""
    image = cache.get((biases[::-1], duration))
    if image is not None:
        return image[0], image[1], True
    solve = _sector_eigensystem if spec.n_qubits > 1 and biases == biases[::-1] else _eigensystem
    return *solve(build_hamiltonian(spec, biases), duration), False


def _execute(
    spec: ChainSpec,
    schedule: PulseSchedule,
    data_states: Sequence,
    on_read,
    *,
    mode: str,
    replay: ReplayResult | None = None,
) -> QuantumState | MPS:
    """Run ``schedule`` from |0...0> and return the final lab-frame state.

    Every read_reset first calls ``on_read(data_index, window_index, reads)``
    with the read's data index (-1 for none, as in the event table), where
    ``reads`` maps each branch to the read qubit's ``(rho2, purity)``:
    ``"raw"`` always, and in full mode given a ``replay`` also ``"corrected"``,
    the copy with each window's idle phases undone.  The qubit is then reset,
    which never refuses.  Injects write ``data_states[data_index]`` and
    refuse a qubit whose purity is below ``1 - INJECT_PURITY_TOL``
    (``evolve``).  A ``replay`` is the run's plan: reduced mode runs each of
    its unflagged swap triples as one layer.  Full mode caches one
    :func:`_window_eigensystem` per distinct window, one ``V`` per mirror
    class, and pushes both branches through each window's products together.
    """
    if schedule.n_qubits != spec.n_qubits:
        raise ValueError("schedule and spec disagree on n_qubits")
    states = _require_states(schedule, data_states)
    if mode not in ("reduced", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    reduced = mode == "reduced"

    branches = {"raw": (MPS.ground if reduced else QuantumState.ground)(spec.n_qubits)}
    if replay is not None and not reduced:
        angles = compute_frame_correction(schedule, spec)
        branches["corrected"] = QuantumState.ground(spec.n_qubits)

    prop_cache: dict[tuple, tuple] = {}

    def do_boundary(rows, window_index):
        for kind, q, data in rows:
            if kind == _READ_RESET:
                reads = {name: s.reduced_state(q) for name, s in branches.items()}
                on_read(data, window_index, reads)
                for s in branches.values():
                    s.reset(q)
            else:  # an inject
                for s in branches.values():
                    s.inject(q, states[data])

    swaps = {}  # first window -> each pair's first qubit, of each triple run as one layer
    if reduced and replay is not None:  # a flagged outer neighbour: window by window
        flagged = {v.window_index for v in replay.violations if v.kind == "sacrificial_occupied"}
        swaps = {w: firsts for w, firsts in replay.swaps if w not in flagged}
    # plain floats, each profile once: cache keys and pulse-operator arguments
    profiles = list(map(tuple, schedule.profiles.tolist()))
    rows, durations = [profiles[p] for p in schedule.profile_of.tolist()], schedule.durations.tolist()
    done = 0  # the windows before it were pulsed with their swap triple
    targets_of, boundary_of = schedule._cut
    for i, targets in enumerate(targets_of):
        if i < done:
            continue
        do_boundary(boundary_of[i], i)
        if i in swaps:  # the triple's three windows, one layer of pairs
            pulsed, windows = set(targets), tuple(zip(rows[i:i + 3], durations[i:i + 3]))
            branches["raw"].apply_layer(swaps[i], lambda a, left, right: _swap_pulse(
                spec, a, a in pulsed, windows, left, right), 2)
            done = i + 3
        elif reduced:
            branches["raw"].apply_layer(targets, lambda q, left, right: _block_operator(
                spec.delta_mhz, spec.xi_mhz, rows[i][q], durations[i], left, right))
        else:
            key = (rows[i], durations[i])
            if key not in prop_cache:
                prop_cache[key] = _window_eigensystem(spec, *key, prop_cache)
            apply_eigensystem(list(branches.values()), *prop_cache[key])
            if "corrected" in branches:
                branches["corrected"].apply_diagonal(_frame_diagonal(angles[i], spec.n_qubits))
    do_boundary(boundary_of[-1], None)
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
) -> TransferReport:
    """Drive a swapping-wire schedule and grade every read-out state.

    The raw column is the lab frame.  The corrected column undoes the Z
    each swap leaves on the data it moves (the replay's
    :attr:`~swapchannel.scheduler.ReadRecord.z_parity`), so in reduced mode
    the two differ on even-length wires only; in full mode it also has the
    per-window idle-phase correction interleaved.
    """
    targets = [np.asarray(s, dtype=complex) for s in data_states]
    records: list[TransferRecord] = []
    frames = iter(schedule.replay.reads)  # in the order the engine reads

    def on_read(data_index, window_index, reads):
        target = targets[data_index] if data_index >= 0 else None
        raw = _grade(*reads["raw"], target)
        rho2, purity = reads.get("corrected", reads["raw"])
        if next(frames).z_parity:
            rho2 = rho2 * np.array([[1.0, -1.0], [-1.0, 1.0]])  # Z rho Z
        cor = _grade(rho2, purity, target)
        records.append(
            TransferRecord(
                data_index=data_index,
                window_index=window_index,
                fidelity_raw=raw[0],
                fidelity_corrected=cor[0],
                phase_error_raw=raw[1],
                phase_error_corrected=cor[1],
                purity_raw=raw[2],
                purity_corrected=cor[2],
            )
        )

    final = _execute(spec, schedule, targets, on_read, mode=mode, replay=schedule.replay)
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
    bits = [_integer(b, f"bits[{i}]", low=0, high=1) for i, b in enumerate(bits)]
    records: list[ClassicalRecord] = []

    def on_read(data_index, window_index, reads):
        if data_index >= 0:
            p1 = float(reads["raw"][0][1, 1].real)
            records.append(
                ClassicalRecord(
                    data_index=data_index,
                    window_index=window_index,
                    p_one=p1,
                    bit=int(p1 > 0.5),
                )
            )

    amplitudes = [(0.0, 1.0) if b else (1.0, 0.0) for b in bits]
    _execute(spec, schedule, amplitudes, on_read, mode=mode)

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
