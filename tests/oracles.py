"""Reference implementations used to cross-check the package.

The chain oracles deliberately avoid the package's own construction paths:
Hamiltonians are built by explicit Kronecker sums, propagators by scipy's
scaling-and-squaring exponential, and two-level propagators by the
closed-form Rabi rotation.  The dense reduced-mode replay is the package's
former reduced path (dense vector, local einsums, injects that project onto
the qubit's dominant branch), kept as the reference the matrix-product-state
backend must reproduce.  The dense-rho run is the package's former full-mode
path (2^L x 2^L density matrices), kept as the reference for the factor
``rho = W W^dagger`` the full-mode runners now evolve.  The dense local
operator and reduced state are the package's former free functions of
``evolve``, kept as the references for the MPS's local updates and the
``reduced_state`` method of both state types.  The schedule
serialiser and the frame correction and the reduced pulse operator are the
package's former per-value routes: ``json.dumps`` of the schedule document,
one scalar ``phase_angle`` per parked qubit, and one matrix element at a
time.  The swap fragment is the package's former ``swap_pulses`` generator by
its first bias route, an np.float64 hold profile with the pulsed qubit set.  The
replay's swap-pair matching built a candidate set per target, and the line
check grouped each window's biases into a dict of sets, one qubit at a
time.  The wire generators and the replay are the package's former
object-building routes: one ``Window`` of ``PulseEvent`` rows at a time,
and a replay over those rows; the loop frame correction and line check read
that replay.  The plain window eigensystem is the full-mode engine's former
per-window route, one ``eigh`` of each window's own Hamiltonian, before it
shared eigenvectors between mirror images.  The SVD replace is the dense
factor's former reset and inject compression, a thin SVD that kept singular
values above 1e-14 of the largest.  The canonical MPS is the
reduced engine's former state: a mixed-canonical MPS whose every operation
first moves an orthogonality centre to its sites, pulsed one block at a
time.  The unfolded layer is its former pulse route: every pulse the full
block over its neighbours, two SVDs to split, even where a neighbour is
frozen in a basis state.  The mirrored schedule is the
paper's bi-directional claim as a test input: the same wire run right to
left.  The schedule rows are the schedule's former row views (``windows``
and ``final_events``), rebuilt from its arrays for the row-based oracles.  The
whole-document parser is the package's former schedule reader: ``json.loads``
of the whole file, then each field's values, with the refusal of a
``windows``, ``final_events`` or window ``events`` that is not an array."""

import json
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from swapchannel.chain import TwoLevelParams, _integer, build_hamiltonian, phase_angle, wrap_phase
from swapchannel.evolve import (
    INJECT_PURITY_TOL, EntanglementError, QuantumState, _checked_amplitudes, _require_separable,
    eigensystem, propagator
)
from swapchannel.gates import reduced_pulse_operator
from swapchannel.mps import TRUNCATION_RTOL
from swapchannel.runner import _frame_diagonal, compute_frame_correction
from swapchannel.scheduler import (
    BOUNDARY_KINDS, EVENT_KINDS, GATE_KINDS, LineAssignment, LineCheckReport, PulseEvent, PulseSchedule,
    ReadRecord,
    ReplayResult, ScheduleError, Violation, Window, _array, _classical_lines, _flat,
    _quantum_lines,
)

def schedule_rows(schedule) -> tuple[tuple, tuple]:
    """The schedule as rows, rebuilt from its arrays: its ``Window`` rows, with
    plain floats, ints and tuples, and its final ``PulseEvent`` rows."""
    events = [[] for _ in range(schedule.n_windows + 1)]
    for w, kind, qubit, data_index in schedule.events.tolist():
        events[w].append(PulseEvent(EVENT_KINDS[kind], qubit,
                                    None if data_index == -1 else data_index))
    biases = map(tuple, schedule.profiles[schedule.profile_of].tolist())
    windows = tuple(map(Window, schedule.starts.tolist(), schedule.durations.tolist(), biases,
                        map(tuple, events)))
    return windows, tuple(events[-1])


def _gate_targets(window) -> tuple:
    """The qubits the window pulses, each once, ascending."""
    return tuple(sorted({e.qubit for e in window.events if e.kind in GATE_KINDS}))


def _boundary_events(window) -> tuple:
    return tuple(e for e in window.events if e.kind in BOUNDARY_KINDS)


_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _embed(op: np.ndarray, n: int, qubit: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, op if q == qubit else np.eye(2, dtype=complex))
    return out


def kron_hamiltonian(n: int, delta: float, xi: float, biases) -> np.ndarray:
    """Chain Hamiltonian assembled one Kronecker product at a time."""
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for q in range(n):
        h += delta * _embed(_SX, n, q)
        h += biases[q] * _embed(_SZ, n, q)
    for q in range(n - 1):
        h += xi * _embed(_SZ, n, q) @ _embed(_SZ, n, q + 1)
    return h


def expm_propagator(h: np.ndarray, t_ns: float) -> np.ndarray:
    """exp(-i 2pi 1e-3 H t) via Pade scaling-and-squaring."""
    return scipy.linalg.expm(-2j * np.pi * 1e-3 * t_ns * np.asarray(h, dtype=complex))


def rabi_u2(delta: float, sigma: float, t_ns: float) -> np.ndarray:
    """Closed-form two-level propagator for H2 = delta*sx + sigma*sz."""
    omega = np.hypot(delta, sigma)
    theta = 2.0 * np.pi * 1e-3 * omega * t_ns
    if omega == 0.0:
        return np.eye(2, dtype=complex)
    axis = (delta * _SX + sigma * _SZ) / omega
    return np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * axis


def apply_local_unitary(state, u, first_qubit):
    """A new ``QuantumState`` with ``u`` applied on the ``k`` adjacent qubits
    from ``first_qubit``: the package's former free function, one einsum over
    (qubits before, the k qubits, qubits after and columns)."""
    u = np.asarray(u, dtype=complex)
    w = state.data.reshape(1 << first_qubit, u.shape[0], -1)
    return QuantumState(np.einsum("ab,xbz->xaz", u, w).reshape(state.dim, -1))


def reduced_state(state, qubit):
    """(2x2 reduced density matrix, its purity) of a ``QuantumState``, by the
    package's former free function."""
    w = state.data.reshape(1 << qubit, 2, -1)
    rho2 = np.einsum("xaz,xbz->ab", w, w.conj())
    return rho2, float(np.trace(rho2 @ rho2).real)


def _refuse_entangled(qubit: int, purity: float, purity_tol: float) -> None:
    if purity < 1.0 - purity_tol:
        raise EntanglementError(
            f"qubit {qubit} has reduced purity {purity:.6f}; refusing to inject"
        )


def project_inject(state, qubit, amplitudes, *, purity_tol):
    """Pure-state inject by projection: refuse a qubit whose purity is below
    ``1 - purity_tol``, else project it onto its dominant local branch,
    renormalise and tensor ``amplitudes`` in.  This is what an MPS inject
    does (a pure state cannot hold the mixture the exact map leaves)."""
    rho2, purity = reduced_state(state, qubit)
    _refuse_entangled(qubit, purity, purity_tol)
    pre, post = 1 << qubit, 1 << (state.n_qubits - qubit - 1)
    evals, evecs = np.linalg.eigh(rho2)
    local = evecs[:, int(np.argmax(evals))]
    rest = np.einsum("a,xaz->xz", local.conj(), state.data.reshape(pre, 2, post))
    out = np.einsum("a,xz->xaz", np.asarray(amplitudes, dtype=complex),
                    rest / np.linalg.norm(rest))
    return QuantumState.pure(out.reshape(-1))


def dense_reduced_replay(spec, schedule, inject_amplitudes, on_read, *, inject_tol, read_tol):
    """Reduced-mode run of ``schedule`` on a dense 2^L state vector.

    This is the dense path the runners used before the MPS backend, kept as
    the reference it must match: ``QuantumState`` + ``apply_local_unitary`` +
    :func:`project_inject`, with each pulse the ``reduced_pulse_operator`` at the
    window's bias for the pulsed qubit.  ``inject_amplitudes(data_index)``
    gives the amplitudes an inject writes; ``on_read(state, event, window)``
    sees the state before each read_reset re-prepares |0>.  Returns the final
    state.
    """
    n = spec.n_qubits
    state = QuantumState.ground(n)

    def boundary(events, window_index):
        nonlocal state
        for e in events:
            if e.kind == "read_reset":
                on_read(state, e, window_index)
                state = project_inject(state, e.qubit, (1.0, 0.0), purity_tol=read_tol)
            elif e.kind == "inject":
                amps = inject_amplitudes(e.data_index)
                state = project_inject(state, e.qubit, amps, purity_tol=inject_tol)

    windows, final_events = schedule_rows(schedule)
    for i, window in enumerate(windows):
        boundary(_boundary_events(window), i)
        for q in _gate_targets(window):
            op, first = reduced_pulse_operator(spec, q, window.biases_mhz[q], window.duration_ns)
            state = apply_local_unitary(state, op, first)
    boundary(final_events, None)
    return state


def dense_reduced_wire(spec, schedule, states, *, purity_tol=1e-3, read_tol=1e-6, z_power=0):
    """Reduced-mode quantum wire on a dense vector: ``(records, final_state)``
    with one ``(data_index, window_index, fidelity, phase_error, purity)``
    tuple per read, computed as ``run_quantum_channel`` grades a read, after
    ``Z^z_power`` on the read qubit.  ``read_tol`` is the purity tolerance of
    the |0> inject that resets a read qubit."""
    z = np.diag([1.0, -1.0]) if z_power % 2 else np.eye(2)
    states = [np.asarray(s, dtype=complex) for s in states]
    records = []

    def on_read(state, e, w):
        rho2, purity = reduced_state(state, e.qubit)
        rho2 = z @ rho2 @ z
        if e.data_index is None:
            records.append((-1, w, float("nan"), 0.0, purity))
            return
        target = states[e.data_index]
        fid = float(np.real(target.conj() @ rho2 @ target))
        if min(abs(target[0]), abs(target[1])) > 1e-6:
            phase = wrap_phase(
                float(np.angle(target[0] * np.conj(target[1])) - np.angle(rho2[0, 1]))
            )
        else:
            phase = 0.0
        records.append((e.data_index, w, fid, phase, purity))

    final = dense_reduced_replay(
        spec,
        schedule,
        lambda i: states[i],
        on_read,
        inject_tol=purity_tol,
        read_tol=read_tol,
    )
    return records, final


def dense_reduced_bits(spec, schedule, bits):
    """Reduced-mode bit pipeline on a dense vector: one
    ``(data_index, window_index, p_one)`` per data read, sorted by data index."""
    reads = []

    def on_read(state, e, w):
        if e.data_index is not None:
            reads.append((e.data_index, w, float(reduced_state(state, e.qubit)[0][1, 1].real)))

    dense_reduced_replay(
        spec,
        schedule,
        lambda i: (0.0, 1.0) if bits[i] else (1.0, 0.0),
        on_read,
        inject_tol=1e-3,
        read_tol=1e-3,
    )
    return sorted(reads)


class DenseRho:
    """A density matrix with the ``trace()`` a runner reads off its final state."""

    def __init__(self, rho: np.ndarray):
        self.rho = rho

    def trace(self) -> float:
        return float(np.trace(self.rho).real)


def _rho_axes(rho: np.ndarray, qubit: int) -> np.ndarray:
    n = rho.shape[0].bit_length() - 1
    pre, post = 1 << qubit, 1 << (n - qubit - 1)
    return rho.reshape(pre, 2, post, pre, 2, post)


def _rho_reduced(rho: np.ndarray, qubit: int) -> tuple[np.ndarray, float]:
    rho2 = np.einsum("xazxbz->ab", _rho_axes(rho, qubit))
    return rho2, float(np.trace(rho2 @ rho2).real)


def rho_replace(rho: np.ndarray, qubit: int, local: np.ndarray) -> np.ndarray:
    """Trace ``qubit`` out and tensor in the pure state ``local``."""
    rest = np.einsum("xazuav->xzuv", _rho_axes(rho, qubit))
    out = np.einsum("ab,xzuv->xazubv", np.outer(local, local.conj()), rest)
    return out.reshape(rho.shape)


def dense_rho_run(spec, schedule, data_states, on_read, *, mode, replay=None, exact=False):
    """A full-mode run on 2^L x 2^L density matrices, with the signature and
    read contract of ``runner._execute``, ``on_read(data_index, window,
    reads)`` with -1 for no data index (so a runner can be pointed at it;
    a ``replay`` passed in adds the ``"corrected"`` copy, as in full mode
    there).

    Each window maps ``rho -> U rho U^dagger`` with the package's own
    ``propagator`` of ``build_hamiltonian``, or with ``exact`` scipy's
    ``expm`` of the Kronecker Hamiltonian (one per distinct window either
    way); resets and injects trace the
    qubit out and tensor in |0> or the data state (an inject refuses a qubit
    whose purity is below ``1 - INJECT_PURITY_TOL``); the ``"corrected"`` copy
    takes the package's frame diagonal as ``d rho d^dagger`` after every
    window.  (Summed in another order, the ~1e4 rad frame angles would differ
    by ~1e-12 rad before any state is involved.)
    """
    if mode != "full":
        raise ValueError(f"dense_rho_run simulates full mode, not {mode!r}")
    n = spec.n_qubits
    dim = 1 << n
    ground = np.zeros((dim, dim), dtype=complex)
    ground[0, 0] = 1.0
    rhos = {"raw": ground}
    if replay is not None:
        angles = compute_frame_correction(schedule, spec)
        rhos["corrected"] = ground

    def boundary(events, w):
        for e in events:
            if e.kind == "read_reset":
                data = -1 if e.data_index is None else e.data_index
                on_read(data, w, {k: _rho_reduced(r, e.qubit) for k, r in rhos.items()})
                local = np.array([1.0, 0.0], dtype=complex)
            elif e.kind == "inject":
                local = np.asarray(data_states[e.data_index], dtype=complex)
                for r in rhos.values():
                    purity = _rho_reduced(r, e.qubit)[1]
                    _refuse_entangled(e.qubit, purity, INJECT_PURITY_TOL)
            else:
                continue
            for k in rhos:
                rhos[k] = rho_replace(rhos[k], e.qubit, local)

    props = {}
    windows, final_events = schedule_rows(schedule)
    for i, window in enumerate(windows):
        boundary(_boundary_events(window), i)
        key = (window.biases_mhz, window.duration_ns)
        if key not in props:
            h = (kron_hamiltonian(n, spec.delta_mhz, spec.xi_mhz, window.biases_mhz) if exact
                 else build_hamiltonian(spec, window.biases_mhz))
            props[key] = (expm_propagator if exact else propagator)(h, window.duration_ns)
        u = props[key]
        for k in rhos:
            rhos[k] = u @ rhos[k] @ u.conj().T
        if replay is not None:
            d = _frame_diagonal(angles[i], n)
            rhos["corrected"] = d[:, None] * rhos["corrected"] * d.conj()[None, :]
    boundary(final_events, None)
    return DenseRho(rhos["raw"])


def _event_obj(e) -> dict:
    return {"kind": e.kind, "qubit": e.qubit, "data_index": e.data_index}


def json_dumps_schedule(schedule, assignment=None) -> str:
    """``schedule_to_json`` as ``json.dumps`` of the schedule document."""
    windows, final_events = schedule_rows(schedule)
    obj = {
        "format": "swapchannel-schedule/1",
        "label": schedule.label,
        "n_qubits": schedule.n_qubits,
        "windows": [
            {
                "start_ns": w.start_ns,
                "duration_ns": w.duration_ns,
                "biases_mhz": list(w.biases_mhz),
                "events": [_event_obj(e) for e in w.events],
            }
            for w in windows
        ],
        "final_events": [_event_obj(e) for e in final_events],
        "lines": None
        if assignment is None
        else {"map": list(assignment.lines), "n_lines": assignment.n_lines},
    }
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def whole_document_schedule_from_json(text: str) -> tuple[PulseSchedule, LineAssignment | None]:
    """``schedule_from_json`` by ``json.loads`` of the whole text, for every file."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScheduleError(f"schedule file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != "swapchannel-schedule/1":
        raise ScheduleError("not a swapchannel-schedule/1 document")
    try:
        n_qubits = obj["n_qubits"]
        windows = _array(obj["windows"], "windows must be an array")
        starts, durations, biases, events = ([w[key] for w in windows] for key in (
            "start_ns", "duration_ns", "biases_mhz", "events"))
        for i, e in enumerate(events):
            _array(e, f"window {i}: events must be an array")
        window, flat = _flat([*events, _array(obj["final_events"], "final_events must be an array")])
        kinds, qubits = ([e[key] for e in flat] for key in ("kind", "qubit"))
        columns = [window, kinds, qubits, [e.get("data_index") for e in flat]]
        label, lines_obj = obj.get("label", ""), obj.get("lines")
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc
    schedule = PulseSchedule._from_arrays(n_qubits, label, starts, durations, biases, columns)
    if lines_obj is None:
        return schedule, None
    try:
        return schedule, LineAssignment(lines=lines_obj["map"], n_lines=lines_obj["n_lines"])
    except (KeyError, TypeError) as exc:
        raise ScheduleError(f"malformed line assignment: {exc}") from exc


def hold_bias_swap_pulses(spec, left, right, t_ns, start_ns=0.0) -> PulseSchedule:
    """The three-window fragment exchanging the adjacent qubits ``left`` and
    ``right``, pulsing (left, right, left), by the former ``swap_pulses``'s
    first bias route: every qubit at eps_high (np.float64) but the pulsed
    one, at 0, or at ``+xi`` on a chain end."""
    ends = (0, spec.n_qubits - 1)
    windows = []
    for i, q in enumerate((left, right, left)):
        biases = list(np.full(spec.n_qubits, spec.eps_high_mhz))
        biases[q] = spec.xi_mhz if q in ends else 0.0
        kind = "readout_pulse" if q in ends else "cnot_pulse"
        windows.append(Window(start_ns + i * t_ns, t_ns, tuple(biases),
                              (PulseEvent(kind=kind, qubit=q),)))
    return PulseSchedule(spec.n_qubits, tuple(windows), label=f"swap-{left}-{right}")


def loop_frame_correction(schedule, spec) -> np.ndarray:
    """``compute_frame_correction`` one parked qubit at a time."""
    replay = loop_replay_occupancy(schedule)
    if replay.violations:
        raise ScheduleError(f"{len(replay.violations)} replay violations")
    n = schedule.n_qubits
    angles = np.zeros((schedule.n_windows, n))
    for w, window in enumerate(schedule_rows(schedule)[0]):
        targets = set(_gate_targets(window))
        for q in range(n):
            if q in targets:
                continue
            s_nb = 0
            for r in (q - 1, q + 1):
                if 0 <= r < n and r not in targets and not replay.data_held[w, r]:
                    s_nb += 1  # a parked |0> neighbour: z = +1
            angles[w, q] = phase_angle(
                window.biases_mhz[q] + spec.xi_mhz * s_nb, window.duration_ns
            )
    return angles


def loop_reduced_pulse_operator(
    delta_mhz, xi_mhz, pulse_bias_mhz, duration_ns, *, has_left=True, has_right=True
) -> np.ndarray:
    """``reduced_pulse_operator`` one matrix element at a time, with the
    effective bias summed per neighbour configuration."""
    neighbours = int(has_left) + int(has_right)
    dim = 1 << (1 + neighbours)
    target_axis = 1 if has_left else 0
    out = np.zeros((dim, dim), dtype=complex)
    for config in range(1 << neighbours):
        nbits = [(config >> (neighbours - 1 - i)) & 1 for i in range(neighbours)]
        sigma = pulse_bias_mhz + xi_mhz * sum(1 - 2 * b for b in nbits)
        u2 = propagator(
            TwoLevelParams(delta_mhz=delta_mhz, effective_bias_mhz=sigma).hamiltonian(),
            duration_ns,
        )
        for t_in in (0, 1):
            for t_out in (0, 1):
                bits_in = list(nbits)
                bits_in.insert(target_axis, t_in)
                bits_out = list(nbits)
                bits_out.insert(target_axis, t_out)
                row = int("".join(map(str, bits_out)), 2)
                col = int("".join(map(str, bits_in)), 2)
                out[row, col] = u2[t_out, t_in]
    return out


def set_match_pairs(lefts, mids):
    """``scheduler._match_pairs`` by its former body: each first-window
    target's candidates as a set intersection, refused unless exactly one."""
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


def loop_line_conflict_check(schedule, assignment) -> LineCheckReport:
    """``scheduler.line_conflict_check`` by its former body: per window, a
    dict of bias sets filled one qubit at a time."""
    problems: list[str] = []
    if len(assignment.lines) != schedule.n_qubits:
        return LineCheckReport(
            ok=False,
            problems=(
                f"line map covers {len(assignment.lines)} qubits, "
                f"schedule has {schedule.n_qubits}",
            ),
        )
    replay = loop_replay_occupancy(schedule)
    for v in replay.violations:
        problems.append(f"occupancy violation at window {v.window_index}: {v.message}")
    for i, w in enumerate(schedule_rows(schedule)[0]):
        by_line: dict[int, set[float]] = {}
        for q, line in enumerate(assignment.lines):
            if line is not None:
                by_line.setdefault(line, set()).add(w.biases_mhz[q])
        for line, values in sorted(by_line.items()):
            if len(values) > 1:
                problems.append(
                    f"window {i}: line {line} would need biases {sorted(values)}"
                )
        targets = set(_gate_targets(w))
        pulsed_lines = set()
        for q in sorted(targets):
            if assignment.lines[q] is None:
                problems.append(f"window {i}: pulsed qubit {q} has no line")
            else:
                pulsed_lines.add(assignment.lines[q])
        for q in np.flatnonzero(replay.data_held[i]).tolist():
            line = assignment.lines[q]
            if q not in targets and line in pulsed_lines:
                problems.append(
                    f"window {i}: qubit {q} holds data but shares pulsed line {line}"
                )
    return LineCheckReport(ok=not problems, problems=tuple(problems))


def _loop_window(spec, start_ns, t_ns, targets, lines, extra_events=()) -> Window:
    """One window pulsing ``targets``, its biases driven per line: a pulsed
    qubit's line takes +xi at the chain ends and 0 inside."""
    ends = (0, spec.n_qubits - 1)
    value = {lines.lines[q]: spec.xi_mhz if q in ends else 0.0 for q in targets}
    biases = [value.get(line, spec.eps_high_mhz) for line in lines.lines]
    events = tuple(extra_events) + tuple(
        PulseEvent(kind="readout_pulse" if q in ends else "cnot_pulse", qubit=q)
        for q in sorted(targets)
    )
    return Window(start_ns=start_ns, duration_ns=t_ns, biases_mhz=biases, events=events)


def loop_quantum_channel_schedule(spec, n_states, t_ns, *, line_mode="mod6"):
    """``quantum_channel_schedule`` one macro-step and one window at a time."""
    L = spec.n_qubits
    lines = _quantum_lines(L, line_mode)
    n_macro = 3 * (n_states - 1) + (L - 1)
    windows = []
    for t in range(n_macro):
        boundary = []
        for s in range(n_states):
            if t == 3 * s + (L - 1):
                boundary.append(PulseEvent(kind="read_reset", qubit=L - 1, data_index=s))
            if t == 3 * s:
                boundary.append(PulseEvent(kind="inject", qubit=0, data_index=s))
        lefts = sorted(t - 3 * s for s in range(n_states) if 0 <= t - 3 * s <= L - 2)
        rights = [p + 1 for p in lefts]
        for i, targets in enumerate((lefts, rights, lefts)):
            windows.append(_loop_window(spec, (3 * t + i) * t_ns, t_ns, targets, lines,
                                        tuple(boundary) if i == 0 else ()))
    final = (PulseEvent(kind="read_reset", qubit=L - 1, data_index=n_states - 1),)
    return PulseSchedule(L, tuple(windows), final, "quantum-wire"), lines


def loop_classical_channel_schedule(spec, bits, t_ns):
    """``classical_channel_schedule`` one repeat and one window at a time."""
    L = spec.n_qubits
    lines = _classical_lines(L)
    odd_group, even_group = list(range(1, L - 1, 2)), list(range(2, L - 1, 2))
    latency = L // 2
    windows = []
    for k in range(latency + len(bits) - 1):
        first = []
        if 0 <= k - latency < len(bits):
            first.append(PulseEvent(kind="read_reset", qubit=L - 1, data_index=k - latency))
        if k == 0:
            first.append(PulseEvent(kind="inject", qubit=0, data_index=0))
        windows.append(_loop_window(spec, (2 * k) * t_ns, t_ns, odd_group + [L - 1], lines,
                                    tuple(first)))
        second = []
        if k + 1 < len(bits):
            second.append(PulseEvent(kind="read_reset", qubit=0))
            second.append(PulseEvent(kind="inject", qubit=0, data_index=k + 1))
        windows.append(_loop_window(spec, (2 * k + 1) * t_ns, t_ns, even_group, lines,
                                    tuple(second)))
    final = (PulseEvent(kind="read_reset", qubit=L - 1, data_index=len(bits) - 1),)
    return PulseSchedule(L, tuple(windows), final, "classical-wire"), lines


def _symbol_text(symbol) -> str:
    return "|0>" if symbol is None else f"data {symbol}"


def loop_replay_occupancy(schedule) -> ReplayResult:
    """``replay_occupancy`` over the schedule's ``Window`` rows, with one
    ``Violation`` and ``ReadRecord`` built by keyword at a time."""
    n = schedule.n_qubits
    windows, final_events = schedule_rows(schedule)
    occ = {}
    z_parity = {}
    rows = []
    violations = []
    reads = []
    swaps = []

    def snapshot():
        row = bytearray(n)
        for q in occ:
            row[q] = 1
        rows.append(row)

    def run_boundary(events, window_index):
        for e in events:
            if e.kind == "read_reset":
                reads.append(ReadRecord(window_index=window_index, qubit=e.qubit,
                                        data_index=e.data_index, symbol=occ.pop(e.qubit, None),
                                        z_parity=z_parity.pop(e.qubit, 0)))
            elif e.kind == "inject":
                if e.qubit in occ:
                    violations.append(Violation(
                        window_index=window_index, kind="inject_occupied", qubits=(e.qubit,),
                        message=f"inject into qubit {e.qubit} holding "
                                f"{_symbol_text(occ[e.qubit])}"))
                occ[e.qubit] = e.data_index
                z_parity[e.qubit] = 0

    targets = [frozenset(_gate_targets(w)) for w in windows]
    boundaries = list(map(_boundary_events, windows))
    i = 0
    while i < len(windows):
        run_boundary(boundaries[i], i)
        t0 = targets[i]
        pairs = None
        if (t0 and i + 2 < len(windows) and t0 == targets[i + 2]
                and not (boundaries[i + 1] or boundaries[i + 2])):
            pairs = set_match_pairs(sorted(t0), sorted(targets[i + 1]))
        if pairs is not None and not t0 & targets[i + 1]:
            swaps.append((i, tuple(a for a, _ in pairs)))
            all_targets = t0 | targets[i + 1]
            for a, b in pairs:
                for outer in (a - 1, b + 1):
                    if outer in all_targets:
                        state = "is pulsed"
                    elif outer in occ:
                        state = f"holds {_symbol_text(occ[outer])}"
                    else:
                        continue
                    violations.append(Violation(
                        window_index=i, kind="sacrificial_occupied", qubits=(outer,),
                        message=f"outer neighbour {outer} of pair ({a},{b}) {state}"))
            snapshot()
            rows.append(rows[-1])
            partner = {a: b for a, b in pairs} | {b: a for a, b in pairs}
            occ = {partner.get(q, q): symbol for q, symbol in occ.items()}
            z_parity = {partner.get(q, q): p ^ (q in partner) for q, p in z_parity.items()}
            snapshot()
            i += 3
            continue
        snapshot()
        for q in sorted(t0):
            if {q, q + 1} <= t0:
                violations.append(Violation(
                    window_index=i, kind="pulsed_neighbour", qubits=(q, q + 1),
                    message=f"neighbours {q} and {q + 1} are pulsed in one window"))
            if occ.get(q) != occ.get(q + 1):
                violations.append(Violation(
                    window_index=i, kind="indeterminate", qubits=(q,),
                    message=f"cannot compare qubit {q} ({_symbol_text(occ.get(q))}) "
                            f"with its right neighbour ({_symbol_text(occ.get(q + 1))})"))
        copied = {q: occ[q - 1] for q in t0 if q - 1 in occ}
        for q in t0:
            occ.pop(q, None)
            z_parity.pop(q, None)
        occ.update(copied)
        i += 1

    run_boundary(final_events, None)
    width = n if n <= np.iinfo(np.intp).max else 0
    held = np.frombuffer(b"".join(rows), dtype=bool).reshape(len(windows), width)
    return ReplayResult(violations=tuple(violations), data_held=held, reads=tuple(reads),
                        swaps=tuple(swaps))


def plain_window_eigensystem(spec, biases, duration, cache):
    """``runner._window_eigensystem`` as one ``eigh`` of each window's own
    Hamiltonian, with no eigenvectors shared between mirror images and no
    window applied ``mirrored``."""
    return *eigensystem(build_hamiltonian(spec, biases), duration), False


def svd_replace_qubit(self, qubit, local):
    """``QuantumState._replace_qubit`` before it compressed through the Gram
    matrix: a thin SVD of the ``2r`` columns that keeps every singular value
    above ``TRUNCATION_RTOL`` of the largest."""
    pre, post = self._axes(qubit)
    w = self.data.reshape(pre, 2, post, -1)
    rest = w.transpose(0, 2, 1, 3).reshape(pre * post, -1)
    u, s, _ = np.linalg.svd(rest, full_matrices=False)
    keep = s > TRUNCATION_RTOL * s[0]
    rest = (u[:, keep] * s[keep]).reshape(pre, 1, post, -1)
    self._store((rest * local[:, None, None]).reshape(self.dim, -1))


def unfolded_apply_layer(mps, targets, pulse):
    """:meth:`CanonicalMPS.apply_layer` before it folded frozen neighbours:
    each pulse is built with both neighbours in its block (``pulse(q, None,
    None)``, 0 past a chain end) and applied to the :class:`CanonicalMPS`
    ``mps`` in the same order; a layer of disjoint blocks is swept from the
    end nearer the centre."""
    last = mps.n_qubits - 1
    ops = [(pulse(q, None if q > 0 else 0, None if q < last else 0), max(q - 1, 0)) for q in targets]
    ends = [first + op.shape[0].bit_length() - 2 for op, first in ops]
    disjoint = all(ends[i] < ops[i + 1][1] for i in range(len(ops) - 1))
    if disjoint and ops and abs(ends[-1] - mps.center) < abs(ops[0][1] - mps.center):
        ops = ops[::-1]
    for op, first in ops:
        mps.apply(op, first)


def mirror_schedule(schedule, lines):
    """The schedule run right to left: qubit q becomes L-1-q in every event,
    each window's bias row is reversed and so is the line map."""
    last = schedule.n_qubits - 1

    def flip(events):
        return tuple(PulseEvent(e.kind, last - e.qubit, e.data_index) for e in events)

    rows, final_events = schedule_rows(schedule)
    windows = tuple(Window(w.start_ns, w.duration_ns, w.biases_mhz[::-1], flip(w.events))
                    for w in rows)
    mirrored = PulseSchedule(schedule.n_qubits, windows, flip(final_events), schedule.label)
    return mirrored, LineAssignment(lines.lines[::-1], lines.n_lines)


class CanonicalMPS:
    """``swapchannel.mps.MPS`` before it took Vidal form: a pure state of
    ``n_qubits`` qubits as a mixed-canonical MPS with an orthogonality centre.

    Operations update the state in place and return nothing, as those of
    :class:`~swapchannel.evolve.QuantumState` do.  ``max_bond`` is the largest bond
    dimension any split has produced; ``discarded_weight`` is the summed
    squared weight of the singular values dropped, each split's share taken
    relative to the norm of the state it split, plus the off-basis slices
    that :meth:`basis_value` drops.
    """

    def __init__(self, n_qubits: int):
        """Product state |0...0>, its centre at qubit 0."""
        n_qubits = _integer(n_qubits, "n_qubits", low=1)
        ket0 = np.array([1.0, 0.0], dtype=complex).reshape(1, 2, 1)
        self.tensors = [ket0.copy() for _ in range(n_qubits)]
        self.center = 0
        self.max_bond = 1
        self.discarded_weight = 0.0

    @classmethod
    def ground(cls, n_qubits: int) -> "CanonicalMPS":
        """Product state |0...0>."""
        return cls(n_qubits)

    @property
    def n_qubits(self) -> int:
        return len(self.tensors)

    def trace(self) -> float:
        """Squared norm of the state (1 for a normalised state)."""
        c = self.tensors[self.center]
        return float(np.vdot(c, c).real)

    # -- gauge ----------------------------------------------------------------

    def _move_center(self, site: int) -> None:
        t = self.tensors
        while self.center < site:
            c = self.center
            dl, _, dr = t[c].shape
            u, s, vh = self._svd(t[c].reshape(2 * dl, dr))
            t[c] = u.reshape(dl, 2, -1)
            t[c + 1] = ((s[:, None] * vh) @ t[c + 1].reshape(dr, -1)).reshape(s.size, 2, -1)
            self.center = c + 1
        while self.center > site:
            c = self.center
            dl, _, dr = t[c].shape
            u, s, vh = self._svd(t[c].reshape(dl, 2 * dr))
            t[c] = vh.reshape(-1, 2, dr)
            t[c - 1] = (t[c - 1].reshape(-1, dl) @ (u * s)).reshape(-1, 2, s.size)
            self.center = c - 1

    def _svd(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD, truncated at ``TRUNCATION_RTOL``; updates the counters.

        A single row or column (a product cut) is its own SVD: norm times
        unit vector.
        """
        if 1 in m.shape:
            norm = np.linalg.norm(m)
            one = np.ones((1, 1))
            if m.shape[1] == 1:
                return m / norm, np.array([norm]), one
            return one, np.array([norm]), m / norm
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        keep = int(np.count_nonzero(s > TRUNCATION_RTOL * s[0]))
        if keep < s.size:
            s2 = s * s
            self.discarded_weight += float(s2[keep:].sum() / s2.sum())
            u, s, vh = u[:, :keep], s[:keep], vh[:keep]
        self.max_bond = max(self.max_bond, keep)
        return u, s, vh

    # -- operations -------------------------------------------------------------

    def apply(self, op: np.ndarray, first_qubit: int) -> None:
        """Apply an operator on ``k`` adjacent qubits starting at ``first_qubit``.

        The operator is a 2^k x 2^k matrix in chain ordering over those
        qubits.  The centre is brought to the nearer end of the block and
        leaves from the other end, so a sweep of operators in either
        direction crosses each site once.
        """
        op = np.asarray(op)
        d = op.shape[0]
        k = d.bit_length() - 1
        if op.shape != (1 << k, 1 << k) or not 0 <= first_qubit <= self.n_qubits - k:
            raise ValueError(f"no {op.shape} operator at qubit {first_qubit} for n={self.n_qubits}")
        last = first_qubit + k - 1
        rightward = self.center <= first_qubit
        self._move_center(first_qubit if rightward else last)

        t = self.tensors
        dl, dr = t[first_qubit].shape[0], t[last].shape[2]
        theta = t[first_qubit]
        for i in range(first_qubit + 1, last + 1):
            theta = theta.reshape(-1, t[i].shape[0]) @ t[i].reshape(t[i].shape[0], -1)
        theta = op @ theta.reshape(dl, d, dr)

        if rightward:
            for i in range(first_qubit, last):
                u, s, vh = self._svd(theta.reshape(2 * dl, -1))
                t[i] = u.reshape(dl, 2, -1)
                dl = s.size
                theta = s[:, None] * vh
            t[last] = theta.reshape(dl, 2, dr)
            self.center = last
        else:
            for i in range(last, first_qubit, -1):
                u, s, vh = self._svd(theta.reshape(-1, 2 * dr))
                t[i] = vh.reshape(-1, 2, dr)
                dr = s.size
                theta = u * s
            t[first_qubit] = theta.reshape(dl, 2, dr)
            self.center = first_qubit

    def basis_value(self, qubit: int) -> int | None:
        """The qubit's z value (+1 for |0>, -1 for |1>) if it is frozen in a
        basis state, else None; reads and writes its tensor only, with no
        centre move.

        The qubit counts as frozen when the squared norm of its other slice
        is at most ``TRUNCATION_RTOL**2`` of the tensor's, the rule every
        split applies, and then, as a split does, the slice is dropped and
        its share added to ``discarded_weight``.  So the qubit is that basis
        state exactly, and a later read of it drops nothing more.
        """
        t = self.tensors[qubit]
        w = (abs(t) ** 2).sum(axis=(0, 2)).tolist()
        for z, other in ((1, 1), (-1, 0)):
            if w[other] <= TRUNCATION_RTOL**2 * (w[0] + w[1]):
                if w[other]:
                    self.discarded_weight += w[other] / (w[0] + w[1])
                    self.tensors[qubit] = t = t.copy()
                    t[:, other] = 0.0
                return z
        return None

    def apply_layer(self, targets: Sequence[int], pulse: Callable[..., np.ndarray]) -> None:
        """Pulse the ``targets`` in order, each conditioned on its neighbours.

        ``pulse(qubit, left, right)`` returns the operator, given the
        :meth:`basis_value` of each neighbour (0 past a chain end), read just
        before the pulse, and :meth:`apply` takes it on the qubit and its
        live (None) neighbours: a frozen neighbour leaves the block, so a
        pulse spans 1-3 sites.  Pulses whose neighbourhoods are pairwise
        disjoint and ascending commute, so such a layer is swept from
        whichever end is nearer the centre: consecutive layers then sweep
        back and forth instead of first returning the centre across the
        chain.
        """
        n = self.n_qubits
        spans = [(max(q - 1, 0), min(q + 1, n - 1)) for q in targets]
        disjoint = all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
        if disjoint and spans and abs(spans[-1][1] - self.center) < abs(spans[0][0] - self.center):
            targets = targets[::-1]
        for q in targets:
            left = self.basis_value(q - 1) if q > 0 else 0
            right = self.basis_value(q + 1) if q < n - 1 else 0
            self.apply(pulse(q, left, right), q - (left is None))

    def reduced_state(self, qubit: int) -> tuple[np.ndarray, float]:
        """(2x2 reduced density matrix, its purity) for one qubit."""
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} out of range for n={self.n_qubits}")
        self._move_center(qubit)
        m = self.tensors[qubit].transpose(1, 0, 2).reshape(2, -1)
        rho2 = m @ m.conj().T
        return rho2, float(np.trace(rho2 @ rho2).real)

    def _project(self, qubit: int, rho2: np.ndarray, local: np.ndarray) -> None:
        """Keep the qubit's dominant local branch, renormalise the rest and
        tensor ``local`` in (the centre must be at ``qubit``)."""
        evals, evecs = np.linalg.eigh(rho2)
        dominant = evecs[:, int(np.argmax(evals))]
        rest = dominant.conj() @ self.tensors[qubit]
        rest = rest / np.linalg.norm(rest)
        self.tensors[qubit] = rest[:, None, :] * local[None, :, None]

    def reset(self, qubit: int) -> None:
        """Re-prepare the qubit in |0>, even if it is still entangled.

        A pure state cannot hold the mixture that tracing the qubit out
        leaves, so the qubit is projected on its dominant local state.
        """
        self._project(qubit, self.reduced_state(qubit)[0], np.array([1.0, 0.0], dtype=complex))

    def inject(self, qubit: int, amplitudes: Sequence[complex]) -> None:
        """Overwrite one separable qubit with a fresh single-qubit pure state.

        Refuses as the package does:
        raises :class:`~swapchannel.evolve.EntanglementError`, leaving the
        tensors, centre and counters as they were, if the qubit's purity is
        below ``1 - INJECT_PURITY_TOL``.  Otherwise it is projected as
        :meth:`reset` projects, with ``amplitudes`` tensored in.
        """
        target = _checked_amplitudes(amplitudes)
        before = (list(self.tensors), self.center, self.max_bond, self.discarded_weight)
        rho2, purity = self.reduced_state(qubit)
        try:
            _require_separable(qubit, purity)
        except EntanglementError:
            self.tensors, self.center, self.max_bond, self.discarded_weight = before
            raise
        self._project(qubit, rho2, target)
