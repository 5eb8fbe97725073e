"""Reference implementations used to cross-check the package.

The chain oracles deliberately avoid the package's own construction paths:
Hamiltonians are built by explicit Kronecker sums, propagators by scipy's
scaling-and-squaring exponential, and two-level propagators by the
closed-form Rabi rotation.  The dense reduced-mode replay is the package's
former reduced path (dense vector, local einsums), kept as the reference the
matrix-product-state backend must reproduce.  The schedule serialiser and the
frame correction and the reduced pulse operator are the package's former
per-value routes: ``json.dumps`` of the schedule document, one scalar
``phase_angle`` per parked qubit, and one matrix element at a time."""

import json

import numpy as np
import scipy.linalg

from swapchannel.chain import TwoLevelParams, phase_angle, wrap_phase
from swapchannel.evolve import (
    PURITY_TOLERANCE,
    QuantumState,
    apply_local_unitary,
    inject_state,
    propagator,
    reduced_state,
)
from swapchannel.gates import reduced_pulse_operator
from swapchannel.scheduler import ScheduleError, replay_occupancy

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


def dense_reduced_replay(spec, schedule, inject_amplitudes, on_read, *, inject_tol, read_tol):
    """Reduced-mode run of ``schedule`` on a dense 2^L state vector.

    This is the dense path the runners used before the MPS backend, kept as
    the reference it must match: ``QuantumState`` + ``apply_local_unitary`` +
    ``inject_state``, with each pulse the ``reduced_pulse_operator`` at the
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
                state = inject_state(state, e.qubit, (1.0, 0.0), purity_tol=read_tol)
            elif e.kind == "inject":
                amps = inject_amplitudes(e.data_index)
                state = inject_state(state, e.qubit, amps, purity_tol=inject_tol)

    for i, window in enumerate(schedule.windows):
        boundary(window.boundary_events(), i)
        for q in window.gate_targets():
            has_left, has_right = q > 0, q < n - 1
            op = reduced_pulse_operator(
                spec.delta_mhz,
                spec.xi_mhz,
                window.biases_mhz[q],
                window.duration_ns,
                has_left=has_left,
                has_right=has_right,
            )
            state = apply_local_unitary(state, op, q - has_left)
    boundary(schedule.final_events, None)
    return state


def dense_reduced_wire(spec, schedule, states, *, purity_tol=1e-3, read_tol=PURITY_TOLERANCE):
    """Reduced-mode quantum wire on a dense vector: ``(records, final_state)``
    with one ``(data_index, window_index, fidelity, phase_error, purity)``
    tuple per read, computed as ``run_quantum_channel`` grades a read.
    ``read_tol`` is the purity tolerance of the |0> inject that resets a
    read qubit."""
    states = [np.asarray(s, dtype=complex) for s in states]
    records = []

    def on_read(state, e, w):
        rho2, purity = reduced_state(state, e.qubit)
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


def _event_obj(e) -> dict:
    return {"kind": e.kind, "qubit": e.qubit, "data_index": e.data_index}


def json_dumps_schedule(schedule, assignment=None) -> str:
    """``schedule_to_json`` as ``json.dumps`` of the schedule document."""
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
            for w in schedule.windows
        ],
        "final_events": [_event_obj(e) for e in schedule.final_events],
        "lines": None
        if assignment is None
        else {"map": list(assignment.lines), "n_lines": assignment.n_lines},
    }
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def loop_frame_correction(schedule, spec) -> np.ndarray:
    """``compute_frame_correction`` one parked qubit at a time."""
    replay = replay_occupancy(schedule)
    if replay.violations:
        raise ScheduleError(f"{len(replay.violations)} replay violations")
    n = schedule.n_qubits
    angles = np.zeros((schedule.n_windows, n))
    for w, window in enumerate(schedule.windows):
        targets = set(window.gate_targets())
        occ = replay.window_occupancy[w]
        for q in range(n):
            if q in targets:
                continue
            s_nb = 0
            for r in (q - 1, q + 1):
                if 0 <= r < n and r not in targets and isinstance(occ[r], int):
                    s_nb += 1 - 2 * occ[r]
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
