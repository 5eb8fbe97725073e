"""Ideal gate matrices and exact phase bookkeeping.

All matrices are written in the chain's own basis ordering (leftmost listed
qubit is the most significant bit).  The ideal gates carry the exact branch
phases of a phase-exact design (M odd, N even): a held branch acquires -1, a
flipped branch -i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import TwoLevelParams, _z_values, effective_bias, is_unitary, wrap_phase
from .evolve import QuantumState, apply_local_unitary, propagator

__all__ = [
    "PhasedGate",
    "ideal_cnot",
    "ideal_swap",
    "ideal_copy",
    "reduced_pulse_operator",
    "PhaseEntry",
    "PhaseLedger",
    "track_phases",
]

_ALLOWED_DIMS = (2, 4, 8)


@dataclass(frozen=True)
class PhasedGate:
    """A unitary with its phases taken literally (no global-phase freedom)."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _ALLOWED_DIMS:
            raise ValueError(f"gate must be square with dim in {_ALLOWED_DIMS}, got {m.shape}")
        if not is_unitary(m, tol=1e-10):
            raise ValueError(f"gate {self.label!r} is not unitary within 1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def ideal_cnot() -> PhasedGate:
    """Controlled flip in |control, target> ordering.

    Control |0>: target held, branch phase -1.  Control |1>: target flipped,
    branch phase -i.
    """
    m = np.array(
        [
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, 0, -1j],
            [0, 0, -1j, 0],
        ],
        dtype=complex,
    )
    return PhasedGate(matrix=m, label="cnot")


def _cnot_on(target_first: bool) -> np.ndarray:
    """CNOT matrix in |q1, q2> ordering with the target at q1 or q2."""
    c = ideal_cnot().matrix
    if not target_first:
        return c
    perm = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return perm @ c @ perm


def ideal_swap() -> PhasedGate:
    """Exchange of two adjacent qubits via three controlled flips.

    Built as pulse-target sequence (first, second, first).  The branch phases
    compose to: |00> -> -|00>, |01> -> +|10>, |10> -> +|01>, |11> -> +|11>.
    """
    gl = _cnot_on(target_first=True)
    gr = _cnot_on(target_first=False)
    return PhasedGate(matrix=gl @ gr @ gl, label="swap")


def ideal_copy(neighbor_states: Sequence[int]) -> PhasedGate:
    """Single-pulse action on the target given frozen basis neighbours.

    ``neighbor_states`` lists the target's chain neighbours (one entry for an
    end qubit, two for an interior one); a missing neighbour behaves as a
    virtual |0>.  The target flips iff the (padded) neighbours differ.
    """
    states = tuple(neighbor_states)
    if len(states) not in (1, 2) or any(s not in (0, 1) for s in states):
        raise ValueError(f"neighbor_states must be one or two 0/1 values, got {states!r}")
    if len(states) == 1:
        states = (states[0], 0)
    if states[0] == states[1]:
        m = -np.eye(2, dtype=complex)
    else:
        m = np.array([[0, -1j], [-1j, 0]], dtype=complex)
    return PhasedGate(matrix=m, label="copy")


def reduced_pulse_operator(
    delta_mhz: float,
    xi_mhz: float,
    pulse_bias_mhz: float,
    duration_ns: float,
    *,
    has_left: bool = True,
    has_right: bool = True,
) -> np.ndarray:
    """Exact window propagator for one pulsed qubit with frozen neighbours.

    Returns the block operator over the chain-ordered qubits
    (left?, target, right?): for each neighbour basis configuration the 2x2
    block is the exact two-level propagator at the
    :func:`~swapchannel.chain.effective_bias` of the target.  For a solved
    phase-exact design this reproduces the ideal gates above, bit for bit.
    """
    neighbours = int(has_left) + int(has_right)
    k = 1 + neighbours
    target_axis = int(has_left)
    # one row per neighbour configuration (target in |0>); the target adds nothing
    z = _z_values(k)
    z = z[z[:, target_axis] == 1] * (np.arange(k) != target_axis)
    biases = np.zeros(z.shape)
    biases[:, target_axis] = pulse_bias_mhz
    sigmas = effective_bias(biases, xi_mhz, z)[:, target_axis]
    # block diagonal in (neighbours, target) order, then the target axis moved
    # to its chain position on both the output and the input side
    out = np.zeros((len(z), 2, len(z), 2), dtype=complex)
    for c, sigma in enumerate(sigmas):
        h2 = TwoLevelParams(delta_mhz, float(sigma)).hamiltonian()
        out[c, :, c, :] = propagator(h2, duration_ns)
    out = np.moveaxis(
        out.reshape((2,) * (2 * k)), (k - 1, 2 * k - 1), (target_axis, k + target_axis)
    )
    return out.reshape(1 << k, 1 << k)


# ---------------------------------------------------------------------------
# phase bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseEntry:
    source_index: int
    target_index: int
    phase: float


@dataclass(frozen=True)
class PhaseLedger:
    """Where each occupied basis state went and what phase it picked up."""

    n_qubits: int
    entries: tuple[PhaseEntry, ...]

    def entry_for(self, source_index: int) -> PhaseEntry:
        for e in self.entries:
            if e.source_index == source_index:
                return e
        raise KeyError(f"no ledger entry for source index {source_index}")

    def relative_phase(self, source_a: int, source_b: int) -> float:
        """Phase of a's branch minus b's, wrapped into (-pi, pi]."""
        return wrap_phase(self.entry_for(source_a).phase - self.entry_for(source_b).phase)


def track_phases(
    sequence: Sequence[tuple[PhasedGate | np.ndarray, Sequence[int]]],
    input_amplitudes: Sequence[complex],
) -> PhaseLedger:
    """Propagate each occupied basis state through a basis-preserving sequence.

    ``sequence`` is a list of (gate, qubits) with contiguous ascending qubit
    tuples.  Raises ``ValueError`` if any occupied basis state is split over
    several outputs (the sequence is then not basis-preserving and a phase
    ledger is meaningless).
    """
    amps = np.asarray(input_amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size & (amps.size - 1):
        raise ValueError(f"input must be a power-of-2 length vector, got {amps.shape}")
    n = amps.size.bit_length() - 1

    ops: list[tuple[np.ndarray, int]] = []
    for gate, qubits in sequence:
        m = gate.matrix if isinstance(gate, PhasedGate) else np.asarray(gate, dtype=complex)
        qs = tuple(qubits)
        if list(qs) != list(range(qs[0], qs[0] + len(qs))):
            raise ValueError(f"gate qubits must be contiguous ascending, got {qs}")
        if m.shape[0] != 1 << len(qs):
            raise ValueError(f"gate dim {m.shape[0]} does not match {len(qs)} qubits")
        ops.append((m, qs[0]))

    entries = []
    for src in np.flatnonzero(np.abs(amps) > 1e-12):
        vec = np.zeros(amps.size, dtype=complex)
        vec[src] = 1.0
        state = QuantumState.pure(vec)
        for m, first in ops:
            state = apply_local_unitary(state, m, first)
        out = state.data[:, 0]
        occupied = np.flatnonzero(np.abs(out) > 1e-9)
        if occupied.size != 1:
            raise ValueError(
                f"sequence is not basis-preserving: source {src} spread over "
                f"{occupied.size} basis states"
            )
        tgt = int(occupied[0])
        entries.append(
            PhaseEntry(
                source_index=int(src),
                target_index=tgt,
                phase=wrap_phase(float(np.angle(out[tgt]))),
            )
        )
    return PhaseLedger(n_qubits=n, entries=tuple(entries))
