"""State containers and exact time evolution for small dense systems.

Pure states are complex vectors, mixed states are density matrices; both are
wrapped in :class:`QuantumState` so the channel runners can treat them
uniformly.  Propagators are built by exact diagonalisation (the Hamiltonians
here are small and dense, so ``eigh`` is both the fastest and the most
accurate route).  The chain Hamiltonian is real symmetric, so its propagator
comes from a real ``eigh`` and two real matrix products; complex Hermitian
input takes the complex route.  Applying a propagator costs one
matrix-vector product on a pure state and two matrix-matrix products on a
density matrix, which is why the full-mode runner keeps a vector for as long
as the state stays pure.  Reduced-mode wire runs do not use these dense
states; they run on :class:`~swapchannel.mps.MPS`, which keeps the inject
contract of :func:`inject_state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import is_hermitian, phase_angle

__all__ = [
    "EntanglementError",
    "QuantumState",
    "propagator",
    "apply_unitary",
    "apply_local_unitary",
    "reduced_state",
    "reset_qubit",
    "inject_state",
    "sample_trajectory",
]

#: A qubit is treated as cleanly separable when its reduced purity is above this.
PURITY_TOLERANCE = 1e-6


class EntanglementError(ValueError):
    """Raised when an operation needs a separable qubit but finds entanglement."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuantumState:
    """Either a pure state vector or a density matrix on ``n_qubits`` qubits."""

    kind: str  # "pure" | "mixed"
    data: np.ndarray
    n_qubits: int

    @classmethod
    def pure(cls, amplitudes: Sequence[complex]) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.ndim != 1 or vec.size == 0 or (vec.size & (vec.size - 1)) != 0:
            raise ValueError(f"amplitude vector length must be a power of 2, got {vec.shape}")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm must be 1 within 1e-9, got {norm!r}")
        return cls(kind="pure", data=_readonly(vec), n_qubits=vec.size.bit_length() - 1)

    @classmethod
    def mixed(cls, density: np.ndarray) -> "QuantumState":
        rho = np.asarray(density, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        dim = rho.shape[0]
        if dim == 0 or (dim & (dim - 1)) != 0:
            raise ValueError(f"density dimension must be a power of 2, got {dim}")
        if not is_hermitian(rho, tol=1e-9):
            raise ValueError("density matrix must be Hermitian")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density trace must be 1 within 1e-8, got {tr!r}")
        return cls(kind="mixed", data=_readonly(rho), n_qubits=dim.bit_length() - 1)

    @classmethod
    def ground(cls, n_qubits: int) -> "QuantumState":
        vec = np.zeros(1 << n_qubits, dtype=complex)
        vec[0] = 1.0
        return cls.pure(vec)

    def density(self) -> np.ndarray:
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)

    def to_mixed(self) -> "QuantumState":
        if self.kind == "mixed":
            return self
        return QuantumState.mixed(self.density())

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def trace(self) -> float:
        if self.kind == "pure":
            return float(np.vdot(self.data, self.data).real)
        return float(np.trace(self.data).real)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def propagator(hamiltonian: np.ndarray, duration_ns: float) -> np.ndarray:
    """Unitary ``exp(-i * 2pi*1e-3 * H * t)`` for an H in MHz and t in ns.

    A real (symmetric) H is diagonalised in real arithmetic and
    ``U = V e^{-iEt} V^T`` is assembled from two real products, its real and
    imaginary parts; a complex Hermitian H takes the complex route.
    """
    h = np.asarray(hamiltonian)
    if not is_hermitian(h):
        raise ValueError("propagator requires a Hermitian matrix")
    if duration_ns < 0:
        raise ValueError(f"duration_ns must be >= 0, got {duration_ns}")
    evals, evecs = np.linalg.eigh(h)
    angles = phase_angle(evals, duration_ns)
    if np.iscomplexobj(h):
        return (evecs * np.exp(-1j * angles)) @ evecs.conj().T
    u = np.empty(h.shape, dtype=complex)
    u.real = (evecs * np.cos(angles)) @ evecs.T
    u.imag = (evecs * -np.sin(angles)) @ evecs.T
    return u


def apply_unitary(state: QuantumState, u: np.ndarray) -> QuantumState:
    u = np.asarray(u, dtype=complex)
    if u.shape != (state.dim, state.dim):
        raise ValueError(f"operator shape {u.shape} does not match state dim {state.dim}")
    if state.kind == "pure":
        return QuantumState(kind="pure", data=_readonly(u @ state.data), n_qubits=state.n_qubits)
    return QuantumState(
        kind="mixed", data=_readonly(u @ state.data @ u.conj().T), n_qubits=state.n_qubits
    )


def apply_local_unitary(state: QuantumState, u: np.ndarray, first_qubit: int) -> QuantumState:
    """Apply an operator acting on ``k`` adjacent qubits starting at ``first_qubit``
    to a pure state, without forming the full 2^n operator.

    Its callers (the phase ledger of :func:`~swapchannel.gates.track_phases`)
    follow basis vectors, so a mixed state is refused with ``ValueError``.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1] or d & (d - 1):
        raise ValueError(f"local operator must be square with power-of-2 dim, got {u.shape}")
    k = d.bit_length() - 1
    n = state.n_qubits
    if not 0 <= first_qubit <= n - k:
        raise ValueError(f"qubits [{first_qubit}, {first_qubit + k}) out of range for n={n}")
    if state.kind != "pure":
        raise ValueError("apply_local_unitary takes a pure state")
    psi = state.data.reshape(1 << first_qubit, d, -1)
    out = np.einsum("ab,xbz->xaz", u, psi)
    return QuantumState(kind="pure", data=_readonly(out.reshape(-1)), n_qubits=n)


# ---------------------------------------------------------------------------
# single-qubit observables and boundary operations
# ---------------------------------------------------------------------------


def _axes(state: QuantumState, qubit: int) -> tuple[int, int]:
    n = state.n_qubits
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for n={n}")
    return 1 << qubit, 1 << (n - qubit - 1)


def reduced_state(state: QuantumState, qubit: int) -> tuple[np.ndarray, float]:
    """(2x2 reduced density matrix, its purity) for one qubit."""
    pre, post = _axes(state, qubit)
    if state.kind == "pure":
        psi = state.data.reshape(pre, 2, post)
        rho2 = np.einsum("xaz,xbz->ab", psi, psi.conj())
    else:
        rho = state.data.reshape(pre, 2, post, pre, 2, post)
        rho2 = np.einsum("xazxbz->ab", rho)
    purity = float(np.trace(rho2 @ rho2).real)
    return rho2, purity


def _replace_qubit(state: QuantumState, qubit: int, target_rho: np.ndarray) -> QuantumState:
    """Trace out one qubit of a mixed state and tensor in ``target_rho``."""
    pre, post = _axes(state, qubit)
    rho = state.to_mixed().data.reshape(pre, 2, post, pre, 2, post)
    rest = np.einsum("xazuav->xzuv", rho)
    out = np.einsum("ab,xzuv->xazubv", target_rho, rest)
    return QuantumState(
        kind="mixed", data=_readonly(out.reshape(state.dim, state.dim)), n_qubits=state.n_qubits
    )


def reset_qubit(state: QuantumState, qubit: int) -> QuantumState:
    """Read-and-discard: trace the qubit out and re-prepare it in |0>.

    Always returns a mixed state; if the qubit was still entangled the rest of
    the register is left as a genuine mixture (the read reports its purity).
    """
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    return _replace_qubit(state, qubit, ket0)


def _checked_amplitudes(amplitudes: Sequence[complex]) -> np.ndarray:
    target = np.asarray(amplitudes, dtype=complex)
    if target.shape != (2,):
        raise ValueError(f"amplitudes must have shape (2,), got {target.shape}")
    if abs(np.linalg.norm(target) - 1.0) > 1e-9:
        raise ValueError("injected amplitudes must be normalised within 1e-9")
    return target


def _require_separable(qubit: int, purity: float, purity_tol: float) -> None:
    if purity < 1.0 - purity_tol:
        raise EntanglementError(
            f"qubit {qubit} has reduced purity {purity:.6f}; refusing to inject"
        )


def inject_state(
    state: QuantumState,
    qubit: int,
    amplitudes: Sequence[complex],
    *,
    purity_tol: float = PURITY_TOLERANCE,
) -> QuantumState:
    """Overwrite one separable qubit with a fresh single-qubit pure state.

    Raises :class:`EntanglementError` if the qubit is not separable to within
    ``purity_tol`` (injection would silently corrupt correlations).  Pure
    states stay pure.
    """
    target = _checked_amplitudes(amplitudes)
    rho2, purity = reduced_state(state, qubit)
    _require_separable(qubit, purity, purity_tol)
    if state.kind == "pure":
        pre, post = _axes(state, qubit)
        evals, evecs = np.linalg.eigh(rho2)
        local = evecs[:, int(np.argmax(evals))]
        psi = state.data.reshape(pre, 2, post)
        rest = np.einsum("a,xaz->xz", local.conj(), psi)
        rest = rest / np.linalg.norm(rest)
        out = np.einsum("a,xz->xaz", target, rest)
        return QuantumState(kind="pure", data=_readonly(out.reshape(-1)), n_qubits=state.n_qubits)
    return _replace_qubit(state, qubit, np.outer(target, target.conj()))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def sample_trajectory(
    state: QuantumState,
    hamiltonian: np.ndarray,
    duration_ns: float,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit P(|1>) on a uniform time grid including both endpoints.

    Returns ``(times, probs)`` with ``probs[i, q]`` the population of qubit
    ``q`` at ``times[i]``.  A zero duration yields empty arrays (no rows).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    n = state.n_qubits
    if duration_ns == 0:
        return np.zeros(0), np.zeros((0, n))
    dt = duration_ns / n_samples
    step = propagator(hamiltonian, dt)
    times = np.linspace(0.0, duration_ns, n_samples + 1)
    probs = np.zeros((n_samples + 1, n))
    current = state
    for i in range(n_samples + 1):
        if i > 0:
            current = apply_unitary(current, step)
        probs[i] = [reduced_state(current, q)[0][1, 1].real for q in range(n)]
    return times, probs
