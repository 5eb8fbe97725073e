"""State containers and exact time evolution for small dense systems.

A dense state is one factor ``W`` of shape ``(2^n, r)`` with density matrix
``rho = W W^dagger``, the purification form (Verstraete, Garcia-Ripoll and
Cirac, PRL 93, 207204 (2004)); a pure state is simply ``r = 1``.  Every
operation has one body at every rank: a propagator acts as ``U @ W``, a
reduced state is one contraction of ``W`` with its conjugate, and a reset or
inject traces the qubit out by turning its |0> and |1> slices into ``2r``
columns, compressed by a thin SVD that drops singular values at or below
``TRUNCATION_RTOL`` of the largest.  Applying a propagator costs ``dim^2 r``
complex multiply-adds, against ``2 dim^3`` for ``U rho U^dagger``.

Propagators are built by exact diagonalisation (the Hamiltonians here are
small and dense, so ``eigh`` is both the fastest and the most accurate
route).  The chain Hamiltonian is real symmetric, so its propagator comes
from a real ``eigh`` and two real matrix products; complex Hermitian input
takes the complex route.  Reduced-mode wire runs do not use these dense
states; they run on :class:`~swapchannel.mps.MPS`, which refuses injects as
:func:`inject_state` does.
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

#: Singular values at or below this fraction of the largest are dropped by an
#: SVD compression (of a dense factor here, of an MPS bond in ``mps``).
TRUNCATION_RTOL = 1e-14


class EntanglementError(ValueError):
    """Raised when an operation needs a separable qubit but finds entanglement."""


@dataclass(frozen=True)
class QuantumState:
    """The state ``rho = W W^dagger`` of ``n_qubits`` qubits, held as its factor.

    ``data`` is ``W``, a read-only complex array of shape ``(2^n_qubits, r)``;
    the constructor keeps its own copy.
    """

    data: np.ndarray

    def __post_init__(self):
        w = np.array(self.data, dtype=complex)
        if w.ndim != 2 or w.shape[0] & (w.shape[0] - 1) or 0 in w.shape:
            raise ValueError(f"factor must be (2^n, r) with r >= 1, got shape {w.shape}")
        w.flags.writeable = False
        object.__setattr__(self, "data", w)

    @classmethod
    def pure(cls, amplitudes: Sequence[complex]) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.ndim != 1 or vec.size == 0 or (vec.size & (vec.size - 1)) != 0:
            raise ValueError(f"amplitude vector length must be a power of 2, got {vec.shape}")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm must be 1 within 1e-9, got {norm!r}")
        return cls(vec[:, None])

    @classmethod
    def ground(cls, n_qubits: int) -> "QuantumState":
        vec = np.zeros(1 << n_qubits, dtype=complex)
        vec[0] = 1.0
        return cls.pure(vec)

    @property
    def n_qubits(self) -> int:
        return self.data.shape[0].bit_length() - 1

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def kind(self) -> str:
        """``"pure"`` for a one-column factor, else ``"mixed"`` (for reports)."""
        return "pure" if self.data.shape[1] == 1 else "mixed"

    def trace(self) -> float:
        """``tr rho``, the squared Frobenius norm of the factor."""
        return float(np.vdot(self.data, self.data).real)


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
    return QuantumState(u @ state.data)


def apply_local_unitary(state: QuantumState, u: np.ndarray, first_qubit: int) -> QuantumState:
    """Apply an operator acting on ``k`` adjacent qubits starting at ``first_qubit``,
    without forming the full 2^n operator."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1] or d & (d - 1):
        raise ValueError(f"local operator must be square with power-of-2 dim, got {u.shape}")
    k = d.bit_length() - 1
    n = state.n_qubits
    if not 0 <= first_qubit <= n - k:
        raise ValueError(f"qubits [{first_qubit}, {first_qubit + k}) out of range for n={n}")
    # rows of W are (qubits before, the k qubits, qubits after); its columns
    # ride along with the qubits after
    w = state.data.reshape(1 << first_qubit, d, -1)
    out = np.einsum("ab,xbz->xaz", u, w)
    return QuantumState(out.reshape(state.dim, -1))


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
    pre, _ = _axes(state, qubit)
    w = state.data.reshape(pre, 2, -1)
    rho2 = np.einsum("xaz,xbz->ab", w, w.conj())
    purity = float(np.trace(rho2 @ rho2).real)
    return rho2, purity


def _replace_qubit(state: QuantumState, qubit: int, local: np.ndarray) -> QuantumState:
    """Trace one qubit out and tensor in the pure single-qubit state ``local``.

    The qubit's |0> and |1> slices of ``W`` become the ``2r`` columns of a
    factor of the rest, ``tr_q rho = sum_a W_a W_a^dagger``; a thin SVD
    compresses those columns before ``local`` is tensored back in.
    """
    pre, post = _axes(state, qubit)
    w = state.data.reshape(pre, 2, post, -1)
    rest = w.transpose(0, 2, 1, 3).reshape(pre * post, -1)
    u, s, _ = np.linalg.svd(rest, full_matrices=False)
    keep = s > TRUNCATION_RTOL * s[0]
    rest = (u[:, keep] * s[keep]).reshape(pre, 1, post, -1)
    return QuantumState((rest * local[:, None, None]).reshape(state.dim, -1))


def reset_qubit(state: QuantumState, qubit: int) -> QuantumState:
    """Read-and-discard: trace the qubit out and re-prepare it in |0>.

    If the qubit was still entangled the rest of the register is left as a
    genuine mixture (the read reports its purity) and the factor's rank grows.
    """
    return _replace_qubit(state, qubit, np.array([1.0, 0.0], dtype=complex))


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
    ``purity_tol`` (injection would silently corrupt correlations).  Otherwise
    the qubit is traced out and the amplitudes tensored in, so whatever
    entanglement is left within the tolerance mixes the rest of the register.
    """
    target = _checked_amplitudes(amplitudes)
    _require_separable(qubit, reduced_state(state, qubit)[1], purity_tol)
    return _replace_qubit(state, qubit, target)


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
