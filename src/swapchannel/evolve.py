"""State containers and exact time evolution for small dense systems.

A dense state is one factor ``W`` of shape ``(2^n, r)`` with density matrix
``rho = W W^dagger``, the purification form (Verstraete, Garcia-Ripoll and
Cirac, PRL 93, 207204 (2004)); a pure state is simply ``r = 1``.  Every
operation has one body at every rank: a local operator acts as one
``matmul`` on ``W``, a reduced state is one product of ``W`` with its
conjugate, and a reset or inject traces the qubit out by turning its |0> and
|1> slices into ``2r`` columns, compressed through the ``eigh`` of their
smaller Gram matrix to the directions whose weight float64 can resolve in
``rho``: eigenvalues above ``eps`` of the largest.

Full-chain evolution is exact diagonalisation (the Hamiltonians here are
small and dense, so ``eigh`` is both the fastest and the most accurate
route).  Every Hamiltonian of the model is real symmetric, the one kind
taken.  :func:`eigensystem` returns the real eigenvectors ``V`` and the
phase angles ``E t``, and :func:`apply_eigensystem` applies ``V e^{-iEt} V^T``
to factors side by side in the eigenbasis, never forming the propagator
(the eigenvector method of Moler and Van Loan, SIAM Review 45, 3 (2003)):
two real products on ``W`` viewed as a ``(2^n, 2r)`` float array,
``8 dim^2 r`` flops, as many as ``U @ W``.  A chain H whose biases read the
same reversed commutes with the bit reversal of the basis index, and
:func:`_sector_eigensystem` splits it into two half-size blocks, a quarter
of the ``eigh`` work.  :func:`propagator` assembles ``U`` for the callers
that need the matrix itself (the 3-qubit gate experiments and the reduced
pulse operators).
Reduced-mode wire runs do not use these dense states; they run on
:class:`~swapchannel.mps.MPS`, which has the same boundary methods
(``reduced_state``, ``inject``, ``reset``, ``trace``) under the same rule:
each updates the state in place and returns nothing, and a refused inject
leaves the state as it was.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .chain import _integer, _mirror_index, _number, is_hermitian, phase_angle

__all__ = [
    "EntanglementError",
    "QuantumState",
    "apply_eigensystem",
    "eigensystem",
    "propagator",
    "sample_trajectory",
]

#: An inject refuses a qubit whose reduced purity is below 1 - this.
INJECT_PURITY_TOL = 1e-3

class EntanglementError(ValueError):
    """Raised when an operation needs a separable qubit but finds entanglement."""


def _qubit(qubit, n_qubits: int) -> int:
    """``qubit`` as a plain int once it is one of ``n_qubits`` qubits: a bool
    or a non-integer is refused as :func:`~swapchannel.chain._integer`
    refuses it, an integer outside the chain with "out of range"."""
    qubit = _integer(qubit, "qubit")
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit {qubit} out of range for n={n_qubits}")
    return qubit


def _checked_amplitudes(amplitudes: Sequence[complex]) -> np.ndarray:
    target = np.asarray(amplitudes, dtype=complex)
    if target.shape != (2,):
        raise ValueError(f"amplitudes must have shape (2,), got {target.shape}")
    if not np.isfinite(target).all() or abs(np.linalg.norm(target) - 1.0) > 1e-9:
        raise ValueError("injected amplitudes must be finite and normalised within 1e-9")
    return target


def _require_separable(qubit: int, purity: float) -> None:
    if purity < 1.0 - INJECT_PURITY_TOL:
        raise EntanglementError(
            f"qubit {qubit} has reduced purity {purity:.6f}; refusing to inject"
        )


class QuantumState:
    """The state ``rho = W W^dagger`` of ``n_qubits`` qubits, held as its factor.

    ``data`` is ``W``, a read-only complex array of shape ``(2^n_qubits, r)``;
    the constructor keeps its own copy.  :meth:`reset`, :meth:`inject` and
    :meth:`apply_diagonal` (and :func:`apply_eigensystem`) update the state in
    place by replacing ``data``, and return nothing; a refused inject leaves
    it as it was.  :class:`~swapchannel.mps.MPS` follows the same rule.  A
    full-chain operator ``U`` maps the state to ``QuantumState(U @ data)``.
    """

    def __init__(self, data: np.ndarray):
        w = np.array(data, dtype=complex)
        if w.ndim != 2 or w.shape[0] & (w.shape[0] - 1) or 0 in w.shape:
            raise ValueError(f"factor must be (2^n, r) with r >= 1, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("factor entries must be finite")
        trace = float(np.vdot(w, w).real)
        if not trace > 0:
            raise ValueError(f"factor must have a trace > 0, got {trace!r}")
        self._store(w)

    def _store(self, w: np.ndarray) -> None:
        w.flags.writeable = False
        self.data = w

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
        vec = np.zeros(1 << _integer(n_qubits, "n_qubits", low=0), dtype=complex)
        vec[0] = 1.0
        return cls.pure(vec)

    @property
    def n_qubits(self) -> int:
        return self.data.shape[0].bit_length() - 1

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def trace(self) -> float:
        """``tr rho``, the squared Frobenius norm of the factor."""
        return float(np.vdot(self.data, self.data).real)

    def apply_diagonal(self, diag: np.ndarray) -> None:
        """Apply the full-chain operator ``diag(diag)``: ``dim * r`` products,
        no dense ``dim x dim`` matrix.  Refuses one of another shape or not finite."""
        diag = np.asarray(diag)
        if diag.shape != (self.dim,) or not np.isfinite(diag).all():
            raise ValueError(f"diagonal must have shape ({self.dim},) and be finite, got shape {diag.shape}")
        self._store(diag[:, None] * self.data)

    def _axes(self, qubit: int) -> tuple[int, int]:
        n = self.n_qubits
        qubit = _qubit(qubit, n)
        return 1 << qubit, 1 << (n - qubit - 1)

    def reduced_state(self, qubit: int) -> tuple[np.ndarray, float]:
        """(2x2 reduced density matrix, its purity) for one qubit: with the
        factor's entries regrouped by the qubit's value into the two rows of
        a ``(2, dim r / 2)`` matrix ``M``, ``rho2 = M M^dagger``, one product."""
        pre, _ = self._axes(qubit)
        m = self.data.reshape(pre, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        rho2 = m @ m.conj().T
        return rho2, float(np.trace(rho2 @ rho2).real)

    def _replace_qubit(self, qubit: int, local: np.ndarray) -> None:
        """Trace one qubit out and tensor in the pure single-qubit state ``local``.

        The qubit's |0> and |1> slices of ``W`` become the ``2r`` columns of a
        factor ``R`` of the rest, ``tr_q rho = R R^dagger = sum_i lam_i u_i u_i^dagger``.
        Each direction with ``lam_i <= eps lam_max`` (``eps`` the float64
        machine epsilon) is dropped: it changes ``rho`` by ``lam_i u_i u_i^dagger``,
        of 2-norm at most ``eps ||rho||_2``, one rounding unit of ``||rho||_2``.
        In singular values that is ``s_i <= sqrt(eps) s_max``.  The ``eigh`` of
        a Gram matrix resolves its eigenvalues to ``O(eps lam_max)``, which at
        that threshold is as accurate as anything kept, so the smaller one is
        used: for ``R`` of shape ``m x 2r``, ``R R^dagger = U lam U^dagger``
        gives ``U sqrt(lam)`` if ``m <= 2r``, else ``R^dagger R = V lam V^dagger``
        gives ``R V``.
        """
        pre, post = self._axes(qubit)
        w = self.data.reshape(pre, 2, post, -1)
        rest = w.transpose(0, 2, 1, 3).reshape(pre * post, -1)
        wide = rest.shape[0] <= rest.shape[1]
        lam, vecs = np.linalg.eigh(rest @ rest.conj().T if wide else rest.conj().T @ rest)
        keep = lam > np.finfo(float).eps * lam[-1]
        rest = vecs[:, keep] * np.sqrt(lam[keep]) if wide else rest @ vecs[:, keep]
        self._store((rest.reshape(pre, 1, post, -1) * local[:, None, None]).reshape(self.dim, -1))

    def reset(self, qubit: int) -> None:
        """Read-and-discard: trace the qubit out and re-prepare it in |0>.

        If the qubit was still entangled the rest of the register is left as a
        genuine mixture (the read reports its purity) and the factor's rank grows.
        """
        self._replace_qubit(qubit, np.array([1.0, 0.0], dtype=complex))

    def inject(self, qubit: int, amplitudes: Sequence[complex]) -> None:
        """Overwrite one separable qubit with a fresh single-qubit pure state.

        Raises :class:`EntanglementError`, leaving the state as it was, if the
        qubit's purity is below ``1 - INJECT_PURITY_TOL`` (injection would
        silently corrupt correlations).  Otherwise the qubit is traced out and
        the amplitudes tensored in, so whatever entanglement is left within
        the tolerance mixes the rest of the register.
        """
        target = _checked_amplitudes(amplitudes)
        _require_separable(qubit, self.reduced_state(qubit)[1])
        self._replace_qubit(qubit, target)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def apply_eigensystem(
    states: Sequence[QuantumState], evecs: np.ndarray, angles: np.ndarray, mirrored=False
) -> None:
    """Apply ``V diag(e^{-i angles}) V^T`` from :func:`eigensystem` to each of
    ``states`` in the eigenbasis, their factors side by side as the columns
    ``W`` of one float array (real and imaginary parts as columns): two real
    products, split back after.  ``mirrored`` gathers the rows of ``W`` by
    the bit reversal ``P`` before and after, applying the window of the
    reversed biases, ``P V e^{-i angles} V^T P``.  Refuses a ``V`` that is
    not a real ``dim x dim`` array, angles that are not ``dim`` finite
    numbers and a ``mirrored`` that is not a bool, changing no state."""
    angles = np.asarray(angles)
    for state in states:
        if evecs.shape != (state.dim, state.dim):
            raise ValueError(f"eigenvectors must be {state.dim} x {state.dim}, got {evecs.shape}")
    if evecs.dtype.kind == "c":
        raise ValueError(f"eigenvectors must be real, got dtype {evecs.dtype}")
    if angles.shape != (len(evecs),) or not np.isfinite(angles).all():
        raise ValueError(f"angles must be {len(evecs)} finite numbers, got shape {angles.shape}")
    if type(mirrored) is not bool:
        raise ValueError(f"mirrored must be True or False, got {mirrored!r}")
    rows = _mirror_index(len(evecs).bit_length() - 1) if mirrored else slice(None)
    phases = np.exp(-1j * angles)[:, None]
    w = np.ascontiguousarray(np.concatenate([s.data for s in states], axis=1)[rows])
    rotated = phases * (evecs.T @ w.view(float)).view(complex)
    start, w = 0, (evecs @ rotated.view(float)).view(complex)[rows]
    for state in states:
        state._store(w[:, start:start + state.data.shape[1]])
        start += state.data.shape[1]


def eigensystem(hamiltonian: np.ndarray, duration_ns: float) -> tuple[np.ndarray, np.ndarray]:
    """``(V, angles)`` with ``exp(-i * 2pi*1e-3 * H * t) = V e^{-i angles} V^T``
    for a real symmetric H in MHz and t in ns, the eigenvectors in the
    columns of the real ``V``.  A complex H is taken as its real part if its
    imaginary part is all zero.  Refuses a non-zero imaginary entry, naming
    the first, a non-symmetric H and a duration that is not a finite
    number >= 0 (``chain._number``)."""
    h = np.asarray(hamiltonian)
    if h.dtype.kind == "c":
        complex_entries = np.argwhere(h.imag != 0)
        if len(complex_entries):
            at = tuple(complex_entries[0].tolist())
            raise ValueError(f"eigensystem requires a real matrix; entry {at} is {complex(h[at])}")
        h = h.real
    if not is_hermitian(h):
        raise ValueError("eigensystem requires a real symmetric matrix")
    return _eigensystem(h, _number(duration_ns, "duration_ns", low=0))


def _eigensystem(h: np.ndarray, duration_ns: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigensystem` unchecked, for an H just built symmetric."""
    evals, evecs = np.linalg.eigh(h)
    return evecs, phase_angle(evals, duration_ns)


def _sector_eigensystem(
    hamiltonian: np.ndarray, duration_ns: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigensystem` of a chain H whose biases read the same reversed,
    from its two mirror sectors.  With ``(a, m(a))`` the basis pairs swapped
    by the bit reversal m and ``f`` its fixed points, the even sector on
    ``(e_a + e_m(a))/sqrt2, e_f`` is ``[[H_aa + H_am(a), sqrt2 H_af], [.., H_ff]]``
    and the odd one on ``(e_a - e_m(a))/sqrt2`` is ``H_aa - H_am(a)``."""
    h = np.asarray(hamiltonian)
    mirror = _mirror_index(h.shape[0].bit_length() - 1)
    idx = np.arange(len(mirror))
    a, f, ma = idx[idx < mirror], idx[idx == mirror], mirror[idx < mirror]
    h_aa, cross = h[np.ix_(a, a)], h[np.ix_(a, ma)]
    cross = (cross + cross.T) / 2  # exactly symmetric; H is P-symmetric only to rounding
    side = np.sqrt(2.0) * h[np.ix_(a, f)]
    even = np.block([[h_aa + cross, side], [side.T, h[np.ix_(f, f)]]])
    (ve, ae), (vo, ao) = _eigensystem(even, duration_ns), _eigensystem(h_aa - cross, duration_ns)
    evecs = np.zeros(h.shape)
    s = np.sqrt(0.5)
    evecs[a, :len(ae)] = evecs[ma, :len(ae)] = s * ve[:len(a)]
    evecs[f, :len(ae)] = ve[len(a):]
    evecs[a, len(ae):] = s * vo
    evecs[ma, len(ae):] = -s * vo
    return evecs, np.concatenate([ae, ao])


def propagator(hamiltonian: np.ndarray, duration_ns: float) -> np.ndarray:
    """Unitary ``exp(-i * 2pi*1e-3 * H * t)`` for a real symmetric H in MHz
    and t in ns, assembled from :func:`eigensystem`: ``U = V e^{-iEt} V^T``
    from two real products, its real and imaginary parts."""
    evecs, angles = eigensystem(hamiltonian, duration_ns)
    u = np.empty(evecs.shape, dtype=complex)
    u.real = (evecs * np.cos(angles)) @ evecs.T
    u.imag = (evecs * -np.sin(angles)) @ evecs.T
    return u


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
    n_samples = _integer(n_samples, "n_samples", low=1)
    duration_ns = _number(duration_ns, "duration_ns", low=0)
    n = state.n_qubits
    if duration_ns == 0:
        return np.zeros(0), np.zeros((0, n))
    step = eigensystem(hamiltonian, duration_ns / n_samples)
    times = np.linspace(0.0, duration_ns, n_samples + 1)
    probs = np.zeros((n_samples + 1, n))
    current = QuantumState(state.data)  # a copy: the caller's state stays as it was
    for i in range(n_samples + 1):
        if i > 0:
            apply_eigensystem([current], *step)
        probs[i] = [current.reduced_state(q)[0][1, 1].real for q in range(n)]
    return times, probs
