"""Exact matrix-product state of a qubit chain, for the reduced model.

A reduced-mode pulse acts on (left, target, right) and is diagonal in the
neighbours, and the scheduler keeps in-flight data three sites apart with
parked |0> between them.  No cut of the chain then carries more than one
entangled pair, so the state is an MPS of bond dimension <= 2 and a wire
costs O(L) rather than O(2^L) (Vidal, PRL 91, 147902 (2003); Schollwoeck,
Ann. Phys. 326, 96 (2011)).  Nothing here assumes that bound: a schedule
that entangles more simply grows the bonds.

Tensors have shape ``(left bond, 2, right bond)`` and contract, left to
right, to the amplitude vector in the chain's basis ordering (qubit 0 is the
most significant bit).  The state is kept in mixed-canonical form: tensors
left of the orthogonality centre are left isometries and tensors right of it
right isometries, so the centre tensor carries the whole norm.  A one-qubit
read, reset or inject moves the centre to its qubit (one small SVD per site
crossed, none across a product cut) and then touches that tensor only.  A
k-local operator contracts its k sites, applies the operator and splits back
by k - 1 SVDs, dropping only singular values below ``TRUNCATION_RTOL`` of the
largest.  A pulse's neighbour frozen in a basis state leaves its block
(:meth:`MPS.apply_layer`), so most pulses act on one or two sites.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .chain import _integer
from .evolve import (
    TRUNCATION_RTOL, EntanglementError, _checked_amplitudes, _local_width, _require_separable
)

__all__ = ["TRUNCATION_RTOL", "MPS"]


class MPS:
    """Pure state of ``n_qubits`` qubits as a mixed-canonical MPS.

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
    def ground(cls, n_qubits: int) -> "MPS":
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
        last = first_qubit + _local_width(op, first_qubit, self.n_qubits) - 1
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

    def apply_layer(self, targets: Sequence[int], pulse: Callable[..., tuple]) -> None:
        """Pulse the ``targets`` in order, each conditioned on its neighbours.

        ``pulse(qubit, left, right)`` returns the ``(op, first_qubit)`` that
        :meth:`apply` takes, given the :meth:`basis_value` of each neighbour
        (None past a chain end), read just before the pulse: a frozen
        neighbour leaves the block, so a pulse spans 1-3 sites.  Pulses whose
        neighbourhoods are pairwise disjoint and ascending commute, so such a
        layer is swept from whichever end is nearer the centre: consecutive
        layers then sweep back and forth instead of first returning the
        centre across the chain.
        """
        n = self.n_qubits
        spans = [(max(q - 1, 0), min(q + 1, n - 1)) for q in targets]
        disjoint = all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
        if disjoint and spans and abs(spans[-1][1] - self.center) < abs(spans[0][0] - self.center):
            targets = targets[::-1]
        for q in targets:
            left = self.basis_value(q - 1) if q > 0 else None
            right = self.basis_value(q + 1) if q < n - 1 else None
            self.apply(*pulse(q, left, right))

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

        Refuses as :meth:`~swapchannel.evolve.QuantumState.inject` does:
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
