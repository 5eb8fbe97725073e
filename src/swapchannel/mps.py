"""Exact matrix-product state of a qubit chain, for the reduced model.

A reduced-mode pulse acts on (left, target, right) and is diagonal in the
neighbours, and the scheduler keeps in-flight data three sites apart, so no
cut carries more than one entangled pair: the state is an MPS of bond
dimension <= 2 and a wire costs O(L), not O(2^L).  Nothing here assumes that
bound; a schedule that entangles more grows the bonds.

The MPS is in Vidal's form (PRL 91, 147902 (2003)), with no orthogonality
centre: ``lambdas[i]`` are the Schmidt values of the cut left of qubit i and
qubit i's tensor is the right isometry ``B_i = Gamma_i lambda_(i+1)``, of
shape ``(left bond, 2, right bond)``.  The tensors contract, left to right,
to the amplitude vector (qubit 0 is the most significant bit), and
``lambda_i B_i`` is the state seen from qubit i, so a read touches one
tensor and one bond.  A k-site unitary splits back from the right by k - 1
SVDs of the lambda-weighted block, each keeping ``V^dagger`` and carrying
the block times ``V`` on, so no lambda is divided by (Hastings, J. Math.
Phys. 50, 095207 (2009)); singular values at or below ``TRUNCATION_RTOL`` of
the largest are dropped.  Every update replaces arrays, and no two sites
share one, so :meth:`MPS._drop` zeroes a dropped slice in place.
"""

from __future__ import annotations

from typing import Callable, Collection, Sequence

import numpy as np

from .chain import _integer
from .evolve import _checked_amplitudes, _qubit, _require_separable

__all__ = ["TRUNCATION_RTOL", "MPS"]

#: Singular values at or below this fraction of the largest are dropped by an
#: SVD split of an MPS bond.
TRUNCATION_RTOL = 1e-14


class MPS:
    """Pure state of ``n_qubits`` qubits in Vidal form (``tensors``, and
    ``lambdas`` with ends [1]), updated in place as ``QuantumState`` is.
    ``max_bond`` is the largest bond any split has made; ``discarded_weight``
    sums each split's dropped squared singular values, relative to the norm
    of the state it split, and the off-basis slices :meth:`_drop` drops.
    """

    def __init__(self, n_qubits: int):
        """Product state |0...0>."""
        n_qubits = _integer(n_qubits, "n_qubits", low=1)
        self.tensors = [np.array([[[1.0], [0.0]]], dtype=complex) for _ in range(n_qubits)]
        self.lambdas = [np.ones(1) for _ in range(n_qubits + 1)]
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
        return float(np.vdot(self.tensors[0], self.tensors[0]).real)

    def _svd(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """The thin SVD ``(s, vh)`` of each matrix of the stack ``m`` and how many
        values each keeps, those above ``TRUNCATION_RTOL`` of its largest."""
        _, s, vh = np.linalg.svd(m, full_matrices=False)
        keep = []
        for row in s.tolist():  # a few values per matrix: plain floats are faster
            keep.append(sum(x > TRUNCATION_RTOL * row[0] for x in row))
            if keep[-1] < len(row):
                self.discarded_weight += sum(x * x for x in row[keep[-1]:]) / sum(x * x for x in row)
        self.max_bond = max(self.max_bond, *keep)
        return s, vh, keep

    def _split(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The kept singular values and rows of ``V^dagger`` of one matrix."""
        s, vh, (keep,) = self._svd(m[None])
        return s[0, :keep], vh[0, :keep]

    def _update(self, ops: Sequence[np.ndarray], firsts: Sequence[int]) -> None:
        """Apply ``k``-site unitaries on disjoint blocks of one shape starting at
        ``firsts``: one product of the stacked operators, k - 1 stacked splits."""
        t, lam = self.tensors, self.lambdas
        g, k = len(ops), ops[0].shape[0].bit_length() - 1
        theta = np.array([t[a] for a in firsts])
        dl, right = theta.shape[1], [t[firsts[0] + k - 1].shape[2]] * g
        for i in range(1, k):
            b = np.array([t[a + i] for a in firsts])
            theta = theta.reshape(g, dl, -1, b.shape[1]) @ b.reshape(g, 1, b.shape[1], -1)
        theta = np.array(ops)[:, None] @ theta.reshape(g, dl, 1 << k, -1)
        for i in range(k - 1, 0, -1):  # none for 1-site blocks: nothing to split
            left = np.array([lam[a] for a in firsts])[:, :, None, None]
            dr = theta.shape[3]
            s, vh, keep = self._svd((left * theta).reshape(g, dl << i, 2 * dr))
            sites = vh.reshape(g, -1, 2, dr)
            for j, a in enumerate(firsts):
                t[a + i], lam[a + i] = sites[j, :keep[j], :, :right[j]], s[j, :keep[j]]
            right = keep
            theta = theta.reshape(g, dl << i, 2 * dr) @ vh.conj().transpose(0, 2, 1)
            theta = theta.reshape(g, dl, 1 << i, -1)
        for j, a in enumerate(firsts):
            t[a] = theta[j, :, :, :right[j]]

    def _basis_values(self, qubits: Collection[int]) -> tuple[list[int | None], dict]:
        """Each qubit's z value, +1 for |0> and -1 for |1>, if it is frozen in a
        basis state, else None, from its tensor and left bond, in one stacked
        pass per tensor shape; the qubits must be in the chain.  Frozen means
        the other slice holds at most ``TRUNCATION_RTOL**2`` of its weight, as
        in a split; the drops map each frozen qubit whose other slice is not
        zero to ``(slice, share of the weight)``, for :meth:`_drop`."""
        t, lam, by_shape, weights = self.tensors, self.lambdas, {}, {}
        for q in qubits:
            by_shape.setdefault(t[q].shape, []).append(q)
        for (dl, _, _), same in by_shape.items():
            w = abs(np.array([t[q] for q in same])) ** 2
            if dl > 1:  # a bond of dimension 1 weighs both slices alike
                w *= np.array([lam[q] for q in same])[:, :, None, None] ** 2
            weights.update(zip(same, w.sum((1, 3)).tolist()))
        values, drops = [], {}
        for q in qubits:
            w = weights[q]
            cut = TRUNCATION_RTOL**2 * (w[0] + w[1])
            z = 1 if w[1] <= cut else -1 if w[0] <= cut else None
            other = int(z == 1)  # the slice a frozen qubit drops
            if z is not None and w[other]:
                drops[q] = other, w[other] / (w[0] + w[1])
            values.append(z)
        return values, drops

    def _drop(self, drops: dict) -> None:
        """Zero each slice of :meth:`_basis_values`'s drops in place and add its
        share to ``discarded_weight``."""
        for q, (other, share) in drops.items():
            self.tensors[q][:, other] = 0.0
            self.discarded_weight += share

    def apply_layer(self, firsts: Sequence[int], pulse: Callable[..., np.ndarray], width: int = 1) -> None:
        """Pulse one layer of runs of ``width`` adjacent qubits, each given by
        its first qubit (a run of one is a qubit), no two of them repeating,
        overlapping or touching (else refused, from one pass over the sorted
        runs, as is a run leaving the chain, before any pulse is built), so
        each run's pulse reads only its two outer neighbours' z and the pulses
        commute.  ``pulse(first, left, right)`` gets each outer neighbour's z
        from :meth:`_basis_values` (+1 or -1 if frozen, None if live, 0 past a
        chain end, all read in one pass) and returns a unitary in chain
        ordering on the block this places: the run and its live neighbours,
        so a frozen neighbour leaves it.  An operator that is not ``2^k x 2^k``
        for its ``k``-site block is refused before the state changes: the frozen
        neighbours' round-off slices are dropped once every operator passed.  Blocks
        over tensors of the same shapes share one update, but for a block
        over a neighbour two runs share, which goes on its own.
        """
        n, t = self.n_qubits, self.tensors
        width = _integer(width, "width", low=1)
        for q in firsts:
            if type(q) is not int or not 0 <= q <= n - width:
                _qubit(q, n)
                _qubit(q + width - 1, n)
        order, shared = sorted(firsts), set()
        for a, b in zip(order, order[1:]):
            if b - a <= width:
                raise ValueError(f"qubit {b} is pulsed twice in one layer" if b - a < width
                                 else f"neighbours {b - 1} and {b} are pulsed in one layer")
            if b - a == width + 1:
                shared.add(a + width)
        sides = sorted({p for q in order for p in (q - 1, q + width) if 0 <= p < n})
        values, drops = self._basis_values(sides)
        z = dict(zip(sides, values))
        groups: dict[object, list[tuple]] = {}
        for q in firsts:
            left, right = z.get(q - 1, 0), z.get(q + width, 0)
            first, last = q - (left is None), q + width - 1 + (right is None)
            op, d = pulse(q, left, right), 2 << last - first
            if op.shape != (d, d):
                raise ValueError(f"block [{first}, {last + 1}) needs a {d} x {d} operator, got {op.shape}")
            # two blocks over one neighbour commute but cannot share a stacked update
            key = q if first in shared or last in shared else tuple(x.shape for x in t[first:last + 1])
            groups.setdefault(key, []).append((op, first))
        self._drop(drops)
        for blocks in groups.values():
            self._update(*zip(*blocks))

    def reduced_state(self, qubit: int) -> tuple[np.ndarray, float]:
        """(2x2 reduced density matrix, its purity) for one qubit."""
        qubit = _qubit(qubit, self.n_qubits)
        m = (self.lambdas[qubit][:, None, None] * self.tensors[qubit]).transpose(1, 0, 2)
        rho2 = m.reshape(2, -1) @ m.reshape(2, -1).conj().T
        return rho2, float(np.trace(rho2 @ rho2).real)

    def _project(self, qubit: int, rho2: np.ndarray, local: np.ndarray) -> None:
        """Keep the qubit's dominant local branch ``M``, renormalise and tensor
        ``local`` in.  The qubit factors out, so both its bonds take the values
        ``s`` of ``lambda M = U s V^dagger``; ``M V`` and ``V^dagger`` move into
        its neighbours, each side re-split outward to a bond of dimension 1."""
        t, lam = self.tensors, self.lambdas
        evals, evecs = np.linalg.eigh(rho2)
        rest = evecs[:, int(np.argmax(evals))].conj() @ t[qubit]
        core = rest / np.linalg.norm(rest)
        if rest.size > 1:
            s, vh = self._split(lam[qubit][:, None] * rest)
            norm = np.linalg.norm(s)
            core = rest @ vh.conj().T / norm
            if rest.shape[0] > 1:
                lam[qubit] = s / norm
                self._sweep_left(qubit - 1, core)
                core = np.eye(len(s))
            if rest.shape[1] > 1:
                lam[qubit + 1] = s / norm
                self._sweep_right(qubit + 1, vh)
            else:
                core = core @ vh
        t[qubit] = core[:, None, :] * local[None, :, None]

    def _sweep_left(self, site: int, g: np.ndarray) -> None:
        """Absorb ``g`` into the right bond of ``site`` and restore the Schmidt
        values from there leftward, up to the first bond of dimension 1."""
        t, lam = self.tensors, self.lambdas
        while len(lam[site]) > 1:
            b = (t[site].reshape(-1, len(g)) @ g).reshape(len(lam[site]), -1)
            lam[site], vh = self._split(lam[site][:, None] * b)
            t[site], g = vh.reshape(len(vh), 2, -1), b @ vh.conj().T
            site -= 1
        t[site] = (t[site].reshape(-1, len(g)) @ g).reshape(1, 2, -1)

    def _sweep_right(self, site: int, g: np.ndarray) -> None:
        """Absorb ``g`` into the left bond of ``site`` and restore the Schmidt
        values from there rightward, up to the first bond of dimension 1."""
        t, lam = self.tensors, self.lambdas
        while len(lam[site + 1]) > 1:
            b = (g @ t[site].reshape(g.shape[1], -1)).reshape(len(g), 2, -1)
            lam[site + 1], vh = self._split((lam[site][:, None, None] * b).reshape(2 * len(g), -1))
            t[site], g = b @ vh.conj().T, vh
            site += 1
        t[site] = (g @ t[site].reshape(g.shape[1], -1)).reshape(len(g), 2, 1)

    def reset(self, qubit: int) -> None:
        """Re-prepare the qubit in |0>, even if entangled: a pure state cannot hold
        the mixture tracing it out leaves, so it keeps its dominant local branch."""
        self._project(qubit, self.reduced_state(qubit)[0], np.array([1.0, 0.0], dtype=complex))

    def inject(self, qubit: int, amplitudes: Sequence[complex]) -> None:
        """Overwrite one separable qubit with a fresh single-qubit pure state,
        projected as :meth:`reset` projects.  Raises, before anything changes,
        :class:`~swapchannel.evolve.EntanglementError` if the qubit's purity
        is below ``1 - INJECT_PURITY_TOL``, as ``QuantumState.inject`` does."""
        target = _checked_amplitudes(amplitudes)
        rho2, purity = self.reduced_state(qubit)
        _require_separable(qubit, purity)
        self._project(qubit, rho2, target)
