"""Exact matrix-product state of a qubit chain, for the reduced model.

A reduced-mode pulse acts on (left, target, right) and is diagonal in the
neighbours, and the scheduler keeps in-flight data three sites apart, so no
cut carries more than one entangled pair (none once a swap's three windows
are one layer) and a wire costs O(L), not O(2^L).  While every bond is 1 the
tensors are ``(1, 2, 1)`` views of the rows of one ``(L, 2)`` array, the
chain, which 1- and 2-site updates gather and write, a pair split by one
stacked 2x2 SVD whose second singular value is the rank check.  A wider
block, or a pair that keeps that value, goes to the Vidal tensors for good
(assigning a site drops the chain), and a schedule that entangles grows
the bonds.

The MPS is in Vidal's form (PRL 91, 147902 (2003)), with no orthogonality
centre: ``lambdas[i]`` are the Schmidt values of the cut left of qubit i and
qubit i's tensor is the right isometry ``B_i = Gamma_i lambda_(i+1)``, of
shape ``(left bond, 2, right bond)``.  The tensors contract, left to right,
to the amplitude vector (qubit 0 is the most significant bit), and
``lambda_i B_i`` is the state seen from qubit i, so a read touches one
tensor and one bond.  The blocks of a layer update one at a time: a k-site
unitary splits back from the right by k - 1 SVDs of the lambda-weighted
block, each keeping ``V^dagger`` and carrying the block times ``V`` on, so
no lambda is divided by (Hastings, J. Math. Phys. 50, 095207 (2009));
singular values at or below ``TRUNCATION_RTOL`` of the largest are dropped.
No two sites share memory, so rows and dropped slices are written in place.
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


class _Sites(list):
    """Site tensors; while ``chain`` is not None, views of its rows."""

    def __setitem__(self, i, tensor) -> None:
        self.chain = None  # a site assigned is no row of the chain
        super().__setitem__(i, tensor)


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
        chain = np.eye(1, 2, dtype=complex).repeat(n_qubits, 0)
        self.tensors = _Sites(chain.reshape(n_qubits, 1, 2, 1))
        self.tensors.chain = chain
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

    def _split(self, m: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The SVD of one matrix ``m`` with its rows weighted by ``left``, cut to
        the singular values above ``TRUNCATION_RTOL`` of the largest: those
        values, their rows of ``V^dagger`` and the unweighted ``m V`` on them
        (by the whole ``V``, cut after, so a pair splits to :meth:`_rows`'s bits)."""
        _, s, vh = np.linalg.svd(left[:, None] * m, full_matrices=False)
        row = s.tolist()  # a few values: plain floats are faster
        keep = sum(x > TRUNCATION_RTOL * row[0] for x in row)
        if keep < len(row):
            self.discarded_weight += sum(x * x for x in row[keep:]) / sum(x * x for x in row)
        self.max_bond = max(self.max_bond, keep)
        return s[:keep], vh[:keep], (m @ vh.conj().T)[:, :keep]

    def _update(self, ops: Sequence[np.ndarray], firsts: Sequence[int]) -> None:
        """Apply ``k``-site unitaries on disjoint blocks starting at ``firsts``:
        :meth:`_rows` on the chain, else block by block, each contracted, times
        its operator and split back from the right by k - 1 :meth:`_split` calls."""
        t, lam = self.tensors, self.lambdas
        k = ops[0].shape[0].bit_length() - 1
        if t.chain is not None and k <= 2 and self._rows(np.array(ops), list(firsts), k):
            return
        for op, a in zip(ops, firsts):
            theta, dl = t[a], len(lam[a])
            for b in t[a + 1:a + k]:
                theta = theta.reshape(-1, len(b)) @ b.reshape(len(b), -1)
            theta = op @ theta.reshape(dl, 1 << k, -1)
            for i in range(k - 1, 0, -1):  # none for 1-site blocks: nothing to split
                lam[a + i], vh, theta = self._split(theta.reshape(dl << i, -1), lam[a].repeat(1 << i))
                t[a + i] = vh.reshape(len(vh), 2, -1)
            t[a] = theta.reshape(dl, 2, -1)

    def _rows(self, ops: np.ndarray, firsts: list, k: int) -> bool:
        """:meth:`_update` of 1- or 2-site blocks on the chain's rows, a pair split
        as the Vidal path splits it; False, changing nothing, if one keeps two."""
        chain, lam = self.tensors.chain, self.lambdas
        if k == 1:
            chain[firsts] = (ops @ chain.take(firsts, 0)[:, :, None])[:, :, 0]
            return True
        flat = [i for a in firsts for i in range(2 * a, 2 * a + 4)]  # the pairs' rows
        x = chain.take(flat).reshape(-1, 2)
        theta = (ops @ (x[0::2, :, None] * x[1::2, None, :]).reshape(-1, 4, 1)).reshape(-1, 2, 2)
        _, s, vh = np.linalg.svd(np.array([lam[a][0] for a in firsts])[:, None, None] * theta)
        pairs = s.tolist()
        if any(s1 > TRUNCATION_RTOL * s0 for s0, s1 in pairs):
            return False
        for s0, s1 in pairs:  # as _split counts a dropped value
            self.discarded_weight += s1 * s1 / (s0 * s0 + s1 * s1)
        x[0::2], x[1::2] = (theta @ vh.conj().transpose(0, 2, 1))[:, :, 0], vh[:, 0]
        chain.put(flat, x)
        for a, row in zip(firsts, s[:, :1]):
            lam[a + 1] = row
        return True

    def _basis_values(self, qubits: Collection[int]) -> tuple[list[int | None], dict]:
        """Each qubit's z value, +1 for |0> and -1 for |1>, if it is frozen in a
        basis state, else None, from its row of the chain, or its tensor and
        left bond; the qubits must be in the chain.  Frozen means the other
        slice holds at most ``TRUNCATION_RTOL**2`` of its weight, as in a split;
        the drops map each frozen qubit whose other slice is not zero to
        ``(slice, share of the weight)``, for :meth:`_drop`."""
        t, lam = self.tensors, self.lambdas
        if t.chain is not None:
            rows = (abs(t.chain.take(qubits, 0)) ** 2).tolist()
        else:
            rows = [(abs(lam[q][:, None, None] * t[q]) ** 2).sum((0, 2)).tolist() for q in qubits]
        values, drops = [], {}
        for q, w in zip(qubits, rows):
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
        of one size share one :meth:`_update`, but for a block over a neighbour
        two runs share, which goes on its own.
        """
        n = self.n_qubits
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
            # a block over a shared neighbour goes alone, the others group by size
            key = q if first in shared or last in shared else (last - first,)
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

    def _project(self, qubit: int, local: np.ndarray) -> None:
        """Keep the qubit's dominant local branch ``M``, renormalise and tensor
        ``local`` in.  The qubit factors out, so both its bonds take the values
        ``s`` of ``lambda M = U s V^dagger``; ``M V`` and ``V^dagger`` move into
        its neighbours, each side re-split outward to a bond of dimension 1."""
        t, lam = self.tensors, self.lambdas
        if t.chain is not None:  # a row is its own branch
            t.chain[qubit] = local
            return
        evals, evecs = np.linalg.eigh(self.reduced_state(qubit)[0])
        rest = evecs[:, int(np.argmax(evals))].conj() @ t[qubit]
        core = rest / np.linalg.norm(rest)
        if rest.size > 1:
            s, vh, core = self._split(rest, lam[qubit])
            norm = np.linalg.norm(s)
            core = core / norm
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
            lam[site], vh, g = self._split(b, lam[site])
            t[site] = vh.reshape(len(vh), 2, -1)
            site -= 1
        t[site] = (t[site].reshape(-1, len(g)) @ g).reshape(1, 2, -1)

    def _sweep_right(self, site: int, g: np.ndarray) -> None:
        """Absorb ``g`` into the left bond of ``site`` and restore the Schmidt
        values from there rightward, up to the first bond of dimension 1."""
        t, lam = self.tensors, self.lambdas
        while len(lam[site + 1]) > 1:
            b = (g @ t[site].reshape(g.shape[1], -1)).reshape(2 * len(g), -1)
            lam[site + 1], g, b = self._split(b, lam[site].repeat(2))
            t[site] = b.reshape(-1, 2, len(g))
            site += 1
        t[site] = (g @ t[site].reshape(g.shape[1], -1)).reshape(len(g), 2, 1)

    def reset(self, qubit: int) -> None:
        """Re-prepare the qubit in |0>, even if entangled: a pure state cannot hold
        the mixture tracing it out leaves, so it keeps its dominant local branch."""
        self._project(_qubit(qubit, self.n_qubits), np.array([1.0, 0.0], dtype=complex))

    def inject(self, qubit: int, amplitudes: Sequence[complex]) -> None:
        """Overwrite one separable qubit with a fresh single-qubit pure state,
        projected as :meth:`reset` projects.  Raises, before anything changes,
        :class:`~swapchannel.evolve.EntanglementError` if the qubit's purity
        is below ``1 - INJECT_PURITY_TOL``, as ``QuantumState.inject`` does."""
        target = _checked_amplitudes(amplitudes)
        _require_separable(qubit, self.reduced_state(qubit)[1])
        self._project(qubit, target)
