"""The ideal controlled flip and the exact reduced pulse operators.

All matrices are written in the chain's own basis ordering (leftmost listed
qubit is the most significant bit).  The ideal gate carries the exact branch
phases of a phase-exact design (M odd, N even): a held branch acquires -1, a
flipped branch -i.
Reduced mode takes every pulse from :func:`reduced_pulse_operator` or, placed
by the MPS, from its unchecked core :func:`_block_operator`, cached per process.
A neighbour the caller knows to be frozen in a basis state is folded into
the effective bias and leaves the block, so a pulse acts on 1-3 qubits.
A swap triple's three pulses on a pair fold into one block (:func:`_swap_pulse`)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .chain import ChainSpec, TwoLevelParams, _z_values, effective_bias
from .evolve import _qubit, propagator

__all__ = ["IDEAL_CNOT", "reduced_pulse_operator"]

#: Controlled flip in |control, target> ordering, read-only.  Control |0>:
#: target held, branch phase -1.  Control |1>: target flipped, branch phase -i.
IDEAL_CNOT = np.array(
    [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1j], [0, 0, -1j, 0]], dtype=complex
)
IDEAL_CNOT.flags.writeable = False


def reduced_pulse_operator(
    spec: ChainSpec, qubit: int, bias_mhz: float, duration_ns: float,
    left: int | None = None, right: int | None = None,
) -> tuple[np.ndarray, int]:
    """Exact window propagator for the pulsed ``qubit`` with frozen neighbours.

    Returns ``(op, first_qubit)``: the read-only block operator over the
    chain-ordered qubits (left?, target, right?) and the first of them.  A
    neighbour is in the block unless the chain ends there or it is frozen:
    ``left`` and ``right`` give a frozen neighbour's z value (+1 for |0>, -1
    for |1>), and None keeps it in the block.  Each 2x2 block is the exact
    two-level propagator at the :func:`~swapchannel.chain.effective_bias` of
    the target, whose integer neighbour sum takes the frozen values too, so a
    folded operator is bit for bit a block of the unfolded one.  For a solved
    phase-exact design each block is a hold (-1) or a flip (-i) to round-off
    (within 6.3 float64 eps at the designs (M, N) = (1, 0) to (5, 4)).
    """
    qubit = _qubit(qubit, spec.n_qubits)
    for side, z, present in (("left", left, qubit > 0), ("right", right, qubit < spec.n_qubits - 1)):
        if z is not None and (not present or not isinstance(z, (int, np.integer))
                              or type(z) is bool or z not in (1, -1)):
            raise ValueError(f"{side} z must be +1 or -1 for a neighbour of qubit {qubit}, got {z!r}")
    # plain ints as cache keys; a chain end adds 0
    left = 0 if qubit == 0 else left if left is None else int(left)
    right = 0 if qubit == spec.n_qubits - 1 else right if right is None else int(right)
    op = _block_operator(spec.delta_mhz, spec.xi_mhz, bias_mhz, duration_ns, left, right)
    return op, qubit - (left is None)


@lru_cache(maxsize=256)
def _block_operator(
    delta_mhz: float, xi_mhz: float, pulse_bias_mhz: float, duration_ns: float,
    left: int | None, right: int | None,
) -> np.ndarray:
    live = [c for c, z in ((0, left), (2, right)) if z is None]
    k = 1 + len(live)
    target_axis = int(left is None)
    # z over (left, target, right), one row per configuration of the live
    # neighbours; a frozen or missing one holds its value in every row, and
    # the target adds nothing
    z = np.zeros((1 << len(live), 3), dtype=np.int64)
    z[:, 0], z[:, 2] = left or 0, right or 0
    z[:, live] = _z_values(len(live))
    biases = np.zeros(z.shape)
    biases[:, 1] = pulse_bias_mhz
    sigmas = effective_bias(biases, xi_mhz, z)[:, 1]
    # block diagonal in (neighbours, target) order, then the target axis moved
    # to its chain position on both the output and the input side
    out = np.zeros((len(z), 2, len(z), 2), dtype=complex)
    for c, sigma in enumerate(sigmas):
        h2 = TwoLevelParams(delta_mhz, float(sigma)).hamiltonian()
        out[c, :, c, :] = propagator(h2, duration_ns)
    out = np.moveaxis(
        out.reshape((2,) * (2 * k)), (k - 1, 2 * k - 1), (target_axis, k + target_axis)
    )
    op = out.reshape(1 << k, 1 << k)
    op.flags.writeable = False
    return op


def _swap_pulse(spec: ChainSpec, a: int, a_first: bool, windows: tuple,
                left: int | None, right: int | None) -> np.ndarray:
    """The operator of a swap triple on the pair ``(a, a + 1)``, whose
    ``windows`` ``(biases, duration)`` pulse ``a`` first and last if ``a_first``,
    given the outer neighbours' z as :meth:`~swapchannel.mps.MPS.apply_layer`
    reads them (0 past a chain end; a live one, None, is kept in the block)."""
    steps = tuple((on_a, biases[a if on_a else a + 1], duration) for on_a, (biases, duration)
                  in zip((a_first, not a_first, a_first), windows))
    return _swap_operator(spec.delta_mhz, spec.xi_mhz, steps, left, right)


@lru_cache(maxsize=256)
def _swap_operator(delta_mhz: float, xi_mhz: float, steps: tuple,
                   left: int | None, right: int | None) -> np.ndarray:
    """Product of ``steps`` ``(on_a, bias_mhz, duration_ns)``, each pulsing
    ``a`` or ``a + 1``, over the pair and each live (None) outer neighbour:
    each pulse's own :func:`_block_operator`, partner kept in, times the
    identity on a live neighbour it does not read.  Keys are plain values."""
    op = None
    for on_a, bias, t in steps:
        w = _block_operator(delta_mhz, xi_mhz, bias, t, *((left, None) if on_a else (None, right)))
        if (right if on_a else left) is None:
            w = np.kron(w, np.eye(2)) if on_a else np.kron(np.eye(2), w)
        op = w if op is None else w @ op
    op.flags.writeable = False
    return op
