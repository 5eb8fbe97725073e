"""The ideal controlled flip and the exact reduced pulse operators.

All matrices are written in the chain's own basis ordering (leftmost listed
qubit is the most significant bit).  The ideal gate carries the exact branch
phases of a phase-exact design (M odd, N even): a held branch acquires -1, a
flipped branch -i.
Reduced mode takes every pulse from :func:`reduced_pulse_operator`, which
caches its operators for the process.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .chain import ChainSpec, TwoLevelParams, _z_values, effective_bias
from .evolve import propagator

__all__ = ["IDEAL_CNOT", "reduced_pulse_operator"]

#: Controlled flip in |control, target> ordering, read-only.  Control |0>:
#: target held, branch phase -1.  Control |1>: target flipped, branch phase -i.
IDEAL_CNOT = np.array(
    [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1j], [0, 0, -1j, 0]], dtype=complex
)
IDEAL_CNOT.flags.writeable = False


def reduced_pulse_operator(
    spec: ChainSpec, qubit: int, bias_mhz: float, duration_ns: float
) -> tuple[np.ndarray, int]:
    """Exact window propagator for the pulsed ``qubit`` with frozen neighbours.

    Returns ``(op, first_qubit)``: the read-only block operator over the
    chain-ordered qubits (left?, target, right?), where only a chain end lacks
    a neighbour, and the first of them.  For each neighbour basis
    configuration the 2x2 block is the exact two-level propagator at the
    :func:`~swapchannel.chain.effective_bias` of the target.  For a solved
    phase-exact design each block is a hold (-1) or a flip (-i), bit for bit.
    """
    if not 0 <= qubit < spec.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for n={spec.n_qubits}")
    has_left, has_right = qubit > 0, qubit < spec.n_qubits - 1
    op = _block_operator(spec.delta_mhz, spec.xi_mhz, bias_mhz, duration_ns, has_left, has_right)
    return op, qubit - has_left


@lru_cache(maxsize=256)
def _block_operator(
    delta_mhz: float, xi_mhz: float, pulse_bias_mhz: float, duration_ns: float,
    has_left: bool, has_right: bool,
) -> np.ndarray:
    k = 1 + has_left + has_right
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
    op = out.reshape(1 << k, 1 << k)
    op.flags.writeable = False
    return op
