"""Static model of a fixed-coupling qubit chain under per-qubit bias control.

Conventions used across the package:

* Energies/frequencies are in MHz, durations in ns.  Accumulated phase for a
  frequency-like quantity ``f`` over a time ``t`` is ``2*pi*f*t*1e-3`` so that
  ``f = 100 MHz`` over ``t = 10 ns`` is exactly one cycle.
* Qubit 0 is the most significant bit of a computational basis index, i.e.
  basis state ``|b_0 b_1 ... b_{n-1}>`` has index ``sum(b_q << (n-1-q))``.
* The z eigenvalue of ``|0>`` is +1 and of ``|1>`` is -1.

The chain Hamiltonian is

    H = sum_q delta * sx_q  +  sum_q bias_q * sz_q  +  xi * sum_q sz_q sz_{q+1}

with a single, fixed transverse amplitude ``delta`` and a single, fixed
nearest-neighbour coupling ``xi``; the only run-time controls are the biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "ChainSpec",
    "TwoLevelParams",
    "phase_angle",
    "wrap_phase",
    "is_hermitian",
    "is_unitary",
    "build_hamiltonian",
    "effective_bias",
]

#: Full-chain operators are dense 2^n x 2^n arrays; refuse to build silly sizes.
DEFAULT_MAX_QUBITS = 12


def phase_angle(frequency_mhz, duration_ns):
    """Phase in radians accumulated by ``frequency_mhz`` over ``duration_ns``."""
    return 2.0 * np.pi * 1e-3 * np.asarray(frequency_mhz) * duration_ns


def wrap_phase(phi):
    """Wrap an angle (or array of angles) into the interval (-pi, pi]."""
    wrapped = np.mod(np.asarray(phi) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if np.ndim(phi) == 0 else wrapped


def is_hermitian(op: np.ndarray, tol: float = 1e-9) -> bool:
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(op))))
    return bool(np.max(np.abs(op - op.conj().T)) <= tol * scale)


def is_unitary(op: np.ndarray, tol: float = 1e-9) -> bool:
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    eye = np.eye(op.shape[0])
    return bool(np.max(np.abs(op.conj().T @ op - eye)) <= tol)


@dataclass(frozen=True)
class ChainSpec:
    """Fixed hardware parameters of one chain.

    ``eps_high_mhz`` is the parking bias applied to idle qubits; when omitted
    it defaults to ``100 * delta_mhz`` (deep in the strong-bias regime).
    """

    n_qubits: int
    delta_mhz: float
    xi_mhz: float
    eps_high_mhz: float | None = None

    def __post_init__(self):
        for name in ("delta_mhz", "xi_mhz", "eps_high_mhz"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.delta_mhz <= 0:
            raise ValueError(f"delta_mhz must be > 0, got {self.delta_mhz}")
        if self.xi_mhz < 0:
            raise ValueError(f"xi_mhz must be >= 0, got {self.xi_mhz}")
        if self.eps_high_mhz is None:
            object.__setattr__(self, "eps_high_mhz", 100.0 * self.delta_mhz)
        elif self.eps_high_mhz <= 0:
            raise ValueError("eps_high_mhz must be > 0 when given")

    def hold_biases(self) -> np.ndarray:
        """Bias profile with every qubit parked at +eps_high."""
        return np.full(self.n_qubits, float(self.eps_high_mhz))


@dataclass(frozen=True)
class TwoLevelParams:
    """Effective single-qubit problem ``H2 = delta*sx + effective_bias*sz``."""

    delta_mhz: float
    effective_bias_mhz: float

    def __post_init__(self):
        for name in ("delta_mhz", "effective_bias_mhz"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def hamiltonian(self) -> np.ndarray:
        return np.array(
            [
                [self.effective_bias_mhz, self.delta_mhz],
                [self.delta_mhz, -self.effective_bias_mhz],
            ],
            dtype=complex,
        )


def _z_values(n_qubits: int) -> np.ndarray:
    """(2^n, n) array of sz eigenvalues (+1/-1) per basis state and qubit."""
    idx = np.arange(1 << n_qubits)
    bits = (idx[:, None] >> (n_qubits - 1 - np.arange(n_qubits))) & 1
    return 1 - 2 * bits


def build_hamiltonian(
    spec: ChainSpec,
    biases_mhz: Sequence[float],
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Dense chain Hamiltonian for one bias profile, as a real float64 matrix.

    Diagonal part: per-qubit sz biases plus the fixed sz-sz coupling between
    nearest neighbours.  Off-diagonal part: ``delta`` on every pair of indices
    differing in exactly one bit.  Every term is real, so the matrix is real
    symmetric and :func:`~swapchannel.evolve.propagator` can use a real
    eigendecomposition.
    """
    n = spec.n_qubits
    if n > max_qubits:
        raise ValueError(
            f"refusing to build a {n}-qubit dense operator (max_qubits={max_qubits})"
        )
    biases = np.asarray(biases_mhz, dtype=float)
    if biases.shape != (n,):
        raise ValueError(f"expected {n} biases, got shape {biases.shape}")

    z = _z_values(n)
    diag = z @ biases
    if n > 1:
        diag = diag + spec.xi_mhz * np.sum(z[:, :-1] * z[:, 1:], axis=1)

    dim = 1 << n
    h = np.zeros((dim, dim))
    h[np.arange(dim), np.arange(dim)] = diag
    idx = np.arange(dim)
    for q in range(n):
        flipped = idx ^ (1 << (n - 1 - q))
        h[idx, flipped] += spec.delta_mhz
    return h


def effective_bias(biases_mhz, xi_mhz: float, z) -> np.ndarray:
    """Bias each site sees with its neighbours frozen: ``bias + xi * sum z_nbr``.

    This is the reduced model's one formula: a pulsed qubit flips when its
    neighbours disagree and only picks up a phase when they agree.
    ``biases_mhz`` and ``z`` have shape ``(..., n)``; ``z`` holds each site's
    frozen z value (+1 for |0>, -1 for |1>), or 0 where a site contributes
    nothing (absent, data-carrying or pulsed).  The neighbour sum is two
    shifted integer adds along the last axis.
    """
    z = np.asarray(z)
    s_nb = np.zeros_like(z)
    s_nb[..., 1:] += z[..., :-1]
    s_nb[..., :-1] += z[..., 1:]
    return np.asarray(biases_mhz, dtype=float) + xi_mhz * s_nb
