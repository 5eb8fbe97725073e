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
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "ChainSpec",
    "TwoLevelParams",
    "phase_angle",
    "wrap_phase",
    "is_hermitian",
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


def is_hermitian(op: np.ndarray) -> bool:
    """Square and Hermitian within 1e-9 of its largest entry (or of 1)."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(op))))
    return bool(np.max(np.abs(op - op.conj().T)) <= 1e-9 * scale)


def _number(value, what: str, *, low=None, error=ValueError) -> float:
    """``value`` as a finite plain float: ints and numpy reals are taken; a
    bool, a str, an int past the float range and a value below ``low`` are
    refused with ``error``.  Every input boundary checks its numbers here."""
    number = value
    if type(value) is not float:
        if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
            raise error(f"{what} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise error(f"{what} must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise error(f"{what} must be finite, got {number!r}")
    if low is not None and number < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return number


def _integer(value, what: str, *, low=None, high=None, nullable=False, error=ValueError):
    """``value`` as a plain int (None as it is when ``nullable``): numpy
    integers are taken; a bool, a float, a str and a value outside
    ``[low, high]`` are refused with ``error``.  Every input boundary checks
    its integers here."""
    if type(value) is not int:
        if value is None and nullable:
            return None
        if type(value) is bool or not isinstance(value, (int, np.integer)):
            raise error(f"{what} must be an integer{' or null' if nullable else ''}, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{what} must be <= {high}, got {value}")
    return value


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
        _set = object.__setattr__
        _set(self, "n_qubits", _integer(self.n_qubits, "n_qubits", low=1))
        _set(self, "delta_mhz", _number(self.delta_mhz, "delta_mhz"))
        _set(self, "xi_mhz", _number(self.xi_mhz, "xi_mhz", low=0))
        if self.delta_mhz <= 0:
            raise ValueError(f"delta_mhz must be > 0, got {self.delta_mhz}")
        if self.eps_high_mhz is None:
            _set(self, "eps_high_mhz", 100.0 * self.delta_mhz)
        else:
            _set(self, "eps_high_mhz", _number(self.eps_high_mhz, "eps_high_mhz"))
            if self.eps_high_mhz <= 0:
                raise ValueError("eps_high_mhz must be > 0 when given")


@dataclass(frozen=True)
class TwoLevelParams:
    """Effective single-qubit problem ``H2 = delta*sx + effective_bias*sz``."""

    delta_mhz: float
    effective_bias_mhz: float

    def __post_init__(self):
        for name in ("delta_mhz", "effective_bias_mhz"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if self.delta_mhz <= 0:
            raise ValueError(f"delta_mhz must be > 0, got {self.delta_mhz}")

    def hamiltonian(self) -> np.ndarray:
        return np.array(
            [
                [self.effective_bias_mhz, self.delta_mhz],
                [self.delta_mhz, -self.effective_bias_mhz],
            ],
            dtype=complex,
        )


@lru_cache(maxsize=None)
def _z_values(n_qubits: int) -> np.ndarray:
    """(2^n, n) read-only sz eigenvalues (+1/-1) per basis state and qubit."""
    idx = np.arange(1 << n_qubits)
    z = 1 - 2 * ((idx[:, None] >> (n_qubits - 1 - np.arange(n_qubits))) & 1)
    z.flags.writeable = False
    return z


def _mirror_index(n_qubits: int) -> np.ndarray:
    """(2^n,) index of each basis state's mirror image (qubit q <-> n-1-q),
    the bit reversal of its index: ``H(b[::-1]) = H(b)[m][:, m]``."""
    idx = np.arange(1 << n_qubits)
    bits = (idx[:, None] >> np.arange(n_qubits)) & 1
    return bits @ (1 << np.arange(n_qubits)[::-1])


def build_hamiltonian(spec: ChainSpec, biases_mhz: Sequence[float]) -> np.ndarray:
    """Dense chain Hamiltonian for one bias profile, as a real float64 matrix.

    Diagonal part: per-qubit sz biases plus the fixed sz-sz coupling between
    nearest neighbours.  Off-diagonal part: ``delta`` on every pair of indices
    differing in exactly one bit.  Every term is real, so the matrix is real
    symmetric and :func:`~swapchannel.evolve.propagator` can use a real
    eigendecomposition.  Its couplings are uniform, so reversing the biases
    mirrors the matrix: ``H(b[::-1]) = H(b)[m][:, m]`` with ``m`` from
    :func:`_mirror_index`.  Refuses chains of more than ``DEFAULT_MAX_QUBITS``
    and any bias that :func:`_number` refuses (a bool, a str, a non-finite value).
    """
    n = spec.n_qubits
    if n > DEFAULT_MAX_QUBITS:
        raise ValueError(
            f"refusing to build a {n}-qubit dense operator "
            f"(DEFAULT_MAX_QUBITS={DEFAULT_MAX_QUBITS})"
        )
    if np.shape(biases_mhz) != (n,):
        raise ValueError(f"expected {n} biases, got shape {np.shape(biases_mhz)}")
    biases = np.array([_number(b, f"biases_mhz[{q}]") for q, b in enumerate(biases_mhz)])

    z = _z_values(n)
    diag = z @ biases
    if n > 1:
        diag = diag + spec.xi_mhz * np.sum(z[:, :-1] * z[:, 1:], axis=1)

    idx = np.arange(1 << n)
    h = np.zeros((len(idx), len(idx)))
    h[idx, idx] = diag
    h[idx[:, None], idx[:, None] ^ (1 << np.arange(n))] = spec.delta_mhz  # one bit flipped
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
