"""Closed-form design of gate parameters from the oscillation law.

A pulsed qubit with transverse amplitude ``delta`` and total effective bias
``sigma`` (its own bias plus the signed neighbour couplings) oscillates as

    P1(t) = X - Y * cos(2*pi * f * t * 1e-3),      f = 2 * sqrt(delta^2 + sigma^2)
    X = Y = delta^2 / (2 * (delta^2 + sigma^2))

A controlled flip over a window T needs the equal-neighbour branch
(f1 = 2*sqrt(delta^2 + 4 xi^2)) to complete an integer number M of cycles
while the cancelled-neighbour branch (f2 = 2*delta) sits at a half-integer
(2N+1)/2.  Solving both conditions gives the closed forms below; the branch
phases come out to exactly -1 (hold) and -i (flip) iff M is odd and N even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chain import TwoLevelParams, _integer, _number

__all__ = [
    "InfeasibleDesignError",
    "GateDesign",
    "GateConditionReport",
    "OscillationDescriptor",
    "oscillation_descriptor",
    "solve_parameters",
    "solve_for_timestep",
    "copy_frequencies",
    "validate_gate_conditions",
    "snapped_hold_bias",
]


class InfeasibleDesignError(ValueError):
    """No positive (delta, xi) satisfies the requested cycle counts."""


@dataclass(frozen=True)
class GateDesign:
    """One solved operating point: window length plus cycle counts and the
    hardware parameters they imply."""

    t_ns: float
    m: int
    n: int
    delta_mhz: float
    xi_mhz: float

    @property
    def f1_mhz(self) -> float:
        """Oscillation frequency when both neighbour couplings add."""
        return 2.0 * math.hypot(self.delta_mhz, 2.0 * self.xi_mhz)

    @property
    def f2_mhz(self) -> float:
        """Oscillation frequency when the neighbour couplings cancel."""
        return 2.0 * self.delta_mhz


@dataclass(frozen=True)
class OscillationDescriptor:
    """Parameters of the P1(t) law for one two-level problem."""

    offset: float
    amplitude: float
    frequency_mhz: float

    def probability(self, t_ns) -> float:
        import numpy as np

        return self.offset - self.amplitude * np.cos(
            2.0 * np.pi * 1e-3 * self.frequency_mhz * np.asarray(t_ns)
        )


def oscillation_descriptor(params: TwoLevelParams) -> OscillationDescriptor:
    """Analytic P1(t) for a qubit started in |0> under ``params``."""
    # hypot, not the root of a sum of squares, which overflows past 1e154
    omega = math.hypot(params.delta_mhz, params.effective_bias_mhz)
    half = 0.5 * (params.delta_mhz / omega) ** 2
    return OscillationDescriptor(offset=half, amplitude=half, frequency_mhz=2.0 * omega)


def solve_parameters(t_ns: float, m: int = 1, n: int = 0) -> GateDesign:
    """Solve (delta, xi) so a window of ``t_ns`` realises the (M, N) point.

    Closed forms (T in ns, results in MHz):

        delta = 250 * (2N + 1) / T
        xi    = 125 * sqrt(4 M^2 - (2N + 1)^2) / T

    Feasible iff 2M > 2N + 1.
    """
    t_ns, m, n = _number(t_ns, "t_ns"), _integer(m, "m"), _integer(n, "n")
    if t_ns <= 0:
        raise ValueError(f"t_ns must be finite and > 0, got {t_ns}")
    if m < 1 or n < 0:
        raise InfeasibleDesignError(f"need m >= 1 and n >= 0, got m={m}, n={n}")
    disc = 4 * m * m - (2 * n + 1) ** 2
    if disc <= 0:
        raise InfeasibleDesignError(
            f"no positive coupling solves m={m}, n={n}: requires 2m > 2n + 1"
        )
    try:
        delta = 250.0 * (2 * n + 1) / t_ns
        xi = 125.0 * math.sqrt(disc) / t_ns
    except OverflowError:  # m or n past the float range
        delta = xi = math.inf
    if not (math.isfinite(delta) and math.isfinite(xi)):
        raise ValueError(f"m={m}, n={n} at t_ns={t_ns} give a non-finite delta or xi")
    return GateDesign(t_ns=t_ns, m=m, n=n, delta_mhz=delta, xi_mhz=xi)


def solve_for_timestep(delta_mhz: float, m: int = 1, n: int = 0) -> GateDesign:
    """Same operating point, but parameterised by ``delta`` instead of T."""
    delta_mhz = _number(delta_mhz, "delta_mhz")
    if delta_mhz <= 0:
        raise ValueError(f"delta_mhz must be finite and > 0, got {delta_mhz}")
    t_ns = 250.0 * (2 * _integer(n, "n") + 1) / delta_mhz
    return solve_parameters(t_ns, m=m, n=n)


def copy_frequencies(delta_mhz: float, xi_mhz: float) -> tuple[float, float, float]:
    """The three oscillation frequencies of a qubit pulsed to 0 MHz.

    f1: neighbours equal (couplings add), f2: neighbours differ (couplings
    cancel), f3: a single neighbour only (end qubit, or one neighbour with the
    other decoupled).
    """
    f1 = 2.0 * math.hypot(delta_mhz, 2.0 * xi_mhz)
    f2 = 2.0 * abs(delta_mhz)
    f3 = 2.0 * math.hypot(delta_mhz, xi_mhz)
    return f1, f2, f3


@dataclass(frozen=True)
class GateConditionReport:
    """Integrality check of one design's cycle counts over its own window."""

    f1_cycles: float
    f2_cycles: float
    m_odd: bool
    n_even: bool
    ok: bool


def validate_gate_conditions(
    design: GateDesign, *, phase_exact: bool = True
) -> GateConditionReport:
    """Check f1*T = M and f2*T = N + 1/2 in cycles, within 1e-9.

    With ``phase_exact`` (default) the parity conditions M odd / N even are
    also required, which pins the branch phases to exactly -1 and -i; without
    it only the populations (truth table) are certified.
    """
    f1_cycles = design.f1_mhz * design.t_ns * 1e-3
    f2_cycles = design.f2_mhz * design.t_ns * 1e-3
    integral = (
        abs(f1_cycles - design.m) <= 1e-9
        and abs(2.0 * f2_cycles - (2 * design.n + 1)) <= 1e-9
    )
    m_odd = design.m % 2 == 1
    n_even = design.n % 2 == 0
    ok = integral and (not phase_exact or (m_odd and n_even))
    return GateConditionReport(
        f1_cycles=f1_cycles, f2_cycles=f2_cycles, m_odd=m_odd, n_even=n_even, ok=ok
    )


def snapped_hold_bias(delta_mhz: float, t_ns: float) -> float:
    """Smallest bias >= 1000*delta whose idle phase per window is 0 mod 2pi.

    A parked qubit at bias ``eps`` accrues a bare z phase of
    ``2*pi * eps * T * 1e-3`` per window; choosing ``eps = k * 1000 / T`` with
    integer k makes that a whole number of turns.
    """
    if t_ns <= 0:
        raise ValueError(f"t_ns must be > 0, got {t_ns}")
    k = math.ceil(1000.0 * delta_mhz * t_ns * 1e-3 - 1e-12)
    return max(k, 1) * 1e3 / t_ns
