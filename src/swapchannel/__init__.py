"""Pulsed-bias qubit-chain swapping channels: design, schedule, simulate.

The package models chains of permanently coupled qubits whose only run-time
control is each qubit's z bias.  It solves for operating points where a
single bias pulse realises a controlled flip, compiles swap/copy pulse
schedules for quantum and classical wires over such chains, validates them
symbolically, and simulates them either in the reduced (frozen-neighbour)
model or against the full chain Hamiltonian.

The top level holds the workflow's entry points and the types they take and
return; every other public name lives in its own module (``chain``,
``evolve``, ``mps``, ``gates``, ``scheduler``, ``solver``, ``runner``).
"""

from .chain import ChainSpec
from .evolve import EntanglementError
from .runner import (
    ClassicalReport,
    GateReport,
    TransferReport,
    compute_frame_correction,
    copy_truth_table,
    infidelity_slope,
    run_classical_channel,
    run_gate_experiment,
    run_quantum_channel,
    sweep_eps_high,
)
from .scheduler import (
    LineAssignment,
    PulseEvent,
    PulseSchedule,
    ScheduleError,
    Window,
    classical_channel_schedule,
    line_conflict_check,
    quantum_channel_schedule,
    schedule_from_json,
    schedule_to_json,
    validate_sacrificial,
)
from .solver import (
    GateDesign,
    InfeasibleDesignError,
    snapped_hold_bias,
    solve_for_timestep,
    solve_parameters,
    validate_gate_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "solve_parameters",
    "solve_for_timestep",
    "validate_gate_conditions",
    "snapped_hold_bias",
    "GateDesign",
    "InfeasibleDesignError",
    "PulseEvent",
    "Window",
    "PulseSchedule",
    "LineAssignment",
    "ScheduleError",
    "quantum_channel_schedule",
    "classical_channel_schedule",
    "validate_sacrificial",
    "line_conflict_check",
    "schedule_to_json",
    "schedule_from_json",
    "compute_frame_correction",
    "run_quantum_channel",
    "run_classical_channel",
    "run_gate_experiment",
    "copy_truth_table",
    "sweep_eps_high",
    "infidelity_slope",
    "EntanglementError",
    "TransferReport",
    "ClassicalReport",
    "GateReport",
    "__version__",
]
