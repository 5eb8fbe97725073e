"""Command-line interface.

Subcommands: ``solve`` (design parameters), ``schedule`` (emit a pulse
schedule), ``validate`` (replay a schedule file), ``trace`` (single-qubit
oscillation CSV), ``run`` (config-driven experiments with assertions).

Exit codes: 0 success, 1 configuration/usage error, 2 infeasible design,
3 assertion or validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .chain import ChainSpec, TwoLevelParams, _integer, _number
from .evolve import QuantumState, sample_trajectory
from .runner import (
    copy_truth_table,
    infidelity_slope,
    run_classical_channel,
    run_gate_experiment,
    run_quantum_channel,
    sweep_eps_high,
)
from .scheduler import (
    ScheduleError,
    _json_parts,
    classical_channel_schedule,
    line_conflict_check,
    quantum_channel_schedule,
    schedule_from_json,
)
from .solver import (
    GateDesign,
    InfeasibleDesignError,
    copy_frequencies,
    oscillation_descriptor,
    snapped_hold_bias,
    solve_for_timestep,
    solve_parameters,
    validate_gate_conditions,
)

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """Bad command line or config file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path: str, parts: Iterable[str]) -> None:
    """Write ``parts`` one by one to ``path`` through ``path.tmp``: a path that
    cannot be written is a usage error, and any failure (of a write or of the
    parts) leaves no ``.tmp`` file and no partial ``path`` behind."""
    tmp = path + ".tmp"
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None
    finally:
        if os.path.isfile(tmp):
            os.remove(tmp)


def _design_obj(design: GateDesign, phase_exact: bool = True) -> dict:
    obj = _section(design, "t_ns", "m", "n", "delta_mhz", "xi_mhz", "f1_mhz", "f2_mhz")
    obj["copy_frequencies_mhz"] = list(copy_frequencies(design.delta_mhz, design.xi_mhz))
    obj["conditions"] = asdict(validate_gate_conditions(design, phase_exact=phase_exact))
    return obj


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    if (args.t_ns is None) == (args.delta_mhz is None):
        raise ConfigError("give exactly one of --t-ns or --delta-mhz")
    if args.t_ns is not None:
        design = solve_parameters(args.t_ns, m=args.m, n=args.n)
    else:
        design = solve_for_timestep(args.delta_mhz, m=args.m, n=args.n)
    obj = _design_obj(design, phase_exact=not args.no_phase_exact)
    obj["conditions"]["phase_exact_required"] = not args.no_phase_exact
    text = _dump_json(obj)
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, [text])
    return 0 if obj["conditions"]["ok"] else 3


# ---------------------------------------------------------------------------
# schedule / validate
# ---------------------------------------------------------------------------


def _chain_setup(cfg: dict, n_qubits: int, key: str) -> tuple[GateDesign, float, ChainSpec]:
    """(design, parking bias, chain) from the ``t_ns``/``m``/``n``/``eps_high_mhz``
    settings of a config or command line; ``key`` names the bias in a refusal."""
    design = solve_parameters(cfg["t_ns"], m=cfg["m"], n=cfg["n"])
    eps = cfg["eps_high_mhz"]
    if eps == "snap_1000x_delta":
        eps = snapped_hold_bias(design.delta_mhz, design.t_ns)
    _require_resolvable(eps, design.t_ns, _PARKED, name=key)
    spec = ChainSpec(
        n_qubits=n_qubits, delta_mhz=design.delta_mhz, xi_mhz=design.xi_mhz, eps_high_mhz=eps
    )
    return design, eps, spec


def _replay_and_lines(schedule, lines) -> tuple[list, dict | None]:
    """A schedule's replay violations as report objects, and its line check
    as ``{"ok", "problems"}`` (None without a line map)."""
    line_check = None if lines is None else asdict(line_conflict_check(schedule, lines))
    return [asdict(v) for v in schedule.replay.violations], line_check


def _cmd_schedule(args) -> int:
    # the design bounds and size caps of ``run``, before anything is built (a
    # flag not given counts as 0)
    for key in ("t_ns", "m", "n"):
        _value(_DESIGN_KEYS[key], vars(args)[key], "--" + key.replace("_", "-"))
    _integer(args.n_qubits, "--n-qubits:", high=_KEYS[f"{args.kind}_wire"]["n_qubits"].high)
    _integer(args.n_states or 0, "--n-states:", high=_KEYS["quantum_wire"]["n_states"].high)
    _integer(len(args.bits or ""), "--bits length:", high=_KEYS["classical_wire"]["bits"].items[1])
    other = ("--bits", args.bits) if args.kind == "quantum" else ("--n-states", args.n_states)
    if other[1] is not None:
        raise ConfigError(f"{other[0]} is not an option of a {args.kind} schedule")
    eps = "snap_1000x_delta" if args.eps_high_mhz is None else args.eps_high_mhz
    _, _, spec = _chain_setup(vars(args) | {"eps_high_mhz": eps}, args.n_qubits, "--eps-high-mhz")
    if args.kind == "quantum":
        if args.n_states is None:
            raise ConfigError("--n-states is required for a quantum schedule")
        schedule, lines = quantum_channel_schedule(
            spec, args.n_states, args.t_ns, line_mode=args.line_mode
        )
    else:
        if not args.bits:
            raise ConfigError("--bits is required for a classical schedule")
        if any(c not in "01" for c in args.bits):
            raise ConfigError(f"--bits must be a 0/1 string, got {args.bits!r}")
        schedule, lines = classical_channel_schedule(
            spec, [int(c) for c in args.bits], args.t_ns
        )
    parts = _json_parts(schedule, lines)
    if args.out:
        _write_text(args.out, parts)
    else:
        sys.stdout.writelines(parts)
    return 0


def _cmd_validate(args) -> int:
    try:
        with open(args.schedule, encoding="utf-8") as fh:
            schedule, lines = schedule_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read schedule file {args.schedule!r}: {exc}") from exc
    except ScheduleError as exc:
        raise ScheduleError(f"schedule {args.schedule!r}: {exc}") from None
    violations, line_check = _replay_and_lines(schedule, lines)
    ok = not violations and (line_check is None or line_check["ok"])
    obj = {
        "schedule": args.schedule,
        "label": schedule.label,
        "n_qubits": schedule.n_qubits,
        "n_windows": schedule.n_windows,
        "violations": violations,
        "line_check": line_check,
        "ok": ok,
    }
    sys.stdout.write(_dump_json(obj))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Overlay the simulated and analytic oscillation from a trace CSV."""
import csv
import sys

import matplotlib.pyplot as plt

path = {csv_path!r}
times, simulated, analytic = [], [], []
with open(path, newline="") as fh:
    for row in csv.DictReader(fh):
        times.append(float(row["time_ns"]))
        simulated.append(float(row["p1_simulated"]))
        analytic.append(float(row["p1_analytic"]))

fig, ax = plt.subplots()
ax.plot(times, analytic, label="analytic", lw=1.5)
ax.plot(times, simulated, ".", ms=4, label="simulated")
ax.set_xlabel("time (ns)")
ax.set_ylabel("P(|1>)")
ax.legend()
out = sys.argv[1] if len(sys.argv) > 1 else path.rsplit(".", 1)[0] + ".png"
fig.savefig(out, dpi=150)
print(out)
'''


#: The largest total phase ``2*pi*1e-3*hypot(delta, bias)*duration`` a trace
#: accepts, in radians.  float64 holds a phase of x rad only to about
#: x * 1e-16 rad, and both columns carry that error in every row: with
#: delta = bias over 10 ns they differ by at most 6e-8 at 8.9e8 rad, 1.3e-5 at
#: 8.9e10 rad and 5e-4 at 8.9e12 rad (0.15 at delta = bias = 1e300 MHz).
#: ``run`` and ``schedule`` hold a parking bias's phase per window to it too.
MAX_TRACE_PHASE_RAD = 1e9
_PARKED = ("{name}: a qubit parked at {mhz:.3g} MHz turns {phase:.3g} rad per window, past "
           "{bound:.0e} rad, where float64 cannot resolve its phase")
#: The most samples a trace may ask for; more are refused before anything is
#: built.  One core of a Xeon writes 1e4 rows in 0.34 s (34 MB peak) and 1e5
#: rows in 3.5 s (49 MB peak, a 5 MB CSV); time and memory grow with the rows.
MAX_TRACE_SAMPLES = 100_000


def _require_resolvable(mhz: float, t_ns: float, refusal: str, **names) -> None:
    """Refuse with ``refusal``, formatted, a phase ``2*pi*1e-3*mhz*t_ns`` past
    ``MAX_TRACE_PHASE_RAD``: float64 cannot resolve it."""
    phase = 2.0 * math.pi * 1e-3 * mhz * t_ns
    if phase > MAX_TRACE_PHASE_RAD:
        raise ConfigError(refusal.format(mhz=mhz, phase=phase, bound=MAX_TRACE_PHASE_RAD, **names))


def _cmd_trace(args) -> int:
    _number(args.duration_ns, "--duration-ns:", low=0)
    _integer(args.samples, "--samples:", low=1, high=MAX_TRACE_SAMPLES)
    if _number(args.delta_mhz, "--delta-mhz:") <= 0:
        raise ConfigError(f"--delta-mhz: must be > 0, got {args.delta_mhz}")
    _number(args.bias_mhz, "--bias-mhz:")
    params = TwoLevelParams(delta_mhz=args.delta_mhz, effective_bias_mhz=args.bias_mhz)
    _require_resolvable(math.hypot(args.delta_mhz, args.bias_mhz), args.duration_ns,
                        "total phase {phase:.3g} rad exceeds {bound:.0e} rad, past which float64 "
                        "cannot resolve the oscillation; shorten --duration-ns or lower "
                        "--delta-mhz/--bias-mhz")
    descriptor = oscillation_descriptor(params)
    times, probs = sample_trajectory(
        QuantumState.ground(1), params.hamiltonian(), args.duration_ns, args.samples
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time_ns", "p1_simulated", "p1_analytic"])
    for t, p in zip(times, probs[:, 0]):
        writer.writerow([repr(float(t)), repr(float(p)), repr(float(descriptor.probability(t)))])
    _write_text(args.out, [buf.getvalue()])
    if args.plot_script:
        _write_text(args.plot_script, [_PLOT_SCRIPT.format(csv_path=args.out)])
    obj = {"csv": args.out, "rows": int(times.shape[0])}
    obj |= _section(descriptor, "frequency_mhz", "offset", "amplitude")
    sys.stdout.write(_dump_json(obj))
    return 0


# ---------------------------------------------------------------------------
# run (config-driven experiments)
# ---------------------------------------------------------------------------

#: The largest chain, and the most states, bits or sweep points, a config may
#: ask for; larger sizes are refused before anything is built (full mode is
#: capped lower, by ``build_hamiltonian``).  1024 is five times the longest
#: wire studied (L = 201) and keeps any config to minutes.  Reduced mode, one
#: Xeon core, whole ``run``, no schedule file: 1024 qubits, 1 state 0.25-0.5 s
#: (53 MB peak); 5 qubits, 1024 states 0.6-0.9 s; 1024 bits 0.4-0.7 s; 1024
#: sweep points 0.4 s; 1024 qubits, 64 states 1.3-1.4 s (72 MB); classical,
#: 1024 qubits 2.5-3.8 s (79 MB).  Time grows as qubits x states (qubits^2
#: classical).
MAX_CONFIG_QUBITS = 1024
MAX_CONFIG_ITEMS = 1024


class _Key(NamedTuple):
    """What ``swapchannel run`` accepts for one key of one experiment's
    config, and the value the key takes when it is not given."""

    kind: str  # "number", "integer", "choice", "biases", "bits", "states" or "outputs";
    # an assertion's value is a "number", "integer", "boolean" or "range"
    default: object = None  # a key not given takes it; None, unless named, makes it required;
    # the keys of an "outputs" default are the files a config may name
    low: float | None = None  # the least number (each entry's, in a list)
    high: int | None = None  # the greatest integer
    items: tuple[int, int] = (1, MAX_CONFIG_ITEMS)  # the least and most entries of a list
    named: tuple = ()  # values taken as they are: a choice's options, or one beside the kind


#: The keys every experiment takes, besides ``experiment``, ``outputs`` and
#: ``assertions``.
_DESIGN_KEYS = {
    "t_ns": _Key("number", 10.0, low=1e-9),
    "m": _Key("integer", 1, low=1),
    "n": _Key("integer", 0, low=0),
    "mode": _Key("choice", "both", named=("reduced", "full", "both")),
    "eps_high_mhz": _Key("number", "snap_1000x_delta", low=1e-9, named=("snap_1000x_delta",)),
}


#: The config keys of each experiment, one row each.  ``_validate_config``
#: checks a config against its experiment's rows, ``schedule`` takes its
#: size caps from them, and the README's key table lists them.
_KEYS = {
    "quantum_wire": _DESIGN_KEYS | {
        "n_qubits": _Key("integer", 5, low=2, high=MAX_CONFIG_QUBITS),
        "n_states": _Key("integer", 1, low=1, high=MAX_CONFIG_ITEMS),
        "states": _Key("states", "random", named=("random",)),
        "seed": _Key("integer", None, low=0, named=(None,)),
        "line_mode": _Key("choice", "mod6", named=("mod6", "mod3")),
        "outputs": _Key("outputs", {"report": "quantum_wire_report.json", "schedule": None}),
    },
    "classical_wire": _DESIGN_KEYS | {
        "n_qubits": _Key("integer", 6, low=4, high=MAX_CONFIG_QUBITS),
        "bits": _Key("bits"),
        "outputs": _Key("outputs", {"report": "classical_wire_report.json", "schedule": None}),
    },
    "copy_table": _DESIGN_KEYS | {"outputs": _Key("outputs", {"report": "copy_table_report.json"})},
    "gate": _DESIGN_KEYS | {
        "eps_grid": _Key("biases", None, low=1e-9, items=(2, MAX_CONFIG_ITEMS), named=(None,)),
        "outputs": _Key("outputs", {"report": "gate_report.json"}),
    },
}


class _Assertion(NamedTuple):
    """How ``swapchannel run`` grades one assertion key of a config."""

    name: str  # the check name; "{mode}" becomes the graded mode
    kind: str  # the kind of the config's limit, as in ``_Key``
    grades: str  # "reduced" or "full", "each" mode the config runs, or the whole "run"
    value: Callable  # (graded mode's results section, or the report; report) -> graded value
    passes: Callable  # (graded value, the config's limit) -> bool
    detail: str  # format string over {got} and {limit}


#: The assertion keys of each experiment, in the order their checks print.
_ASSERTIONS = {
    "quantum_wire": {
        "min_reduced_fidelity": _Assertion(
            "min_reduced_fidelity", "number", "reduced", lambda s, _: s["min_fidelity_corrected"],
            operator.ge, "min fidelity {got:.9f} vs {limit}",
        ),
        "max_reduced_phase_error": _Assertion(
            "max_reduced_phase_error", "number", "reduced",
            lambda s, _: max(abs(r["phase_error_corrected"]) for r in s["records"]),
            operator.le, "max |phase error| {got:.3e} vs {limit}",
        ),
        "min_corrected_fidelity": _Assertion(
            "min_corrected_fidelity", "number", "full", lambda s, _: s["min_fidelity_corrected"],
            operator.ge, "min corrected fidelity {got:.9f} vs {limit}",
        ),
    },
    "classical_wire": {
        "require_echo": _Assertion(
            "echo_{mode}", "boolean", "each",
            lambda s, report: (list(s["bits_out"]), report["bits_in"]),
            lambda got, _: got[0] == got[1], "bits_out={got[0]} vs bits_in={got[1]}",
        ),
        "expect_latency_sequences": _Assertion(
            "latency_{mode}", "integer", "each", lambda s, _: s["latency_sequences"],
            operator.eq, "latency {got} vs {limit}",
        ),
    },
    "copy_table": {
        "min_fidelity": _Assertion(
            "min_fidelity_{mode}", "number", "each", lambda s, _: s["min_fidelity"],
            operator.ge, "min fidelity {got:.9f} vs {limit}",
        ),
    },
    "gate": {
        "max_worst_infidelity": _Assertion(
            "max_worst_infidelity", "number", "full", lambda s, _: s["worst_infidelity"],
            operator.le, "worst infidelity {got:.3e} vs {limit}",
        ),
        "slope_range": _Assertion(
            "slope_range", "range", "run", lambda report, _: report["sweep"]["slope"],
            lambda got, limit: limit[0] <= got <= limit[1], "slope {got:.3f} vs {limit}",
        ),
    },
}


#: What a refusal calls the entries of each list kind.
_ENTRIES = {"biases": "biases", "bits": "0/1 bits", "states": "[re0, im0, re1, im1] states"}


def _value(row: _Key, obj, path: str):
    """``obj`` as a validated config holds it, once it is one of the row's
    named values, or of its kind and inside its bounds."""
    if obj in row.named:
        return obj
    if row.kind == "number":
        return _number(obj, f"{path}:", low=row.low)
    if row.kind == "integer":
        return _integer(obj, f"{path}:", low=row.low, high=row.high)
    if row.kind == "choice":
        raise ConfigError(f"{path}: must be one of {list(row.named)}, got {obj!r}")
    if row.kind == "boolean":
        if not isinstance(obj, bool):
            raise ConfigError(f"{path}: expected true or false, got {obj!r}")
        return obj
    if row.kind == "range":
        if not isinstance(obj, list) or len(obj) != 2:
            raise ConfigError(f"{path}: expected [low, high]")
        return [_number(x, f"{path}[{i}]:") for i, x in enumerate(obj)]
    if row.kind == "outputs":
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: expected an object")
        for key, name in obj.items():
            if key not in row.default:
                raise ConfigError(f"{path}.{key}: unknown key")
            if (not isinstance(name, str) or not name or os.path.isabs(name)
                    or os.pardir in name.replace("\\", "/").split("/")):
                raise ConfigError(
                    f"{path}.{key}: expected a file name inside --out-dir, got {name!r}"
                )
        return row.default | obj
    low, high = row.items
    if not isinstance(obj, list) or not low <= len(obj) <= high:
        raise ConfigError(f"{path}: expected a list of {low} to {high} {_ENTRIES[row.kind]}")
    if row.kind == "biases":
        return [_number(x, f"{path}[{i}]:", low=row.low) for i, x in enumerate(obj)]
    if row.kind == "bits":
        if any(type(b) is not int or b not in (0, 1) for b in obj):
            raise ConfigError(f"{path}: expected a non-empty list of the integers 0 and 1")
        return obj
    states = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ConfigError(f"{path}[{i}]: expected [re0, im0, re1, im1]")
        nums = [_number(x, f"{path}[{i}][{j}]:") for j, x in enumerate(entry)]
        vec = np.array([nums[0] + 1j * nums[1], nums[2] + 1j * nums[3]])
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-6:
            raise ConfigError(f"{path}[{i}]: norm {norm:.8f} is not 1")
        states.append(vec / norm)
    return states


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_config(ref: str) -> dict:
    if os.path.exists(ref):
        try:
            with open(ref, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {ref!r}: cannot read: {exc}") from None
    else:
        name = ref[:-5] if ref.endswith(".json") else ref
        resource = resources.files("swapchannel").joinpath(f"configs/{name}.json")
        if not resource.is_file():
            raise ConfigError(f"config {ref!r}: no such file or bundled config")
        text = resource.read_text(encoding="utf-8")
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {ref!r} is not valid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"config {ref!r}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config {ref!r}: top level must be an object")
    return obj


def _validate_config(cfg: dict) -> dict:
    """The config with every row of its experiment checked and filled in
    (random states drawn), ``modes`` for its ``mode``, and its assertions
    checked."""
    experiments = _Key("choice", named=tuple(sorted(_KEYS)))
    experiment = _value(experiments, cfg.get("experiment"), "config.experiment")
    rows, assertions = _KEYS[experiment], _ASSERTIONS[experiment]
    for key in cfg:
        if key not in rows and key not in ("experiment", "assertions"):
            raise ConfigError(f"config.{key}: unknown key for experiment {experiment!r}")
    out = {"experiment": experiment}
    for key, row in rows.items():
        if key in cfg:
            out[key] = _value(row, cfg[key], f"config.{key}")
        elif row.default is None and None not in row.named:
            raise ConfigError(f"config.{key}: required")
        else:
            out[key] = row.default
    out["modes"] = ["reduced", "full"] if out["mode"] == "both" else [out["mode"]]

    given = cfg.get("assertions", {})
    if not isinstance(given, dict):
        raise ConfigError("config.assertions: expected an object")
    for key, limit in given.items():
        path = f"config.assertions.{key}"
        if key not in assertions:
            raise ConfigError(f"{path}: unknown key for experiment {experiment!r}")
        _value(_Key(assertions[key].kind), limit, path)
        grades = assertions[key].grades
        if grades in ("reduced", "full") and grades not in out["modes"]:
            raise ConfigError(f"{path}: grades mode {grades}, which this config does not run")
    out["assertions"] = dict(given)

    # the rules that tie one key to another
    if "slope_range" in given and out["eps_grid"] is None:
        raise ConfigError("config.assertions.slope_range: needs eps_grid")
    for i, eps in enumerate(out.get("eps_grid") or []):  # eps_high_mhz: in _chain_setup
        _require_resolvable(eps, out["t_ns"], _PARKED, name=f"config.eps_grid[{i}]")
    if experiment == "quantum_wire":
        if out["states"] != "random":
            if "seed" in cfg:
                raise ConfigError("config.seed: only random states take a seed")
            if len(out["states"]) != out["n_states"]:
                raise ConfigError(
                    f"config.states: expected 'random' or a list of {out['n_states']} "
                    "4-number entries [re0, im0, re1, im1]"
                )
        elif out["seed"] is None:
            raise ConfigError("config.seed: required when states is 'random'")
        else:
            out["states"] = _random_states(out["n_states"], out["seed"])
    return out


def _random_states(n: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        raw = rng.normal(size=4)
        vec = np.array([raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]])
        states.append(vec / np.linalg.norm(vec))
    return states


def _state_obj(vec: np.ndarray) -> list[float]:
    return [float(vec[0].real), float(vec[0].imag), float(vec[1].real), float(vec[1].imag)]


def _section(result, *names, omit=()) -> dict:
    """A report section: the named fields and properties of a runner's result
    dataclass, its records without the ``omit`` fields."""
    fields = asdict(result, dict_factory=lambda kv: {k: v for k, v in kv if k not in omit})
    return {name: fields[name] if name in fields else getattr(result, name) for name in names}


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": passed, "detail": detail}


def _schedule_section(schedule, lines, cfg: dict, out_dir: str) -> tuple[dict, list]:
    """A wire report's ``"schedule"`` object and its replay and line checks;
    writes the schedule file if the config names one."""
    violations, line_check = _replay_and_lines(schedule, lines)
    if cfg["outputs"]["schedule"]:
        path = os.path.join(out_dir, cfg["outputs"]["schedule"])
        _write_text(path, _json_parts(schedule, lines))
    obj = {
        "n_windows": schedule.n_windows,
        "makespan_ns": schedule.makespan_ns,
        "pulse_count": schedule.pulse_count,
        "n_lines": lines.n_lines,
        "violations": violations,
        "line_problems": line_check["problems"],
    }
    checks = [
        _check("schedule_replay_clean", not violations, f"{len(violations)} violations"),
        _check("line_check_ok", line_check["ok"], "; ".join(line_check["problems"]) or "ok"),
    ]
    return obj, checks


# Each experiment runs its runner once per mode and returns the report
# entries it adds (always ``"results"``, one section per mode) and, for a
# wire, the (schedule, lines) it ran.


def _run_quantum_wire(cfg: dict, spec: ChainSpec, design: GateDesign) -> tuple[dict, tuple]:
    schedule, lines = quantum_channel_schedule(
        spec, cfg["n_states"], cfg["t_ns"], line_mode=cfg["line_mode"]
    )
    results = {
        mode: _section(
            run_quantum_channel(spec, schedule, cfg["states"], mode=mode),
            "records", "min_fidelity_raw", "min_fidelity_corrected", "final_trace",
            omit={"purity_raw"},
        )
        for mode in cfg["modes"]
    }
    return {"states": [_state_obj(s) for s in cfg["states"]], "results": results}, (schedule, lines)


def _run_classical_wire(cfg: dict, spec: ChainSpec, design: GateDesign) -> tuple[dict, tuple]:
    schedule, lines = classical_channel_schedule(spec, cfg["bits"], cfg["t_ns"])
    results = {
        mode: _section(
            run_classical_channel(spec, schedule, cfg["bits"], mode=mode),
            "bits_out", "ok", "latency_sequences", "min_margin", "records",
        )
        for mode in cfg["modes"]
    }
    return {"bits_in": cfg["bits"], "results": results}, (schedule, lines)


def _run_copy_table(cfg: dict, spec: ChainSpec, design: GateDesign) -> tuple[dict, None]:
    results = {}
    for mode in cfg["modes"]:
        rows = copy_truth_table(spec, design, mode=mode)
        results[mode] = {
            "rows": [asdict(r) for r in rows],
            "min_fidelity": min(r.fidelity for r in rows),
        }
    return {"results": results}, None


def _run_gate(cfg: dict, spec: ChainSpec, design: GateDesign) -> tuple[dict, None]:
    results = {}
    for mode in cfg["modes"]:
        report = run_gate_experiment(spec, design, mode=mode)
        results[mode] = _section(
            report, "distance", "worst_infidelity", "leakage", "superposition_fidelity"
        )
        results[mode]["truth_table"] = [
            {"control": c, "target": t, "fidelity": fid} for (c, t), fid in report.truth_table
        ]
    sweep = None
    if cfg["eps_grid"]:
        points = sweep_eps_high(design, cfg["eps_grid"])
        sweep = {"points": [asdict(p) for p in points], "slope": infidelity_slope(points)}
    return {"results": results, "sweep": sweep}, None


_RUNNERS = {
    "quantum_wire": _run_quantum_wire,
    "classical_wire": _run_classical_wire,
    "copy_table": _run_copy_table,
    "gate": _run_gate,
}


def _grade(report: dict, cfg: dict) -> list[dict]:
    """One check per graded mode of each assertion the config makes, in
    ``_ASSERTIONS`` order."""
    checks = []
    for key, a in _ASSERTIONS[cfg["experiment"]].items():
        limit = cfg["assertions"].get(key, False)
        if limit is False:  # not asserted, or require_echo: false
            continue
        for mode in cfg["modes"] if a.grades == "each" else [a.grades]:
            got = a.value(report if mode == "run" else report["results"][mode], report)
            checks.append(_check(
                a.name.format(mode=mode), a.passes(got, limit), a.detail.format(got=got, limit=limit)
            ))
    return checks


def _cmd_run(args) -> int:
    cfg = _validate_config(_load_config(args.config))
    out_dir = args.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from None
    run = _RUNNERS[cfg["experiment"]]
    # copy_table and gate run on the 3-qubit test chain
    design, eps, spec = _chain_setup(cfg, cfg.get("n_qubits", 3), "config.eps_high_mhz")
    entries, wire = run(cfg, spec, design)
    report = {"experiment": cfg["experiment"], "design": _design_obj(design), "eps_high_mhz": eps}
    report |= entries
    checks = []
    if wire:
        report["n_qubits"] = spec.n_qubits
        report["schedule"], checks = _schedule_section(*wire, cfg, out_dir)
    checks += _grade(report, cfg)
    report["assertions"] = {"checks": checks, "passed": all(c["passed"] for c in checks)}
    report_path = os.path.join(out_dir, cfg["outputs"]["report"])
    _write_text(report_path, [_dump_json(report)])
    for check in checks:
        print(f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}: {check['detail']}")
    print(f"report: {report_path}")
    return 0 if report["assertions"]["passed"] else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="swapchannel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve (delta, xi) for a window and cycle counts")
    p.add_argument("--t-ns", type=float, default=None)
    p.add_argument("--delta-mhz", type=float, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--no-phase-exact", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("schedule", help="emit a pulse schedule as JSON")
    p.add_argument("--kind", choices=("quantum", "classical"), required=True)
    p.add_argument("--n-qubits", type=int, required=True)
    p.add_argument("--t-ns", type=float, default=10.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--n-states", type=int, default=None)
    p.add_argument("--bits", default=None)
    p.add_argument("--line-mode", choices=("mod6", "mod3"), default="mod6")
    p.add_argument("--eps-high-mhz", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("validate", help="replay a schedule file and report violations")
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("trace", help="CSV trace of one pulsed qubit's oscillation")
    p.add_argument("--delta-mhz", type=float, required=True)
    p.add_argument("--bias-mhz", type=float, default=0.0)
    p.add_argument("--duration-ns", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--plot-script", default=None)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("run", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InfeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # ConfigError, ScheduleError and any refusal from the library
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
