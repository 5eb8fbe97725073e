"""Output checks for the swapchannel benchmark.

An operation fails if it raises, returns a non-finite number, leaves a final
trace more than 1e-9 from 1, breaks one of its own invariants, or (where a
reference applies) returns a number that differs from the stored
default-seed reference by more than 1e-9:

* raw-frame numbers are always compared;
* corrected numbers of a read are compared only if that read met the paper's
  bound when the reference was made.

Seeded jobs are compared with the reference only at the reference seed; on
any other seed they get the invariant checks alone.  Jobs whose outputs do
not depend on the seed are compared on every seed.

Reads that miss the bound (today: every read on an even-length wire, which
carries an uncorrected byproduct Z) are counted by ``reads_below_bound``.
They are neither excluded nor scored as failures.
"""

from __future__ import annotations

import json
import math

#: Corrected-fidelity bound a read must meet, per simulation mode.
READ_BOUND = {"full": 0.999, "reduced": 1.0 - 1e-9}

TOLERANCE = 1e-9

#: Observables that are probabilities or purities must lie in [0, 1].
_UNIT_INTERVAL = ("fidelity", "purity", "p_one")


def reads_below_bound(outcome) -> int:
    """Reads whose corrected fidelity misses the paper's bound for their mode."""
    return sum(1 for r in outcome.reads if not r.fidelity >= READ_BOUND[r.mode])


def close(key: str, value: float, want: float) -> bool:
    """``value`` matches ``want`` within 1e-9 (relative above magnitude 1).

    Keys naming a phase compare modulo 2 pi, so +pi and -pi agree.
    """
    diff = value - want
    if "phase" in key.rsplit(".", 1)[-1]:
        diff = math.remainder(diff, 2.0 * math.pi)
    return abs(diff) <= TOLERANCE * max(1.0, abs(want))


def reference_entry(outcome) -> dict:
    """The reference record of one operation's outcome."""
    corrected = {}
    for r in outcome.reads:
        if r.fidelity >= READ_BOUND[r.mode]:
            corrected.update(r.corrected)
    return {"raw": dict(outcome.raw), "corrected": corrected}


def check(outcome, reference: dict | None) -> list[str]:
    """Failure messages for one operation's outcome (empty: it passed)."""
    problems = []
    numbers = dict(outcome.raw)
    for r in outcome.reads:
        numbers[f"{r.key}.fidelity"] = r.fidelity
        numbers.update(r.corrected)
    for key, value in numbers.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{key} is not a finite number: {value!r}")
        elif any(word in key.rsplit(".", 1)[-1] for word in _UNIT_INTERVAL) and not (
            -TOLERANCE <= value <= 1.0 + TOLERANCE
        ):
            problems.append(f"{key} = {value!r} lies outside [0, 1]")
    for i, tr in enumerate(outcome.traces):
        if not (math.isfinite(tr) and abs(tr - 1.0) <= TOLERANCE):
            problems.append(f"final_trace[{i}] = {tr!r} is not 1 within {TOLERANCE}")
    for name, ok in outcome.invariants.items():
        if not ok:
            problems.append(f"invariant {name} does not hold")
    if reference is None:
        return problems
    want_raw = reference["raw"]
    if set(outcome.raw) != set(want_raw):
        missing = sorted(set(want_raw) - set(outcome.raw))[:3]
        extra = sorted(set(outcome.raw) - set(want_raw))[:3]
        problems.append(f"outputs differ from the reference: missing {missing}, extra {extra}")
    for key in sorted(set(outcome.raw) & set(want_raw)):
        if not close(key, outcome.raw[key], want_raw[key]):
            problems.append(f"{key} = {outcome.raw[key]!r}, reference {want_raw[key]!r}")
    want_corrected = reference["corrected"]
    for r in outcome.reads:
        for key, value in r.corrected.items():
            if key in want_corrected and not close(key, value, want_corrected[key]):
                problems.append(f"{key} = {value!r}, reference {want_corrected[key]!r}")
    return problems


class References:
    """Default-seed reference outputs, keyed by job name."""

    def __init__(self, seed: int, jobs: dict[str, dict]):
        self.seed = seed
        self.jobs = jobs

    @classmethod
    def load(cls, path: str) -> "References":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        return cls(int(obj["seed"]), obj["jobs"])

    def dump(self, path: str) -> None:
        text = json.dumps(
            {"seed": self.seed, "jobs": self.jobs}, indent=1, sort_keys=True, allow_nan=False
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    def applies(self, job, seed: int) -> bool:
        """Whether ``job``'s outputs are compared with the reference at ``seed``."""
        return not job.seeded or seed == self.seed

    def grade(self, job, seed: int, outcome) -> list[str]:
        if not self.applies(job, seed):
            return check(outcome, None)
        if job.name not in self.jobs:
            return [f"no reference stored for job {job.name}"]
        return check(outcome, self.jobs[job.name])
