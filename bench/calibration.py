"""Host-speed calibration for the swapchannel benchmark.

The shared host this benchmark was built on changes speed by up to half for
stretches from seconds to tens of minutes.  A fixed kernel of the same kind
of work as the workload (object-heavy interpreter code, like the scheduler;
complex matrix products and vector updates, like the simulator; or a mix) is
timed right before and right after every timed operation.  An operation's
time over the kernel's time beside it hardly depends on the host's speed at
that moment; multiplied by the kernel's ``REF_SECONDS`` it reads in seconds of
the reference host.

The kernels do not call the library, so no change to the library can move
them.  Import this module only after the BLAS thread count is pinned: it
imports numpy.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

_rng = np.random.default_rng(20080815)
_MATRIX = (_rng.normal(size=(64, 64)) + 1j * _rng.normal(size=(64, 64))) / 8.0
_VECTOR = _rng.normal(size=2**14) + 1j * _rng.normal(size=2**14)
_RECORDS = [
    {"t_ns": 0.5 * i, "qubits": [i, i + 1, i + 2], "name": f"pulse{i}", "high": i % 3 == 0}
    for i in range(500)
]


def _interpreter() -> int:
    """Object-heavy interpreter work, like the scheduler: build, group, sort, JSON."""
    items = [(i % 101, f"k{i % 997}", [i, i + 1]) for i in range(3000)]
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(item[1], []).append(item)
    items.sort(key=lambda item: (item[0], item[1]))
    return len(groups) + len(json.loads(json.dumps(_RECORDS)))


def _numeric() -> float:
    """Small complex matrix products and vector updates, like the simulator."""
    m = _MATRIX
    for _ in range(90):
        m = m @ _MATRIX
    v = _VECTOR
    for _ in range(130):
        v = v * 0.999 + _VECTOR
    return float(abs(m[0, 0])) + float(abs(v[0]))


#: Kernels by kind.  A workload is calibrated with the kind of work it does:
#: ``interpreter`` for pure-Python code, ``numeric`` for dense linear algebra,
#: ``mixed`` (about one third interpreter time) for the rest.
KERNELS = {
    "interpreter": (_interpreter,),
    "numeric": (_numeric,),
    "mixed": (_interpreter, _numeric),
}

#: Each kernel's time on the reference host: the 2-vCPU Xeon host this
#: benchmark was built on, in its faster state, with the workload's data
#: evicting the kernel's from cache between runs.
REF_SECONDS = {"interpreter": 0.004, "numeric": 0.007, "mixed": 0.011}


def kernel(kind: str) -> None:
    """Run the ``kind`` kernel once."""
    for part in KERNELS[kind]:
        part()


def time_kernel(kind: str) -> float:
    """Seconds one run of the ``kind`` kernel takes now.

    The cyclic collector is off while it runs: a collection of the heap the
    workload left behind would time the workload, not the host.  The kernel
    makes no cycles, so nothing is left for the collector.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel(kind)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_factor(kind: str, samples: int = 7) -> float:
    """Median kernel time now over the reference, after one untimed run."""
    kernel(kind)
    return statistics.median(time_kernel(kind) for _ in range(samples)) / REF_SECONDS[kind]


def normalised(kind: str, op_seconds: float, kernel_before: float, kernel_after: float) -> float:
    """One operation's time in seconds of the reference host.

    The kernel is timed right before and right after the operation; their
    mean stands for the host's speed while the operation ran.
    """
    return op_seconds * REF_SECONDS[kind] / ((kernel_before + kernel_after) / 2.0)
