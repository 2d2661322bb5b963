"""Machine-speed reference: a fixed piece of work timed between repetitions.

The benchmark runs on a few cores of a shared host whose speed drifts with
the other tenants' load, by up to 2x within minutes. Longer runs do not
average that out, because the drift outlasts a run. So the runner times this
reference next to every repetition and rescales the repetition's timings to
NOMINAL_S: the end-to-end figures then read as on a machine where the
reference takes NOMINAL_S, and the host's load moves them much less.

The reference never calls rallycast, so no change to the program moves it.
It mixes the kinds of work the workloads do: Python object churn, small numpy
operations and bulk memory traffic.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.25  # reference time the calibrated figures are scaled to

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16, 32))
_B = _rng.standard_normal((32, 32))
_BULK = _rng.standard_normal(2_000_000)


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value

    def plus(self, other: "_Node") -> "_Node":
        return _Node(self.value + other.value)


def _python_objects() -> None:
    acc = _Node(0.0)
    table: dict[int, list] = {}
    for i in range(120_000):
        acc = acc.plus(_Node(i))
        table[i % 97] = [i, (i, i)]


def _small_numpy() -> None:
    total = 0.0
    for _ in range(8_000):
        x = _A @ _B
        x = np.tanh(x) + 0.5 * x
        total += float(x.sum())


def _bulk_memory() -> None:
    for _ in range(20):
        _BULK.copy()


def reference_s() -> float:
    """Wall time of the reference work, in seconds."""
    start = time.perf_counter()
    _python_objects()
    _small_numpy()
    _bulk_memory()
    return time.perf_counter() - start
