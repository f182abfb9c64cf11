"""What one workload run reports."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


@dataclass
class WorkloadResult:
    #: End-to-end metrics under their BENCHMARK.json names.
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: The workload's own metrics under the names its design uses
    #: (printed only), e.g. ``query_p99_ms`` or ``resume_s``.
    named: dict[str, Metric] = field(default_factory=dict)
    #: Per-layer metrics of the traced run.
    layers: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    #: Wrong answers (as opposed to errors, refusals and timeouts).
    wrong: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Digest:
    """sha256 over a sequence of arrays, for cross-commit comparison."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *arrays: np.ndarray) -> None:
        for array in arrays:
            array = np.ascontiguousarray(array)
            self._h.update(str((array.dtype.str, array.shape)).encode())
            self._h.update(array.tobytes())

    def add_missing(self) -> None:
        self._h.update(b"<no answer>")

    def hexdigest(self) -> str:
        return self._h.hexdigest()
