"""Core swarm entities: hardware profiles, worker states, workload samples.

Workers are identified by opaque string ids. All types here are immutable
values, safe to copy and share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HardwareProfile:
    """Static description of what a worker machine offers."""

    capabilities: frozenset[str] = frozenset()
    cpu_cores: int = 1
    vram_mb: int = 0
    swap_mb: int = 0
    bandwidth_mbps: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "capabilities", frozenset(self.capabilities))
        if self.cpu_cores < 1:
            raise ValueError("cpu_cores must be positive")
        if self.vram_mb < 0 or self.swap_mb < 0:
            raise ValueError("vram_mb and swap_mb must be non-negative")
        if not (self.bandwidth_mbps > 0 and math.isfinite(self.bandwidth_mbps)):
            raise ValueError("bandwidth_mbps must be positive and finite")


@dataclass(frozen=True)
class WorkloadSample:
    """Measured relative utilization of one worker, each value in [0, 1].

    ``bandwidth`` is link utilization; the fraction of link capacity still
    available is ``1 - bandwidth``.
    """

    cpu: float
    vram: float
    swap: float
    bandwidth: float

    def __post_init__(self):
        for name in ("cpu", "vram", "swap", "bandwidth"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} utilization must be within [0, 1], got {value!r}")

    def __iter__(self):
        """The four values in field order, so a sample unpacks like a load row."""
        return iter((self.cpu, self.vram, self.swap, self.bandwidth))


@dataclass(frozen=True)
class WorkerState:
    """One worker's identity, capabilities and live workload."""

    id: str
    profile: HardwareProfile
    workload: WorkloadSample
