"""Core swarm entities: agents, roles, hardware profiles, workload samples.

A swarm is one master plus any number of workers; agents are identified by
opaque string ids. All types here are immutable values, safe to copy and
share between threads.
"""

from __future__ import annotations

import math
import uuid
from dataclasses import dataclass, replace
from enum import Enum

from .errors import DuplicateAgent, IllegalTransition, MasterConflict, UnknownAgent

AgentId = str


def new_agent_id() -> AgentId:
    """Return a fresh unique agent id."""
    return uuid.uuid4().hex


class Role(str, Enum):
    MASTER = "master"
    WORKER = "worker"


class WorkerStatus(str, Enum):
    JOINED = "joined"
    ALLOCATED = "allocated"
    RUNNING = "running"
    LEFT = "left"


# Allowed lifecycle moves; leaving is allowed from any state.
_TRANSITIONS = {
    WorkerStatus.JOINED: {WorkerStatus.ALLOCATED, WorkerStatus.LEFT},
    WorkerStatus.ALLOCATED: {WorkerStatus.RUNNING, WorkerStatus.LEFT},
    WorkerStatus.RUNNING: {WorkerStatus.LEFT},
    WorkerStatus.LEFT: set(),
}


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
    timestamp: int = 0

    def __post_init__(self):
        for name in ("cpu", "vram", "swap", "bandwidth"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} utilization must be within [0, 1], got {value!r}")
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")

    @classmethod
    def trusted(cls, cpu: float, vram: float, swap: float, bandwidth: float,
                timestamp: int = 0) -> "WorkloadSample":
        """A sample of values the caller has already checked, built without re-validating.

        For producers whose values are known to be finite floats in [0, 1]
        and whose timestamp is non-negative; everyone else uses the
        validating constructor.
        """
        sample = object.__new__(cls)
        sample.__dict__.update(cpu=cpu, vram=vram, swap=swap, bandwidth=bandwidth,
                               timestamp=timestamp)
        return sample


@dataclass(frozen=True)
class WorkerState:
    """One worker's identity, capabilities and live workload."""

    id: AgentId
    profile: HardwareProfile
    workload: WorkloadSample
    status: WorkerStatus = WorkerStatus.JOINED

    def with_status(self, status: WorkerStatus) -> "WorkerState":
        """Return a copy in ``status``, enforcing the lifecycle order."""
        if status not in _TRANSITIONS[self.status]:
            raise IllegalTransition(f"worker {self.id}: {self.status.value} -> {status.value}")
        return replace(self, status=status)

    def with_workload(self, workload: WorkloadSample) -> "WorkerState":
        return replace(self, workload=workload)


@dataclass(frozen=True)
class SwarmState:
    """A swarm instance: one master and its worker roster."""

    swarm_id: str
    master: AgentId
    workers: tuple[WorkerState, ...] = ()

    def __post_init__(self):
        if not self.master:
            raise ValueError("master id must be non-empty")
        ids = [w.id for w in self.workers]
        if len(ids) != len(set(ids)):
            raise ValueError("worker ids must be pairwise distinct")
        if self.master in ids:
            raise MasterConflict(f"agent {self.master!r} cannot be both master and worker")

    def worker_ids(self) -> tuple[AgentId, ...]:
        return tuple(w.id for w in self.workers)

    def get_worker(self, agent_id: AgentId) -> WorkerState:
        for w in self.workers:
            if w.id == agent_id:
                return w
        raise UnknownAgent(f"agent {agent_id!r} is not part of swarm {self.swarm_id!r}")

    def active_workers(self) -> tuple[WorkerState, ...]:
        return tuple(w for w in self.workers if w.status is not WorkerStatus.LEFT)


def new_swarm(master: AgentId, swarm_id: str | None = None) -> SwarmState:
    """Create a swarm with no workers.

    ``swarm_id`` defaults to a fresh unique id; deterministic callers (the
    simulator) pass their own.
    """
    if not master:
        raise ValueError("master id must be non-empty")
    return SwarmState(swarm_id=swarm_id or uuid.uuid4().hex, master=master)


def join_worker(swarm: SwarmState, worker: WorkerState) -> SwarmState:
    """Add ``worker`` to the swarm roster with status JOINED."""
    if worker.id == swarm.master:
        raise MasterConflict(f"agent {worker.id!r} is the master of swarm {swarm.swarm_id!r}")
    if worker.id in swarm.worker_ids():
        raise DuplicateAgent(f"agent {worker.id!r} already joined swarm {swarm.swarm_id!r}")
    if worker.status is not WorkerStatus.JOINED:
        worker = replace(worker, status=WorkerStatus.JOINED)
    return replace(swarm, workers=swarm.workers + (worker,))


def leave_worker(swarm: SwarmState, agent_id: AgentId) -> SwarmState:
    """Mark a worker as LEFT; it stays in the roster and cannot rejoin."""
    if agent_id == swarm.master:
        raise MasterConflict("the master cannot leave its own swarm")
    found = swarm.get_worker(agent_id)
    if found.status is WorkerStatus.LEFT:
        raise UnknownAgent(f"agent {agent_id!r} already left swarm {swarm.swarm_id!r}")
    updated = tuple(w.with_status(WorkerStatus.LEFT) if w.id == agent_id else w for w in swarm.workers)
    return replace(swarm, workers=updated)


def role_of(swarm: SwarmState, agent_id: AgentId) -> Role | None:
    """Return the agent's role in this swarm, or None if it is no member."""
    if agent_id == swarm.master:
        return Role.MASTER
    if agent_id in swarm.worker_ids():
        return Role.WORKER
    return None
