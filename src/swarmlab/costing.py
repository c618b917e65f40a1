"""Workload-sensitive cost functions and the matrices fed to the allocator.

Every service carries a base cost in [0, 100]; a candidate worker's
measured utilization scales it per resource:

  cpu        base_cost * load**4        (quartic: punish loaded workers late)
  vram       base_cost * load**4
  swap       base_cost * load           (linear: swap pressure counts early)
  bandwidth  base_cost * (1 - load)**4

The weighted sum of the four terms is the cost of running one service on
one worker. Co-located services cost the sum of their members' costs times
a discount factor. Feasibility is a separate boolean channel: a worker can
host a service iff the service's required capability tags are a subset of
the worker's tags; infeasible pairs carry no cost at all.

The scalar functions check their domains and are the reference.
``build_cost_matrix`` builds a whole worker x unit matrix at once, with numpy
products and sums in the scalar order, so every cell equals its scalar value
bit for bit; it skips the per-cell checks, since ``WorkloadSample``,
``ServiceSpec`` and ``ExperimentSpec`` validate on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .definitions import CostWeights, ServiceSpec
from .errors import DomainError, PoolTooSmall
from .model import WorkerState, WorkloadSample

#: Multiplier turning float costs into the integer grid used by the solver.
COST_SCALE = 10**6


def _check_domain(base_cost: float, load: float):
    if not (isinstance(base_cost, (int, float)) and math.isfinite(base_cost)
            and 0.0 <= base_cost <= 100.0):
        raise DomainError(f"base cost must be within [0, 100], got {base_cost!r}")
    if not (isinstance(load, (int, float)) and math.isfinite(load) and 0.0 <= load <= 1.0):
        raise DomainError(f"load must be within [0, 1], got {load!r}")


def cpu_cost(base_cost: float, load: float) -> float:
    """Cost contribution of CPU utilization: base_cost * load**4."""
    _check_domain(base_cost, load)
    return base_cost * load**4


def vram_cost(base_cost: float, load: float) -> float:
    """Cost contribution of VRAM utilization: base_cost * load**4."""
    _check_domain(base_cost, load)
    return base_cost * load**4


def swap_cost(base_cost: float, load: float) -> float:
    """Cost contribution of swap utilization: base_cost * load."""
    _check_domain(base_cost, load)
    return base_cost * load


def bandwidth_cost(base_cost: float, load: float) -> float:
    """Cost contribution of the link: base_cost * (1 - load)**4.

    ``load`` is the measured link utilization, applied to the formula as
    written: a fully utilized link costs nothing, an idle one costs
    ``base_cost``.
    """
    _check_domain(base_cost, load)
    return base_cost * (1.0 - load) ** 4


def edge_cost(base_cost: float, workload: WorkloadSample, weights: CostWeights) -> float:
    """Weighted cost of running one service on a worker with ``workload``."""
    return (
        weights.cpu * cpu_cost(base_cost, workload.cpu)
        + weights.vram * vram_cost(base_cost, workload.vram)
        + weights.swap * swap_cost(base_cost, workload.swap)
        + weights.bandwidth * bandwidth_cost(base_cost, workload.bandwidth)
    )


def pooled_cost(members: Sequence[ServiceSpec], workload: WorkloadSample,
                weights: CostWeights, discount: float) -> float:
    """Discounted cost of co-locating all ``members`` on one worker."""
    if len(members) < 2:
        raise PoolTooSmall(f"a pool needs at least 2 members, got {len(members)}")
    if not (isinstance(discount, (int, float)) and math.isfinite(discount) and 0.0 < discount <= 1.0):
        raise DomainError(f"discount must be within (0, 1], got {discount!r}")
    total = 0.0
    for m in members:  # left to right, the order build_cost_matrix adds them in
        total += edge_cost(m.predefined_cost, workload, weights)
    return discount * total


@dataclass(frozen=True)
class CapabilityMatrix:
    """Boolean worker x service feasibility from capability tag inclusion."""

    entries: np.ndarray  # shape (workers, services), dtype bool

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape  # type: ignore[return-value]


def build_capability_matrix(workers: Sequence[WorkerState],
                            services: Sequence[ServiceSpec]) -> CapabilityMatrix:
    """Entry (i, j) is True iff worker i's tags cover service j's needs."""
    entries = np.zeros((len(workers), len(services)), dtype=bool)
    for i, worker in enumerate(workers):
        tags = worker.profile.capabilities
        for j, service in enumerate(services):
            entries[i, j] = service.required_capabilities <= tags
    return CapabilityMatrix(entries=entries)


def pooled_capability(capabilities: CapabilityMatrix, worker_index: int,
                      member_indices: Sequence[int]) -> bool:
    """A worker can host a pool iff it can host every member."""
    return bool(capabilities.entries[worker_index, list(member_indices)].all())


@dataclass(frozen=True)
class DependencyMatrix:
    """Binary service x service relation: entry (k, j) means k depends on j."""

    entries: np.ndarray  # shape (services, services), dtype int8, zero diagonal


def build_dependency_matrix(services: Sequence[ServiceSpec],
                            pairs: Sequence[tuple[str, str]]) -> DependencyMatrix:
    index = {s.name: j for j, s in enumerate(services)}
    entries = np.zeros((len(services), len(services)), dtype=np.int8)
    for dependent, dependency in pairs:
        if dependent not in index or dependency not in index:
            raise DomainError(f"dependency ({dependent!r}, {dependency!r}) references unknown services")
        if dependent == dependency:
            raise DomainError(f"service {dependent!r} cannot depend on itself")
        entries[index[dependent], index[dependency]] = 1
    return DependencyMatrix(entries=entries)


def integerize_cost(value: float, scale: int = COST_SCALE) -> int:
    """Round a float cost onto the solver's integer grid (half to even)."""
    if value < 0:
        raise DomainError(f"costs must be non-negative, got {value!r}")
    return int(round(value * scale))


@dataclass(frozen=True)
class CostMatrix:
    """Worker x allocation-unit costs with an explicit feasibility mask.

    Infeasible pairs are masked out rather than given a sentinel cost, so
    the solver never trades a real assignment against a fake one.
    ``scaled()`` yields the integer grid actually handed to the solver.
    """

    values: np.ndarray    # shape (workers, units), float64; 0.0 where infeasible
    feasible: np.ndarray  # shape (workers, units), bool
    scale: int = COST_SCALE

    def scaled(self) -> np.ndarray:
        """``integerize_cost`` of every feasible cell, 0 elsewhere."""
        if (self.values < 0).any():
            raise DomainError(f"costs must be non-negative, got {self.values.min()!r}")
        # np.rint rounds half to even, as round() does in integerize_cost.
        return np.where(self.feasible, np.rint(self.values * self.scale), 0).astype(np.int64)


def build_cost_matrix(workers: Sequence[WorkerState],
                      unit_members: Sequence[Sequence[ServiceSpec]],
                      capabilities: CapabilityMatrix,
                      service_index: "dict[str, int]",
                      weights: CostWeights,
                      discount: float,
                      scale: int = COST_SCALE) -> CostMatrix:
    """Cost and feasibility of every (worker, unit) pair.

    ``unit_members`` lists the member services of each allocation unit; a
    single-member unit costs its plain edge cost, a pool costs the
    discounted member sum and is feasible only where every member is.
    """
    # Per-worker load terms, computed with Python floats exactly as the scalar functions do.
    cpu4, vram4, swap, link4 = np.array(
        [(s.cpu**4, s.vram**4, s.swap, (1.0 - s.bandwidth) ** 4) for s in (w.workload for w in workers)],
        dtype=np.float64).reshape(-1, 4).T[:, :, None]

    values = np.zeros((len(workers), len(unit_members)), dtype=np.float64)
    feasible = np.ones(values.shape, dtype=bool)
    # Member p of every unit that has one, so pools add their members left to right.
    for p in range(max(map(len, unit_members), default=0)):
        units = [u for u, members in enumerate(unit_members) if len(members) > p]
        base = np.array([unit_members[u][p].predefined_cost for u in units], dtype=np.float64)
        values[:, units] += (weights.cpu * (base * cpu4) + weights.vram * (base * vram4)
                             + weights.swap * (base * swap) + weights.bandwidth * (base * link4))
        feasible[:, units] &= capabilities.entries[
            :, [service_index[unit_members[u][p].name] for u in units]]
    values[:, [len(members) > 1 for members in unit_members]] *= discount
    values[~feasible] = 0.0
    return CostMatrix(values=values, feasible=feasible, scale=scale)
