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
``ServiceSpec`` and ``ExperimentSpec`` validate on construction, and checks
the discount once per call, as ``pooled_cost`` does. It is two
steps: ``prepare_unit_costs`` keeps what no sample changes (feasibility,
each member position's base costs and columns, the pool discount), and
``UnitCosts`` adds the load terms of a block of rounds at once, one
(rounds, workers, units) tensor built member position by member position
in the scalar add order. The load terms ``cpu**4`` and the like are
``np.float_power`` over the block's ``(rounds, workers, 4)`` load array,
never ``np.power`` (``UnitCosts.block`` says why). ``UnitCosts.block``
returns that float tensor and ``UnitCosts.matrix`` (and so
``build_cost_matrix``) is its one-round case. ``integer_grid`` rounds costs
onto the solver's integer grid, half to even as ``integerize_cost`` does. The allocator prepares once per fleet and
experiment, over every single service and every pool any configuration can
use, and costs each block of simulation rounds once; it reads both its
solver input and its placement costs from that one block.

Capability and dependency relations are plain numpy arrays: ``bool``
worker x service and ``int8`` service x service. The capability matrix is
one subset test per pair of capability classes (workers by the tags they
offer, services by the tags they need), expanded to every pair.
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


def _check_discount(discount: float):
    if not (isinstance(discount, (int, float)) and math.isfinite(discount) and 0.0 < discount <= 1.0):
        raise DomainError(f"discount must be within (0, 1], got {discount!r}")


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
    _check_discount(discount)
    total = 0.0
    for m in members:  # left to right, the order build_cost_matrix adds them in
        total += edge_cost(m.predefined_cost, workload, weights)
    return discount * total


def build_capability_matrix(workers: Sequence[WorkerState],
                            services: Sequence[ServiceSpec]) -> np.ndarray:
    """Bool worker x service array: (i, j) is True iff worker i's tags cover service j's needs.

    Workers are grouped by their tag set and services by the set they need,
    so there is one subset test per pair of groups, not per pair.
    """
    offered: dict[frozenset, int] = {}
    needed: dict[frozenset, int] = {}
    worker_group = [offered.setdefault(w.profile.capabilities, len(offered)) for w in workers]
    service_group = [needed.setdefault(s.required_capabilities, len(needed)) for s in services]
    covers = np.array([[need <= tags for need in needed] for tags in offered],
                      dtype=bool).reshape(len(offered), len(needed))
    return covers.take(worker_group, axis=0).take(service_group, axis=1)


def pooled_capability(capabilities: np.ndarray, worker_index: int,
                      member_indices: Sequence[int]) -> bool:
    """A worker can host a pool iff it can host every member."""
    return bool(capabilities[worker_index, list(member_indices)].all())


def build_dependency_matrix(services: Sequence[ServiceSpec],
                            pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """Int8 service x service array, zero diagonal: (k, j) is 1 iff k depends on j."""
    index = {s.name: j for j, s in enumerate(services)}
    entries = np.zeros((len(services), len(services)), dtype=np.int8)
    for dependent, dependency in pairs:
        if dependent not in index or dependency not in index:
            raise DomainError(f"dependency ({dependent!r}, {dependency!r}) references unknown services")
        if dependent == dependency:
            raise DomainError(f"service {dependent!r} cannot depend on itself")
        entries[index[dependent], index[dependency]] = 1
    return entries


def integerize_cost(value: float) -> int:
    """Round a float cost onto the solver's integer grid (half to even)."""
    if value < 0:
        raise DomainError(f"costs must be non-negative, got {value!r}")
    return int(round(value * COST_SCALE))


def integer_grid(values: np.ndarray) -> np.ndarray:
    """``integerize_cost`` of every cell, for non-negative costs, as int64."""
    return np.rint(values * COST_SCALE).astype(np.int64)  # np.rint rounds half to even


@dataclass(frozen=True)
class CostMatrix:
    """Worker x allocation-unit costs with an explicit feasibility mask.

    Infeasible pairs are masked out rather than given a sentinel cost, so
    the solver never trades a real assignment against a fake one.
    ``scaled()`` yields the integer grid handed to the solver.
    """

    values: np.ndarray    # shape (workers, units), float64; 0.0 where infeasible
    feasible: np.ndarray  # shape (workers, units), bool

    def scaled(self) -> np.ndarray:
        """``integerize_cost`` of every feasible cell, 0 elsewhere."""
        if (self.values < 0).any():
            raise DomainError(f"costs must be non-negative, got {self.values.min()!r}")
        return integer_grid(np.where(self.feasible, self.values, 0.0))


@dataclass(frozen=True)
class UnitCosts:
    """The part of a worker x unit cost matrix that no workload sample changes.

    ``prepare_unit_costs`` builds it once per fleet and unit list: the
    feasibility of every cell, each member position's base costs and unit
    columns, and the factor that discounts pools and zeroes infeasible
    cells. ``block`` costs a block of rounds in one pass; ``matrix`` is its
    one-round case.
    """

    feasible: np.ndarray  # shape (workers, units), bool, read-only
    positions: tuple[tuple["slice | np.ndarray", np.ndarray], ...]  # (unit columns, base costs)
    factor: np.ndarray    # shape (workers, units): 1.0, the discount for pools, 0.0 where infeasible
    weights: np.ndarray   # shape (4, 1, 1, 1): cpu, vram, swap, bandwidth

    def block(self, rounds: "np.ndarray | Sequence[Sequence[Sequence[float]]]") -> np.ndarray:
        """The (rounds, workers, units) float costs of one load row per worker per round.

        ``rounds`` is a ``(rounds, workers, 4)`` array of (cpu, vram, swap,
        bandwidth) rows, or nested sequences of them. The load terms are
        ``np.float_power`` on the whole block: it calls the C ``pow`` that a
        Python float's ``**`` calls, so each term equals the scalar
        function's bit for bit. ``np.power`` is not used: its SIMD loops may
        round differently.
        """
        rounds = np.asarray(rounds, dtype=np.float64).reshape(len(rounds), self.feasible.shape[0], 4)
        cpu, vram, swap, bandwidth = np.moveaxis(rounds, 2, 0)
        loads = np.stack([np.float_power(cpu, 4.0), np.float_power(vram, 4.0), swap,
                          np.float_power(1.0 - bandwidth, 4.0)])[..., None]  # (4, rounds, workers, 1)
        values = np.zeros((len(rounds), *self.feasible.shape), dtype=np.float64)
        # Member p of every unit that has one, so pools add their members left to right.
        for units, base in self.positions:
            terms = self.weights * (base * loads)
            values[:, :, units] += terms[0] + terms[1] + terms[2] + terms[3]
        values *= self.factor
        return values

    def matrix(self, workloads: "Sequence[Sequence[float]]") -> CostMatrix:
        """The cost matrix for one load row (or ``WorkloadSample``) per worker, in roster order."""
        return CostMatrix(values=self.block([[tuple(row) for row in workloads]])[0],
                          feasible=self.feasible)


def prepare_unit_costs(unit_members: Sequence[Sequence[ServiceSpec]],
                       capabilities: np.ndarray,
                       service_index: "dict[str, int]",
                       weights: CostWeights,
                       discount: float) -> UnitCosts:
    """The sample-independent part of ``build_cost_matrix``'s result.

    ``capabilities`` is the worker x service matrix of the fleet whose
    samples ``UnitCosts.matrix`` will cost. A discount outside (0, 1]
    raises ``DomainError``, as ``pooled_cost`` does.
    """
    _check_discount(discount)
    feasible = np.ones((capabilities.shape[0], len(unit_members)), dtype=bool)
    positions = []
    for p in range(max(map(len, unit_members), default=0)):
        units = [u for u, members in enumerate(unit_members) if len(members) > p]
        feasible[:, units] &= capabilities[
            :, [service_index[unit_members[u][p].name] for u in units]]
        base = np.array([unit_members[u][p].predefined_cost for u in units], dtype=np.float64)
        positions.append((slice(None) if len(units) == len(unit_members) else np.array(units), base))
    pooled = np.array([len(members) > 1 for members in unit_members], dtype=bool)
    # x * 1.0 == x and, for the finite non-negative x here, x * 0.0 == 0.0.
    factor = np.where(feasible, np.where(pooled, discount, 1.0), 0.0)
    feasible.flags.writeable = False  # shared by every round's CostMatrix
    return UnitCosts(feasible=feasible, positions=tuple(positions), factor=factor,
                     weights=np.array(weights.as_tuple(), dtype=np.float64).reshape(4, 1, 1, 1))


def build_cost_matrix(workers: Sequence[WorkerState],
                      unit_members: Sequence[Sequence[ServiceSpec]],
                      capabilities: np.ndarray,
                      service_index: "dict[str, int]",
                      weights: CostWeights,
                      discount: float) -> CostMatrix:
    """Cost and feasibility of every (worker, unit) pair.

    ``unit_members`` lists the member services of each allocation unit; a
    single-member unit costs its plain edge cost, a pool costs the
    discounted member sum and is feasible only where every member is.
    """
    return prepare_unit_costs(unit_members, capabilities, service_index, weights,
                              discount).matrix([w.workload for w in workers])
