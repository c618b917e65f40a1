"""Assignment of services (and pools of dependent services) to workers.

Dependent services may either share one worker as a discounted pool or be
split across workers. Each connected dependency component therefore
contributes two variants; the allocator solves one maximum-cardinality,
minimum-cost assignment per combination (``assignment.solve`` on the dense
cost matrix) and keeps the outcome that assigns the most services, breaking
ties by cost and then by enumeration order. Enumerating combinations keeps
"every service placed exactly once" structural: a single matching could
otherwise place both a pool and its members at the same time. Among
equal-cost optima the placement is deterministic for a given cost matrix
but follows no documented rule.

``build_network`` states the same problem as a min-cost max-flow network
for the ``mcmf`` reference solver; the allocator itself does not use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from . import assignment, costing, mcmf
from .costing import COST_SCALE, CostMatrix, DependencyMatrix
from .definitions import CostWeights, ExperimentSpec, ServiceSpec
from .errors import EmptyProblem, TooManyComponents
from .model import WorkerState

MAX_CONFIGURATIONS = 4096


@dataclass(frozen=True)
class AllocationUnit:
    """One assignment column: a single service or a pool of dependent ones."""

    members: tuple[str, ...]

    @property
    def is_pool(self) -> bool:
        return len(self.members) > 1

    @property
    def label(self) -> str:
        return "+".join(self.members)


@dataclass(frozen=True)
class Assignment:
    service: str
    worker: str
    unit: AllocationUnit
    cost: float


@dataclass(frozen=True)
class ConfigurationOutcome:
    """Solver outcome for one pool-or-split combination."""

    index: int
    units: tuple[AllocationUnit, ...]
    flow_value: int  # units matched (the flow value of the equivalent network)
    services_assigned: int
    total_cost_scaled: int
    chosen: bool = False


@dataclass
class AllocationResult:
    """Final service placement plus the per-configuration solver outcomes."""

    assignments: dict[str, Assignment]
    total_cost: float
    total_cost_scaled: int
    feasible: bool
    unassigned: frozenset[str]
    outcomes: tuple[ConfigurationOutcome, ...] = ()
    scale: int = COST_SCALE

    @property
    def num_services(self) -> int:
        return len(self.assignments) + len(self.unassigned)


def _components(dependencies: DependencyMatrix) -> list[list[int]]:
    """Connected components of the undirected dependency closure."""
    entries = dependencies.entries
    n = entries.shape[0]
    undirected = (entries + entries.T) > 0
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        component = []
        while queue:
            j = queue.pop(0)
            component.append(j)
            for k in np.nonzero(undirected[j])[0].tolist():
                if not seen[k]:
                    seen[k] = True
                    queue.append(k)
        components.append(sorted(component))
    return components


def enumerate_unit_configurations(
    services: Sequence[ServiceSpec],
    dependencies: DependencyMatrix,
    max_configurations: int = MAX_CONFIGURATIONS,
) -> list[tuple[AllocationUnit, ...]]:
    """All pool-or-split combinations, one choice per dependency component.

    Components with a single service always yield a single unit. For each
    multi-service component the pooled variant comes first, so the first
    configuration pools everything and the last splits everything.
    """
    names = [s.name for s in services]
    components = _components(dependencies)
    multi = sum(1 for c in components if len(c) > 1)
    if 2**multi > max_configurations:
        raise TooManyComponents(
            f"{multi} poolable components yield {2**multi} configurations "
            f"(bound {max_configurations})")

    options: list[list[tuple[tuple[int, ...], ...]]] = []
    for component in components:
        if len(component) == 1:
            options.append([(tuple(component),)])
        else:
            pooled = (tuple(component),)
            split = tuple((j,) for j in component)
            options.append([pooled, split])

    configurations = []
    for choice in itertools.product(*options):
        groups = [group for component_groups in choice for group in component_groups]
        groups.sort(key=lambda g: g[0])
        configurations.append(tuple(AllocationUnit(tuple(names[j] for j in g)) for g in groups))
    return configurations


@dataclass
class NetworkBuild:
    """A solver-ready network plus the (worker, unit) edge bookkeeping."""

    net: mcmf.FlowNetwork
    num_workers: int
    num_units: int
    pair_edges: dict[tuple[int, int], int] = field(default_factory=dict)

    def worker_vertex(self, i: int) -> int:
        return 1 + i

    def unit_vertex(self, u: int) -> int:
        return 1 + self.num_workers + u


def build_network(costs: CostMatrix) -> NetworkBuild:
    """Source -> workers -> feasible units -> sink, unit capacity one each."""
    num_workers, num_units = costs.values.shape
    if num_workers == 0 or num_units == 0:
        raise EmptyProblem("allocation needs at least one worker and one unit")
    scaled = costs.scaled()

    net = mcmf.FlowNetwork(num_workers + num_units + 2, source=0, sink=num_workers + num_units + 1)
    for i in range(num_workers):
        net.add_edge(0, 1 + i, 1, 0)
    build = NetworkBuild(net=net, num_workers=num_workers, num_units=num_units)
    for i in range(num_workers):
        for u in range(num_units):
            if costs.feasible[i, u]:
                edge = net.add_edge(1 + i, 1 + num_workers + u, 1, int(scaled[i, u]))
                build.pair_edges[(i, u)] = edge
    for u in range(num_units):
        net.add_edge(1 + num_workers + u, net.sink, 1, 0)
    return build


def allocate(
    workers: Sequence[WorkerState],
    services: Sequence[ServiceSpec],
    dependencies: Union[DependencyMatrix, Sequence[tuple[str, str]]],
    weights: CostWeights,
    discount: float,
    *,
    scale: int = COST_SCALE,
    max_configurations: int = MAX_CONFIGURATIONS,
) -> AllocationResult:
    """Place every service on a capable worker at minimum total cost.

    Infeasibility is a result, not an error: when no configuration can
    place all services, the best partial placement is returned with
    ``feasible`` false and the left-over services in ``unassigned``.
    """
    if not workers or not services:
        raise EmptyProblem("allocation needs at least one worker and one service")
    if not isinstance(dependencies, DependencyMatrix):
        dependencies = costing.build_dependency_matrix(services, dependencies)

    service_index = {s.name: j for j, s in enumerate(services)}
    by_name = {s.name: s for s in services}
    capabilities = costing.build_capability_matrix(workers, services)
    configurations = enumerate_unit_configurations(services, dependencies, max_configurations)

    outcomes: list[ConfigurationOutcome] = []
    extractions: list[list[tuple[int, int]]] = []  # (worker index, unit index) pairs
    for index, units in enumerate(configurations):
        unit_members = [tuple(by_name[name] for name in unit.members) for unit in units]
        costs = costing.build_cost_matrix(
            workers, unit_members, capabilities, service_index, weights, discount, scale)
        assigned_pairs, cost = assignment.solve(costs.scaled(), costs.feasible)
        services_assigned = sum(len(units[u].members) for _, u in assigned_pairs)
        outcomes.append(ConfigurationOutcome(
            index=index,
            units=units,
            flow_value=len(assigned_pairs),
            services_assigned=services_assigned,
            total_cost_scaled=cost,
        ))
        extractions.append(assigned_pairs)

    best = min(range(len(outcomes)),
               key=lambda i: (-outcomes[i].services_assigned, outcomes[i].total_cost_scaled, i))
    outcomes[best] = replace(outcomes[best], chosen=True)

    chosen_units = configurations[best]
    placement: dict[str, tuple[str, AllocationUnit, float]] = {}
    for worker_i, unit_i in extractions[best]:
        unit = chosen_units[unit_i]
        worker = workers[worker_i]
        for name in unit.members:
            member_cost = costing.edge_cost(by_name[name].predefined_cost, worker.workload, weights)
            if unit.is_pool:
                member_cost *= discount
            placement[name] = (worker.id, unit, member_cost)

    assignments = {
        s.name: Assignment(service=s.name, worker=placement[s.name][0],
                           unit=placement[s.name][1], cost=placement[s.name][2])
        for s in services if s.name in placement
    }
    unassigned = frozenset(s.name for s in services if s.name not in placement)
    total_scaled = outcomes[best].total_cost_scaled
    return AllocationResult(
        assignments=assignments,
        total_cost=total_scaled / scale,
        total_cost_scaled=total_scaled,
        feasible=not unassigned,
        unassigned=unassigned,
        outcomes=tuple(outcomes),
        scale=scale,
    )


def allocate_experiment(workers: Sequence[WorkerState],
                        experiment: ExperimentSpec,
                        *,
                        scale: int = COST_SCALE,
                        max_configurations: int = MAX_CONFIGURATIONS) -> AllocationResult:
    """Allocate an experiment's services using its own weights and discount."""
    return allocate(
        workers,
        experiment.services,
        experiment.dependencies,
        experiment.weights,
        experiment.pool_discount,
        scale=scale,
        max_configurations=max_configurations,
    )


def explain(result: AllocationResult) -> str:
    """Human-readable allocation report, stable for identical results."""
    lines = []
    status = "FEASIBLE" if result.feasible else "INFEASIBLE"
    lines.append(f"Allocation: {status} ({len(result.assignments)}/{result.num_services} services assigned)")
    lines.append(f"Total cost: {result.total_cost:.6f}")
    if result.unassigned:
        lines.append(f"Unassigned: {', '.join(sorted(result.unassigned))}")
    lines.append("")

    rows = [("SERVICE", "WORKER", "UNIT", "COST")]
    for assignment in result.assignments.values():
        rows.append((assignment.service, assignment.worker,
                     assignment.unit.label, f"{assignment.cost:.6f}"))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    for row in rows:
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip())
    lines.append("")

    chosen = next((o.index for o in result.outcomes if o.chosen), -1)
    lines.append(f"Configurations ({len(result.outcomes)} tried, #{chosen + 1} chosen):")
    for outcome in result.outcomes:
        marker = "  <- chosen" if outcome.chosen else ""
        units = "".join(f"[{unit.label}]" for unit in outcome.units)
        lines.append(
            f"  #{outcome.index + 1} {units} services={outcome.services_assigned} "
            f"cost={outcome.total_cost_scaled / result.scale:.6f}{marker}")
    return "\n".join(lines) + "\n"
