"""Assignment of services (and pools of dependent services) to workers.

Dependent services may either share one worker as a discounted pool or be
split across workers. Each connected dependency component therefore
contributes two variants; the allocator solves one maximum-cardinality,
minimum-cost assignment per combination and keeps the outcome that assigns
the most services, breaking ties by cost and then by enumeration order.
Enumerating combinations keeps "every service placed exactly once"
structural: a single matching could otherwise place both a pool and its
members at the same time. Among a configuration's matchings of most units
and least cost the solver finds one that places the most services: each
column's weight is its service count, and ``assignment.solve_rounds``
breaks the tie (see ``assignment``). Among equal-cost optima the placement
is deterministic for a given cost matrix but follows no documented rule.

One column table describes the configurations (``_columns``): the
columns are tuples of service indices, every service alone in service
order and then each component of two or more services as one pool, and
each configuration selects its columns. ``column_table(experiment)``
builds it from the experiment's dependency pairs; ``validate`` runs it on
every experiment definition, so the configuration bound is an input
check. ``prepare(workers, experiment)`` builds what the workers' samples
do not change from that table, once per fleet and validated
``ExperimentSpec`` (``PreparedAllocation``); the experiment is the one
description of the services, dependencies, weights and discount the
allocator accepts. Each column is one ``AllocationUnit``, shared by every
configuration that selects it; a unit's ``label`` is computed once.
``enumerate_unit_configurations`` is the same table's configurations for
a caller that holds ``costing.build_dependency_matrix``'s matrix; the
allocator builds no such matrix.
``PreparedAllocation.place_rounds`` takes a block of rounds' load rows,
one ``(rounds, workers, 4)`` array: ``costing.UnitCosts.block`` costs the
whole block in one pass, and ``assignment.solve_rounds`` solves its
integer grid, every round over every configuration's columns. The solver
visits the configurations in reflected Gray-code order of their index, so
consecutive ones differ in one component and each is warm-started from the
last. ``place_rounds`` is the one placement builder: each round becomes a
compact ``RoundRecord`` of positions, with no per-service object (the
chosen configuration, each service column's worker and cost, and each
configuration's units matched, services assigned and scaled cost). A
placed service's cost is read from the block's ``tolist()``, its own
single-service column's double, times the discount when it is pooled.
``ReportFold.add_record`` folds a record as it is, and ``simulate`` builds
nothing more. ``PreparedAllocation.result`` expands a record into its
``AllocationResult``, with an ``Assignment`` per placed service and a
``ConfigurationOutcome`` per configuration; ``allocate_rounds`` does so for
a block.
``allocate_experiment`` is ``prepare`` plus one round of the workers' own
workloads.

``build_network`` states the same problem as a min-cost max-flow network
for the ``mcmf`` reference solver; the allocator itself does not use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import assignment, costing, mcmf
from .costing import COST_SCALE, CostMatrix
from .definitions import ExperimentSpec, ServiceSpec, first_repeat
from .errors import DuplicateAgent, EmptyProblem, TooManyComponents
from .model import WorkerState

MAX_CONFIGURATIONS = 4096


@dataclass(frozen=True)
class AllocationUnit:
    """One assignment column: a single service or a pool of dependent ones."""

    members: tuple[str, ...]

    @property
    def is_pool(self) -> bool:
        return len(self.members) > 1

    @cached_property  # stored in the instance dict; not a field, so eq/hash/repr ignore it
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

    @property
    def num_services(self) -> int:
        return len(self.assignments) + len(self.unassigned)


class RoundRecord(NamedTuple):
    """One placed round, in positions: ``PreparedAllocation.place_rounds`` makes it.

    Workers are positions in the prepared worker ids, services positions in
    the experiment's services (service columns) and configurations indices
    into ``PreparedAllocation.configurations``. ``ReportFold.add_record``
    folds it as it is, and ``PreparedAllocation.result`` expands it into
    the ``AllocationResult`` it stands for.
    """

    chosen: int  # the chosen configuration
    workers: list[int]  # per service column: the worker placed on it, -1 where unplaced
    costs: list[float]  # per service column: its placement's cost, 0.0 where unplaced
    outcomes: list[tuple[int, int, int]]  # per configuration: (units matched, services assigned, scaled cost)

    @property
    def feasible(self) -> bool:
        return -1 not in self.workers


def _components(num_services: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the undirected closure of the index ``pairs``, by smallest member."""
    neighbours: list[list[int]] = [[] for _ in range(num_services)]
    for dependent, dependency in pairs:
        neighbours[dependent].append(dependency)
        neighbours[dependency].append(dependent)
    seen = [False] * num_services
    components = []
    for start in range(num_services):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for j in component:  # grows while it is walked: a breadth-first search
            for k in neighbours[j]:
                if not seen[k]:
                    seen[k] = True
                    component.append(k)
        components.append(sorted(component))
    return components


def _columns(num_services: int, pairs: Iterable[tuple[int, int]]
             ) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The column table of ``num_services`` services whose dependencies are the index ``pairs``.

    The columns are service-index tuples: every service alone, in service
    order (column ``j`` is service ``j``), then each dependency component
    of two or more services as one pool, by smallest member. The selections
    are each pool-or-split configuration's columns, ordered by their first
    service. Each component's pooled variant comes first, so the first
    configuration pools everything and the last splits everything. More
    than ``MAX_CONFIGURATIONS`` configurations raise ``TooManyComponents``.
    """
    components = _components(num_services, pairs)
    pools = [component for component in components if len(component) > 1]
    if 2**len(pools) > MAX_CONFIGURATIONS:
        raise TooManyComponents(
            f"{len(pools)} poolable components yield {2**len(pools)} configurations "
            f"(bound {MAX_CONFIGURATIONS})")

    columns = [(j,) for j in range(num_services)] + [tuple(pool) for pool in pools]
    singles = [component[0] for component in components if len(component) == 1]
    # A pool's variants: its own column, or its members' columns (a service's column is its index).
    variants = [([num_services + p], pool) for p, pool in enumerate(pools)]
    selections = [sorted(itertools.chain(singles, *choice), key=lambda c: columns[c][0])
                  for choice in itertools.product(*variants)]
    return columns, selections


def column_table(experiment: ExperimentSpec) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """``experiment``'s column table: ``_columns`` of its dependencies as service-index pairs.

    ``prepare`` builds its units, costs and selections from it, and
    ``validate`` runs it on an experiment definition, so both refuse an
    experiment past ``MAX_CONFIGURATIONS`` with the same ``TooManyComponents``.
    """
    index = {s.name: j for j, s in enumerate(experiment.services)}
    return _columns(len(index), [(index[a], index[b]) for a, b in experiment.dependencies])


def _configurations(services: Sequence[ServiceSpec], columns: Sequence[tuple[int, ...]],
                    selections: Sequence[list[int]]) -> tuple[tuple[AllocationUnit, ...], ...]:
    """Each selection's units, one ``AllocationUnit`` per column shared by every configuration."""
    units = [AllocationUnit(tuple(services[j].name for j in column)) for column in columns]
    return tuple(tuple(units[c] for c in selection) for selection in selections)


def enumerate_unit_configurations(
    services: Sequence[ServiceSpec],
    dependencies: np.ndarray,
) -> list[tuple[AllocationUnit, ...]]:
    """All pool-or-split combinations, one choice per dependency component.

    ``dependencies`` is ``costing.build_dependency_matrix``'s matrix; its
    nonzero pairs go through the column table ``prepare`` builds, so the
    result is ``prepare(...).configurations`` as a list. Components with a
    single service always yield a single unit. For each multi-service
    component the pooled variant comes first, so the first configuration
    pools everything and the last splits everything. Every configuration
    shares one unit object per group. More than ``MAX_CONFIGURATIONS``
    raises ``TooManyComponents``.
    """
    pairs = zip(*(axis.tolist() for axis in np.nonzero(dependencies)))
    return list(_configurations(services, *_columns(len(services), pairs)))


@dataclass
class NetworkBuild:
    """A solver-ready network plus the vertex numbering of its workers and units."""

    net: mcmf.FlowNetwork
    num_workers: int
    num_units: int

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
    for i in range(num_workers):
        for u in range(num_units):
            if costs.feasible[i, u]:
                net.add_edge(1 + i, 1 + num_workers + u, 1, int(scaled[i, u]))
    for u in range(num_units):
        net.add_edge(1 + num_workers + u, net.sink, 1, 0)
    return NetworkBuild(net=net, num_workers=num_workers, num_units=num_units)


@dataclass(frozen=True)
class PreparedAllocation:
    """The part of an allocation that the workers' samples do not change.

    ``prepare`` builds it once per fleet and experiment from the column
    table (``column_table``): the pool-or-split configurations, the
    columns' feasibility and base costs, each configuration's column
    selection, the column order that seeds the solver and each column's
    service columns, which placement reads and whose counts weigh the
    solver's tie-break.
    ``place_rounds`` then costs a block of rounds in one pass and solves and
    places each as a ``RoundRecord``; ``allocate_rounds`` expands each
    record into its ``AllocationResult`` (``result``).
    """

    services: tuple[ServiceSpec, ...]
    configurations: tuple[tuple[AllocationUnit, ...], ...]
    #: The prepared workers' ids, in the order every round's samples follow.
    worker_ids: tuple[str, ...]
    costs: costing.UnitCosts
    #: Per configuration: each unit's column.
    selections: tuple[list[int], ...]
    #: Every column, from the largest base cost (times the discount for a pool) to the smallest.
    scale_order: tuple[int, ...]
    #: Per column: its members' service columns (the column table's columns).
    member_columns: tuple[tuple[int, ...], ...]
    discount: float

    def place_rounds(self, rounds: "np.ndarray | Sequence[Sequence[Sequence[float]]]"
                     ) -> list[RoundRecord]:
        """Place every service in each round of a block, given one load row per prepared worker.

        ``rounds`` is a ``(rounds, workers, 4)`` array of (cpu, vram, swap,
        bandwidth) rows, as ``swarmsim.sample_rounds`` yields it, or nested
        sequences of such rows. The block is costed in one pass; each round
        then only solves and places. The chosen configuration places the
        most services, then costs least, then comes first. A placed
        service's cost is its own single-service column's, read from the
        block's ``tolist()``, times the discount when it is pooled.
        Infeasibility is a result, not an error: when no configuration can
        place all services, a round's record places the best part of them.
        """
        values = self.costs.block(rounds)
        sizes = [len(members) for members in self.member_columns]
        # Reflected Gray-code order: consecutive configurations differ in one component.
        order = [i ^ (i >> 1) for i in range(len(self.selections))]
        # Infeasible cells are 0.0 and no cost is negative: the grid needs no mask.
        solutions = assignment.solve_rounds(costing.integer_grid(values), self.costs.feasible,
                                            [self.selections[i] for i in order], self.scale_order, sizes)
        num_services, discount = len(self.services), self.discount
        records = []
        for round_costs, solved in zip(values[..., :num_services].tolist(), solutions):
            outcomes: list = [None] * len(order)
            matched: list = [None] * len(order)  # per configuration: its (worker, unit) pairs
            for i, (pairs, cost) in zip(order, solved):
                columns = self.selections[i]
                matched[i] = pairs
                outcomes[i] = (len(pairs), sum([sizes[columns[u]] for _, u in pairs]), cost)
            best = min(range(len(outcomes)), key=lambda i: (-outcomes[i][1], outcomes[i][2], i))
            workers, costs = [-1] * num_services, [0.0] * num_services
            columns = self.selections[best]
            for w, u in matched[best]:
                members, worker_costs = self.member_columns[columns[u]], round_costs[w]
                for j in members:
                    workers[j] = w
                    costs[j] = worker_costs[j] * discount if len(members) > 1 else worker_costs[j]
            records.append(RoundRecord(best, workers, costs, outcomes))
        return records

    def allocate_rounds(self, rounds: "np.ndarray | Sequence[Sequence[Sequence[float]]]"
                        ) -> list[AllocationResult]:
        """``place_rounds``' records of a block, each expanded into its ``AllocationResult``."""
        return [self.result(record) for record in self.place_rounds(rounds)]

    def result(self, record: RoundRecord) -> AllocationResult:
        """The ``AllocationResult`` that ``record``, a round of this allocation, stands for.

        Its assignments follow the service columns, and its outcomes the configurations.
        """
        outcomes = tuple(
            ConfigurationOutcome(index=index, units=units, flow_value=matched,
                                 services_assigned=assigned, total_cost_scaled=cost,
                                 chosen=index == record.chosen)
            for index, (units, (matched, assigned, cost))
            in enumerate(zip(self.configurations, record.outcomes)))
        placement: list = [None] * len(self.services)  # by service column
        units, columns = self.configurations[record.chosen], self.selections[record.chosen]
        for unit, column in zip(units, columns):
            for j in self.member_columns[column]:
                if (w := record.workers[j]) >= 0:
                    placement[j] = Assignment(service=self.services[j].name, worker=self.worker_ids[w],
                                              unit=unit, cost=record.costs[j])
        assignments = {a.service: a for a in placement if a is not None}
        unassigned = frozenset(s.name for s, a in zip(self.services, placement) if a is None)
        total_scaled = record.outcomes[record.chosen][2]
        return AllocationResult(
            assignments=assignments,
            total_cost=total_scaled / COST_SCALE,
            total_cost_scaled=total_scaled,
            feasible=not unassigned,
            unassigned=unassigned,
            outcomes=outcomes,
        )


def prepare(workers: Sequence[WorkerState], experiment: ExperimentSpec) -> PreparedAllocation:
    """The sample-independent inputs of allocating ``experiment``'s services to ``workers``.

    Only the workers' ids and profiles are read, so ``workers`` may be
    cluster workers as well as worker states. An empty fleet raises
    ``EmptyProblem`` and a repeated worker id ``DuplicateAgent``, before
    anything is built.
    """
    if not workers:
        raise EmptyProblem("allocation needs at least one worker and one service")
    if (repeated := first_repeat(w.id for w in workers)) is not None:
        raise DuplicateAgent(f"agent {repeated!r} appears twice in the fleet")
    services, discount = experiment.services, experiment.pool_discount
    columns, selections = column_table(experiment)
    costs = costing.prepare_unit_costs(
        [[services[j] for j in column] for column in columns],
        costing.build_capability_matrix(workers, services), {s.name: j for j, s in enumerate(services)},
        experiment.weights, discount)

    scale = [sum(services[j].predefined_cost for j in column) * (discount if len(column) > 1 else 1.0)
             for column in columns]
    return PreparedAllocation(
        services=services, configurations=_configurations(services, columns, selections),
        worker_ids=tuple(w.id for w in workers), costs=costs, selections=tuple(selections),
        scale_order=tuple(sorted(range(len(columns)), key=lambda c: -scale[c])),
        member_columns=tuple(columns),
        discount=discount)


def allocate_experiment(workers: Sequence[WorkerState], experiment: ExperimentSpec) -> AllocationResult:
    """Place every service of ``experiment`` on a capable worker, given the workers'
    own workloads, at minimum total cost; infeasibility is a result (see
    ``PreparedAllocation.allocate_rounds``)."""
    return prepare(workers, experiment).allocate_rounds([[tuple(w.workload) for w in workers]])[0]


#: Each control and line-boundary character, as ``repr`` escapes it: C0, DEL, C1, U+2028, U+2029.
_ESCAPED = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


def _shown(text: str) -> str:
    """``text`` with its control and line-boundary characters escaped; any other keeps its bytes."""
    return text if text.isprintable() else text.translate(_ESCAPED)


def explain(result: AllocationResult) -> str:
    """Human-readable allocation report, stable for identical results.

    Service names, worker ids and unit labels are written with their
    control and line-boundary characters escaped (``_shown``), so each
    table row and each configuration is one line and the columns align;
    every other character keeps its bytes.
    """
    lines = []
    status = "FEASIBLE" if result.feasible else "INFEASIBLE"
    lines.append(f"Allocation: {status} ({len(result.assignments)}/{result.num_services} services assigned)")
    lines.append(f"Total cost: {result.total_cost:.6f}")
    if result.unassigned:
        lines.append(f"Unassigned: {_shown(', '.join(sorted(result.unassigned)))}")
    lines.append("")

    rows = [("SERVICE", "WORKER", "UNIT", "COST")]
    for assignment in result.assignments.values():
        rows.append((_shown(assignment.service), _shown(assignment.worker),
                     _shown(assignment.unit.label), f"{assignment.cost:.6f}"))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    for row in rows:
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip())
    lines.append("")

    chosen = next((o.index for o in result.outcomes if o.chosen), -1)
    lines.append(f"Configurations ({len(result.outcomes)} tried, #{chosen + 1} chosen):")
    for outcome in result.outcomes:
        marker = "  <- chosen" if outcome.chosen else ""
        units = _shown("".join(f"[{unit.label}]" for unit in outcome.units))
        lines.append(
            f"  #{outcome.index + 1} {units} services={outcome.services_assigned} "
            f"cost={outcome.total_cost_scaled / COST_SCALE:.6f}{marker}")
    return "\n".join(lines) + "\n"
