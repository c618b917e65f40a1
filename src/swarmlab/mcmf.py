"""Minimum-cost maximum-flow over integer capacities and costs.

The solver augments along successive shortest (cheapest) paths found by
Bellman-Ford on the residual graph: exact, obvious and slow, O(flow * V * E).
It is the reference implementation: the allocator solves its problems with
``assignment.solve_rounds``, and the tests check ``assignment``'s results
against this solver on the equivalent network from
``allocator.build_network``; ``verify`` checks any flow against its network. Edge insertion order fixes
tie-breaking, so identical inputs always produce identical flows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedNetwork

_INF = float("inf")


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    capacity: int
    cost: int


class FlowNetwork:
    """Directed graph with distinguished source and sink vertices."""

    def __init__(self, num_vertices: int, source: int, sink: int):
        if num_vertices < 2:
            raise MalformedNetwork("a network needs at least source and sink")
        for name, vertex in (("source", source), ("sink", sink)):
            if not 0 <= vertex < num_vertices:
                raise MalformedNetwork(f"{name} {vertex} outside vertex range 0..{num_vertices - 1}")
        if source == sink:
            raise MalformedNetwork("source and sink must differ")
        self.num_vertices = num_vertices
        self.source = source
        self.sink = sink
        self.edges: list[Edge] = []

    def add_edge(self, u: int, v: int, capacity: int, cost: int) -> int:
        """Append an edge and return its index."""
        for name, vertex in (("tail", u), ("head", v)):
            if not (isinstance(vertex, int) and 0 <= vertex < self.num_vertices):
                raise MalformedNetwork(f"{name} {vertex!r} outside vertex range")
        if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 0:
            raise MalformedNetwork(f"capacity must be a non-negative integer, got {capacity!r}")
        if isinstance(cost, bool) or not isinstance(cost, int) or cost < 0:
            raise MalformedNetwork(f"cost must be a non-negative integer, got {cost!r}")
        self.edges.append(Edge(u, v, capacity, cost))
        return len(self.edges) - 1


@dataclass(frozen=True)
class FlowResult:
    """Flow per edge (indexed like ``net.edges``) plus the two totals."""

    flows: tuple[int, ...]
    total_flow: int
    total_cost: int


def solve(net: FlowNetwork) -> FlowResult:
    """Return a maximum flow of minimum total cost."""
    n = net.num_vertices
    # Residual arrays: forward edge at 2k, its reverse at 2k+1.
    eto: list[int] = []
    efrom: list[int] = []
    ecap: list[int] = []
    ecost: list[int] = []
    for e in net.edges:
        efrom.append(e.u); eto.append(e.v); ecap.append(e.capacity); ecost.append(e.cost)
        efrom.append(e.v); eto.append(e.u); ecap.append(0); ecost.append(-e.cost)

    total_flow = 0
    total_cost = 0
    while True:
        # Bellman-Ford on the residual graph; scanning edges in index order
        # makes parent choice, and therefore tie-breaking, deterministic.
        dist = [_INF] * n
        parent = [-1] * n
        dist[net.source] = 0
        for _ in range(n - 1):
            changed = False
            for k in range(len(ecap)):
                if ecap[k] > 0 and dist[efrom[k]] + ecost[k] < dist[eto[k]]:
                    dist[eto[k]] = dist[efrom[k]] + ecost[k]
                    parent[eto[k]] = k
                    changed = True
            if not changed:
                break
        if dist[net.sink] == _INF:
            break

        bottleneck = None
        v = net.sink
        while v != net.source:
            k = parent[v]
            bottleneck = ecap[k] if bottleneck is None else min(bottleneck, ecap[k])
            v = efrom[k]
        assert bottleneck is not None and bottleneck > 0

        v = net.sink
        while v != net.source:
            k = parent[v]
            ecap[k] -= bottleneck
            ecap[k ^ 1] += bottleneck
            total_cost += ecost[k] * bottleneck
            v = efrom[k]
        total_flow += bottleneck

    flows = tuple(ecap[2 * k + 1] for k in range(len(net.edges)))
    return FlowResult(flows=flows, total_flow=total_flow, total_cost=total_cost)


@dataclass(frozen=True)
class Violation:
    kind: str      # "capacity" | "conservation" | "total-flow" | "total-cost" | "shape"
    location: str
    detail: str


def verify(net: FlowNetwork, result: FlowResult) -> list[Violation]:
    """Check a flow against the network's constraints.

    Returns one violation per broken capacity bound, per vertex where
    inflow and outflow disagree, and for totals that do not match the
    edge flows. An empty list means the flow is valid.
    """
    violations: list[Violation] = []
    if len(result.flows) != len(net.edges):
        return [Violation("shape", "flows", f"expected {len(net.edges)} edge flows, got {len(result.flows)}")]

    balance = [0] * net.num_vertices
    cost = 0
    for k, edge in enumerate(net.edges):
        flow = result.flows[k]
        if not 0 <= flow <= edge.capacity:
            violations.append(Violation(
                "capacity", f"edge {k} ({edge.u}->{edge.v})",
                f"flow {flow} outside [0, {edge.capacity}]"))
        balance[edge.u] -= flow
        balance[edge.v] += flow
        cost += edge.cost * flow

    for v in range(net.num_vertices):
        if v in (net.source, net.sink):
            continue
        if balance[v] != 0:
            violations.append(Violation(
                "conservation", f"vertex {v}",
                f"inflow exceeds outflow by {balance[v]}"))

    if balance[net.sink] != result.total_flow:
        violations.append(Violation(
            "total-flow", "sink",
            f"reported {result.total_flow}, edges deliver {balance[net.sink]}"))
    if cost != result.total_cost:
        violations.append(Violation(
            "total-cost", "network",
            f"reported {result.total_cost}, edges sum to {cost}"))
    return violations

