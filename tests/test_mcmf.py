import numpy as np
import pytest

from swarmlab.errors import MalformedNetwork
from swarmlab.mcmf import (
    FlowNetwork,
    FlowResult,
    solve,
    verify,
)

import oracles


def test_single_edge():
    net = FlowNetwork(2, 0, 1)
    net.add_edge(0, 1, 1, 5)
    result = solve(net)
    assert result.total_flow == 1
    assert result.total_cost == 5
    assert result.flows == (1,)


def test_parallel_edges_saturate_both():
    net = FlowNetwork(2, 0, 1)
    net.add_edge(0, 1, 1, 3)
    net.add_edge(0, 1, 1, 7)
    result = solve(net)
    assert result.total_flow == 2
    assert result.total_cost == 10


def test_cheaper_path_preferred():
    # two disjoint paths, only one unit of flow fits the sink edge
    net = FlowNetwork(4, 0, 3)
    net.add_edge(0, 1, 1, 2)
    net.add_edge(0, 2, 1, 9)
    net.add_edge(1, 3, 1, 0)
    net.add_edge(2, 3, 1, 0)
    result = solve(net)
    assert result.total_flow == 2
    assert result.total_cost == 11
    assert result.flows[0] == 1


def test_flow_rerouting_needed():
    # greedy shortest path must be undone through the residual edge
    net = FlowNetwork(4, 0, 3)
    net.add_edge(0, 1, 1, 1)
    net.add_edge(1, 2, 1, 1)
    net.add_edge(2, 3, 1, 1)
    net.add_edge(0, 2, 1, 10)
    net.add_edge(1, 3, 1, 10)
    result = solve(net)
    assert result.total_flow == 2
    assert result.total_cost == 22  # 0->1->3 plus 0->2->3; the cheap middle edge stays empty
    assert verify(net, result) == []


def test_zero_capacity_and_disconnected():
    net = FlowNetwork(3, 0, 2)
    net.add_edge(0, 1, 0, 1)
    result = solve(net)
    assert result.total_flow == 0
    assert result.total_cost == 0


@pytest.mark.parametrize("build", [
    lambda: FlowNetwork(1, 0, 0),
    lambda: FlowNetwork(2, 0, 0),
    lambda: FlowNetwork(2, 0, 5),
    lambda: FlowNetwork(2, 0, 1).add_edge(0, 7, 1, 1),
    lambda: FlowNetwork(2, 0, 1).add_edge(0, 1, -1, 1),
    lambda: FlowNetwork(2, 0, 1).add_edge(0, 1, 1, -1),
    lambda: FlowNetwork(2, 0, 1).add_edge(0, 1, 1, 0.5),
])
def test_malformed_networks(build):
    with pytest.raises(MalformedNetwork):
        build()


def _bipartite_network(costs, feasible):
    """workers on the left, units on the right, unit capacities."""
    m, n = len(feasible), len(feasible[0])
    net = FlowNetwork(m + n + 2, 0, m + n + 1)
    for i in range(m):
        net.add_edge(0, 1 + i, 1, 0)
    pair_edges = {}
    for i in range(m):
        for u in range(n):
            if feasible[i][u]:
                pair_edges[(i, u)] = net.add_edge(1 + i, 1 + m + u, 1, costs[i][u])
    for u in range(n):
        net.add_edge(1 + m + u, m + n + 1, 1, 0)
    return net, pair_edges


def test_random_bipartite_instances_match_brute_force():
    rng = np.random.default_rng(1234)
    for _ in range(250):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        feasible = (rng.random((m, n)) < 0.7).tolist()
        costs = rng.integers(0, 1000, size=(m, n)).tolist()
        net, _ = _bipartite_network(costs, feasible)
        result = solve(net)
        best_units, best_cost, _ = oracles.best_matching(costs, feasible, [1] * n)
        assert result.total_flow == best_units
        assert result.total_cost == best_cost
        assert verify(net, result) == []


def test_maximality_matches_independent_max_flow():
    rng = np.random.default_rng(99)
    for _ in range(100):
        num_vertices = int(rng.integers(4, 9))
        net = FlowNetwork(num_vertices, 0, num_vertices - 1)
        edges = []
        for _ in range(int(rng.integers(3, 14))):
            u = int(rng.integers(0, num_vertices - 1))
            v = int(rng.integers(1, num_vertices))
            if u == v:
                continue
            cap = int(rng.integers(0, 4))
            net.add_edge(u, v, cap, int(rng.integers(0, 20)))
            edges.append((u, v, cap))
        result = solve(net)
        assert result.total_flow == oracles.max_flow_value(num_vertices, 0, num_vertices - 1, edges)
        assert verify(net, result) == []


def test_determinism():
    rng = np.random.default_rng(7)
    costs = rng.integers(0, 50, size=(4, 4)).tolist()
    feasible = [[True] * 4 for _ in range(4)]
    first = solve(_bipartite_network(costs, feasible)[0])
    second = solve(_bipartite_network(costs, feasible)[0])
    assert first.flows == second.flows


def test_verify_reports_conservation_breaks():
    net = FlowNetwork(4, 0, 3)
    net.add_edge(0, 1, 1, 1)
    net.add_edge(1, 2, 1, 1)
    net.add_edge(2, 3, 1, 1)
    good = solve(net)
    assert verify(net, good) == []

    # drop the middle unit of flow: both internal vertices go out of balance
    flows = list(good.flows)
    flows[1] = 0
    broken = FlowResult(flows=tuple(flows), total_flow=good.total_flow,
                        total_cost=good.total_cost - 1)
    kinds = [v.kind for v in verify(net, broken)]
    assert kinds.count("conservation") == 2


def test_verify_names_overfull_edge():
    net = FlowNetwork(2, 0, 1)
    net.add_edge(0, 1, 1, 2)
    overfull = FlowResult(flows=(2,), total_flow=2, total_cost=4)
    violations = verify(net, overfull)
    capacity = [v for v in violations if v.kind == "capacity"]
    assert len(capacity) == 1
    assert "edge 0" in capacity[0].location


def test_verify_checks_reported_totals():
    net = FlowNetwork(2, 0, 1)
    net.add_edge(0, 1, 1, 5)
    wrong = FlowResult(flows=(1,), total_flow=2, total_cost=0)
    kinds = {v.kind for v in verify(net, wrong)}
    assert kinds == {"total-flow", "total-cost"}

