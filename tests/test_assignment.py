import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from swarmlab import assignment, mcmf
from swarmlab.allocator import build_network
from swarmlab.costing import COST_SCALE, CostMatrix


def _mcmf_totals(scaled, feasible):
    costs = CostMatrix(values=np.where(feasible, scaled / COST_SCALE, 0.0), feasible=feasible)
    assert np.array_equal(costs.scaled(), np.where(feasible, scaled, 0))
    flow = mcmf.solve(build_network(costs).net)
    return flow.total_flow, flow.total_cost


def _scipy_totals(scaled, feasible):
    big_m = int(scaled[feasible].sum()) + 1
    rows, cols = linear_sum_assignment(np.where(feasible, scaled, big_m))
    matched = [(r, c) for r, c in zip(rows.tolist(), cols.tolist()) if feasible[r, c]]
    return len(matched), sum(int(scaled[r, c]) for r, c in matched)


def check(scaled, feasible, with_mcmf=True):
    scaled = np.asarray(scaled, dtype=np.int64)
    feasible = np.asarray(feasible, dtype=bool)
    pairs, cost = assignment.solve(scaled, feasible)

    workers = [w for w, _ in pairs]
    units = [u for _, u in pairs]
    assert len(set(workers)) == len(workers)
    assert len(set(units)) == len(units)
    assert units == sorted(units)
    assert all(feasible[w, u] for w, u in pairs)
    assert cost == sum(int(scaled[w, u]) for w, u in pairs)

    assert (len(pairs), cost) == _scipy_totals(scaled, feasible)
    if with_mcmf:
        assert (len(pairs), cost) == _mcmf_totals(scaled, feasible)
    assert assignment.solve(scaled.copy(), feasible.copy()) == (pairs, cost)
    return pairs, cost


def test_random_instances_against_both_oracles():
    rng = np.random.default_rng(8088)
    for _ in range(400):
        workers, units = (int(n) for n in rng.integers(1, 8, size=2))
        high = int(rng.choice([3, 1000, 100 * COST_SCALE]))
        scaled = rng.integers(0, high, size=(workers, units))
        feasible = rng.random((workers, units)) < rng.uniform(0.2, 1.0)
        check(scaled, feasible)


@pytest.mark.parametrize("workers, units", [(6, 2), (2, 6), (5, 5), (40, 20), (20, 40)])
def test_rectangular_shapes(workers, units):
    rng = np.random.default_rng(workers * 100 + units)
    scaled = rng.integers(0, 10**8, size=(workers, units))
    feasible = rng.random((workers, units)) < 0.7
    pairs, _ = check(scaled, feasible, with_mcmf=workers * units <= 36)
    assert len(pairs) <= min(workers, units)


def test_one_by_one():
    assert check([[7]], [[True]]) == ([(0, 0)], 7)
    assert check([[7]], [[False]]) == ([], 0)


def test_all_infeasible_rows_and_columns():
    rng = np.random.default_rng(3)
    scaled = rng.integers(0, 1000, size=(5, 4))
    feasible = np.ones((5, 4), dtype=bool)
    feasible[[1, 3], :] = False
    feasible[:, 2] = False
    pairs, _ = check(scaled, feasible)
    assert {w for w, _ in pairs}.isdisjoint({1, 3})
    assert 2 not in {u for _, u in pairs}
    assert len(pairs) == 3
    assert check(scaled, np.zeros((5, 4), dtype=bool)) == ([], 0)


def test_infeasibility_is_traded_for_cardinality_not_cost():
    # Taking the cheap pair (0, 0) would leave unit 1 unmatched.
    pairs, cost = check([[0, 9], [5, 0]], [[True, True], [True, False]])
    assert pairs == [(1, 0), (0, 1)] and cost == 14


def test_all_zero_costs():
    for shape in ((4, 4), (6, 3), (3, 6)):
        pairs, cost = check(np.zeros(shape), np.ones(shape, dtype=bool))
        assert cost == 0 and len(pairs) == min(shape)


def test_identical_worker_fleets():
    # Every worker has the same row: ties among assignments everywhere.
    rng = np.random.default_rng(11)
    for workers, units in ((8, 3), (3, 3), (6, 6), (12, 5)):
        row = rng.integers(0, 1000, size=units)
        scaled = np.tile(row, (workers, 1))
        pairs, cost = check(scaled, np.ones((workers, units), dtype=bool))
        assert len(pairs) == min(workers, units)
        if workers >= units:
            assert cost == int(row.sum())
        # identical units as well
        check(np.full((workers, units), 5), np.ones((workers, units), dtype=bool))


def test_empty_matrix():
    assert assignment.solve(np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3), dtype=bool)) == ([], 0)
    assert assignment.solve(np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0), dtype=bool)) == ([], 0)
