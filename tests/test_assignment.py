import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from swarmlab import assignment, mcmf
from swarmlab.allocator import build_network, prepare
from swarmlab.costing import COST_SCALE, CostMatrix
from swarmlab.definitions import CostWeights

from factories import make_service, make_worker


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


def _scipy_services_range(scaled, feasible, sizes):
    """Fewest and most services that an optimal matching places, by scipy.

    Sizes break ties among the matchings of most units and least cost: the
    costs are weighted above any sum of sizes, which are added or subtracted.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    weight = int(sizes.sum()) + 1
    big_m = (int(scaled[feasible].sum()) + 1) * weight
    placed = []
    for sign in (1, -1):
        rows, cols = linear_sum_assignment(np.where(feasible, scaled * weight + sign * sizes, big_m))
        placed.append(sum(int(sizes[c]) for r, c in zip(rows.tolist(), cols.tolist()) if feasible[r, c]))
    return tuple(placed)


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


def test_selections_match_independent_solves():
    # Random selection sequences, not only Gray-code steps: units leave and
    # enter in any number, and a selection may hold more units than there are
    # workers, or none.
    rng = np.random.default_rng(4242)
    for _ in range(300):
        workers, columns = int(rng.integers(0, 7)), int(rng.integers(1, 9))
        scaled = rng.integers(0, int(rng.choice([3, 1000, 10**8])), size=(workers, columns))
        if workers > 1 and rng.random() < 0.3:
            scaled[1] = scaled[0]  # a duplicated worker
        feasible = rng.random((workers, columns)) < rng.uniform(0.0, 1.0)
        selections = [rng.permutation(columns)[:int(rng.integers(0, columns + 1))].tolist()
                      for _ in range(int(rng.integers(1, 8)))]
        solved = assignment.solve_selections(scaled, feasible, selections)
        assert len(solved) == len(selections)
        for cols, (pairs, cost) in zip(selections, solved):
            assert [p for _, p in pairs] == sorted({p for _, p in pairs})
            assert len({w for w, _ in pairs}) == len(pairs)
            assert all(feasible[w, cols[p]] for w, p in pairs)
            assert cost == sum(int(scaled[w, cols[p]]) for w, p in pairs)
            reference, reference_cost = assignment.solve(scaled[:, cols], feasible[:, cols])
            assert (len(pairs), cost) == (len(reference), reference_cost)
            if workers and cols:
                assert (len(pairs), cost) == _scipy_totals(scaled[:, cols], feasible[:, cols])


# Nobody offers "lidar": a service that needs it is an all-infeasible column,
# and a worker without tags is an all-infeasible row when every service needs one.
NEEDS = st.sampled_from([(), ("cam",), ("gpu",), ("lidar",)])
OFFERS = st.sampled_from([(), ("cam",), ("gpu",), ("cam", "gpu")])
LOAD = st.floats(0.0, 1.0)


@st.composite
def pooled_fleets(draw):
    """Workers, some duplicated, and services of which 0-6 pairs may pool."""
    pools = draw(st.integers(0, 6))
    services = [make_service(f"s{j:02d}", draw(st.floats(1.0, 100.0)), draw(NEEDS))
                for j in range(2 * pools + draw(st.integers(0 if pools else 1, 3)))]
    dependencies = tuple((f"s{2 * k:02d}", f"s{2 * k + 1:02d}") for k in range(pools))
    distinct = draw(st.lists(st.tuples(OFFERS, LOAD, LOAD, LOAD, LOAD), min_size=1, max_size=5))
    copies = draw(st.lists(st.sampled_from(distinct), max_size=4))  # tie with their originals
    workers = [make_worker(f"w{i:02d}", *spec) for i, spec in enumerate(distinct + copies)]
    return workers, services, dependencies, draw(st.sampled_from([0.5, 0.85, 1.0]))


@settings(max_examples=60, deadline=None)
@given(pooled_fleets(), st.randoms(use_true_random=False))
def test_warm_started_configurations_match_independent_solves(fleet, random):
    workers, services, dependencies, discount = fleet
    prepared = prepare(workers, services, dependencies, CostWeights(), discount)
    result = prepared.allocate(workers)
    scaled = prepared.costs.matrix([w.workload for w in workers]).scaled()
    feasible = prepared.costs.feasible
    assert len(result.outcomes) == 2 ** len(dependencies)

    order = list(range(len(prepared.selections)))
    random.shuffle(order)
    shuffled = assignment.solve_selections(scaled, feasible, [prepared.selections[i][0] for i in order])
    permuted = dict(zip(order, shuffled))
    for outcome, (cols, sizes) in zip(result.outcomes, prepared.selections):
        pairs, cost = assignment.solve(scaled[:, cols], feasible[:, cols])
        fewest, most = _scipy_services_range(scaled[:, cols], feasible[:, cols], sizes)
        services_placed = sum(sizes[u] for _, u in pairs)
        assert (outcome.flow_value, outcome.total_cost_scaled) == (len(pairs), cost) \
            == _scipy_totals(scaled[:, cols], feasible[:, cols])
        assert fewest <= outcome.services_assigned <= most
        other_pairs, other_cost = permuted[outcome.index]
        assert (len(other_pairs), other_cost) == (len(pairs), cost)
        if fewest == most:  # otherwise equal-cost optima place different numbers of services
            assert outcome.services_assigned == services_placed \
                == sum(sizes[u] for _, u in other_pairs)
