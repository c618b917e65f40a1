import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from swarmlab import assignment, mcmf
from swarmlab.allocator import allocate_experiment, build_network, prepare
from swarmlab.costing import COST_SCALE, CostMatrix

import oracles
from factories import make_experiment, make_service, make_worker, one_round


def solve_rounds(scaled, feasible, selections, order=None, weights=None):
    """``assignment.solve_rounds``, each round's selections as ``(pairs, total)``: the matched
    ``(worker, position in the selection)`` pairs sorted by position, and the total. Each
    score's matched count and weight are checked against the pairs."""
    placed, scores = assignment.solve_rounds(scaled, feasible, selections, order, weights)
    rounds = []
    for workers, round_scores in zip(placed.tolist(), scores.tolist()):
        solved, at = [], 0
        for selection, (matched, weight, total) in zip(selections, round_scores):
            pairs = [(w, p) for p, w in enumerate(workers[at:at + len(selection)]) if w >= 0]
            assert (matched, weight) == (len(pairs), sum(weights[selection[p]] if weights else 1
                                                         for _, p in pairs))
            solved.append((pairs, total))
            at += len(selection)
        rounds.append(solved)
    return rounds


def solve_selections(scaled, feasible, selections, order=None, weights=None):
    """``assignment.solve_selections`` on one (workers, columns) matrix, as one round."""
    return solve_rounds(np.asarray(scaled)[None], feasible, selections, order, weights)[0]


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


def _check_selections(scaled, feasible, selections):
    """Each selection solved in turn matches its independent solve and scipy's."""
    solved = solve_selections(scaled, feasible, selections)
    assert len(solved) == len(selections)
    for cols, (pairs, cost) in zip(selections, solved):
        assert [p for _, p in pairs] == sorted({p for _, p in pairs})
        assert len({w for w, _ in pairs}) == len(pairs)
        assert all(feasible[w, cols[p]] for w, p in pairs)
        assert cost == sum(int(scaled[w, cols[p]]) for w, p in pairs)
        reference, reference_cost = assignment.solve(scaled[:, cols], feasible[:, cols])
        assert (len(pairs), cost) == (len(reference), reference_cost)
        if scaled.shape[0] and cols:
            assert (len(pairs), cost) == _scipy_totals(scaled[:, cols], feasible[:, cols])


def test_solve_rounds_solves_each_round_on_its_own():
    # Three rounds of one stack on very different cost scales, so each has its own big M,
    # on five workers and eight columns (the largest selection needs padding workers).
    rng = np.random.default_rng(31)
    feasible = rng.random((5, 8)) < 0.7
    feasible[:, 6] = False  # an all-infeasible column
    stack = np.stack([rng.integers(0, high, size=(5, 8)) for high in (3, 1000, 10**8)])
    assert len({int(scaled[feasible].sum()) + 1 for scaled in stack}) == 3
    whole = list(range(8))
    for scaled, [(pairs, cost)] in zip(stack, solve_rounds(stack, feasible, [whole])):
        assert (pairs, cost) == assignment.solve(scaled, feasible)
        assert (len(pairs), cost) == _scipy_totals(scaled, feasible)

    # Several selections, the first one seeded: each round as if it were solved alone.
    selections = [whole, [7, 1, 3], [], [5, 4, 3, 2, 1, 0], [2]]
    order = rng.permutation(8).tolist()
    solved = solve_rounds(stack, feasible, selections, order)
    assert len(solved) == len(stack)
    for scaled, rounds in zip(stack, solved):
        assert rounds == solve_rounds(scaled[None], feasible, selections, order)[0]
        for cols, (pairs, cost) in zip(selections, rounds):
            reference, reference_cost = assignment.solve(scaled[:, cols], feasible[:, cols])
            assert (len(pairs), cost) == (len(reference), reference_cost)
            if cols:
                assert (len(pairs), cost) == _scipy_totals(scaled[:, cols], feasible[:, cols])

    # Object-dtype costs run on Python ints: the same ints solve the same, and costs past
    # int64 keep every optimum's size and scale its cost.
    assert solve_rounds(stack.astype(object), feasible, selections, order) == solved
    wide = solve_rounds(stack.astype(object) * 2**70, feasible, selections, order)
    assert [[(len(pairs), cost) for pairs, cost in rounds] for rounds in wide] \
        == [[(len(pairs), cost * 2**70) for pairs, cost in rounds] for rounds in solved]

    # An empty stack has no rounds to solve.
    assert solve_rounds(stack[:0], feasible, selections, order) == []

    # The arrays themselves: every selection's positions side by side, -1 where unmatched,
    # and the scores in the search's integers.
    placed, scores = assignment.solve_rounds(stack, feasible, selections, order)
    assert (placed.dtype, placed.shape, scores.dtype, scores.shape) == (np.int64, (3, 18), np.int64, (3, 5, 3))
    assert placed.min() == -1 and placed.max() < 5
    assert assignment.solve_rounds(stack.astype(object) * 2**70, feasible, selections, order)[1].dtype == object
    placed, scores = assignment.solve_rounds(stack[:0], feasible, selections, order)
    assert (placed.shape, scores.shape) == ((0, 18), (0, 5, 3))


# (workers, columns, seed, selections): each grows to as many units as the solver has
# columns (the pool holds none), shrinks to none (the pool holds every column) and grows
# again, on a fleet whose first two workers are duplicates.
EDGE_SELECTIONS = [
    (4, 6, 1, [[0, 1, 2, 3, 4, 5], [], [5, 3, 1], [0, 1, 2, 3, 4, 5], [2], []]),
    (5, 5, 2, [[4, 2], [0, 1, 2, 3, 4], [], [3, 1, 4, 0, 2], [1, 3], []]),
    (6, 6, 3, [[], [5, 4, 3, 2, 1, 0], [0], [], [0, 1, 2, 3, 4, 5], [2, 3, 4, 5]]),
    (2, 3, 4, [[0, 1, 2], [], [2, 0, 1], [1]]),
]


def test_selections_match_independent_solves():
    # Units leave and enter in any number, and a selection may hold more units than
    # there are workers, or none: first the edge sequences, then random ones.
    for workers, columns, seed, selections in EDGE_SELECTIONS:
        rng = np.random.default_rng(seed)
        scaled = rng.integers(0, 1000, size=(workers, columns))
        scaled[1] = scaled[0]
        for feasible in (np.ones((workers, columns), dtype=bool), rng.random((workers, columns)) < 0.6):
            _check_selections(scaled, feasible, selections)
    rng = np.random.default_rng(4242)
    for _ in range(300):
        workers, columns = int(rng.integers(0, 7)), int(rng.integers(1, 9))
        scaled = rng.integers(0, int(rng.choice([3, 1000, 10**8])), size=(workers, columns))
        if workers > 1 and rng.random() < 0.3:
            scaled[1] = scaled[0]  # a duplicated worker
        feasible = rng.random((workers, columns)) < rng.uniform(0.0, 1.0)
        selections = [rng.permutation(columns)[:int(rng.integers(0, columns + 1))].tolist()
                      for _ in range(int(rng.integers(1, 8)))]
        _check_selections(scaled, feasible, selections)


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
    experiment = make_experiment(services, dependencies, discount=discount)
    prepared = prepare(workers, experiment)
    result = allocate_experiment(workers, experiment)
    scaled = prepared.costs.matrix([w.workload for w in workers]).scaled()
    feasible = prepared.costs.feasible
    assert len(result.outcomes) == 2 ** len(dependencies)

    order = list(range(len(prepared.selections)))
    random.shuffle(order)
    shuffled = solve_selections(scaled, feasible, [prepared.selections[i] for i in order])
    permuted = dict(zip(order, shuffled))
    for outcome, cols in zip(result.outcomes, prepared.selections):
        sizes = [len(unit.members) for unit in outcome.units]
        pairs, cost = assignment.solve(scaled[:, cols], feasible[:, cols])
        fewest, most = _scipy_services_range(scaled[:, cols], feasible[:, cols], sizes)
        services_placed = sum(sizes[u] for _, u in pairs)
        assert (outcome.flow_value, outcome.total_cost_scaled) == (len(pairs), cost) \
            == _scipy_totals(scaled[:, cols], feasible[:, cols])
        assert outcome.services_assigned == most
        other_pairs, other_cost = permuted[outcome.index]
        assert (len(other_pairs), other_cost) == (len(pairs), cost)
        if fewest == most:  # otherwise equal-cost optima place different numbers of services
            assert outcome.services_assigned == services_placed \
                == sum(sizes[u] for _, u in other_pairs)


# Seeded cold starts: rank-1 costs (a unit's scale times a worker's load), capability
# classes, duplicated workers, all-infeasible rows and columns, more units than workers.
# The seed must never decide the optimum, so arbitrary costs and orders are drawn too.
@st.composite
def seeded_problems(draw):
    units = draw(st.integers(assignment.SEED_MIN_UNITS, 14))
    workers = draw(st.integers(1, 18))
    loads = draw(st.lists(st.integers(0, 1000), min_size=workers, max_size=workers))
    copies = draw(st.lists(st.integers(0, workers - 1), max_size=4))
    loads += [loads[i] for i in copies]  # duplicated workers
    scales = draw(st.lists(st.integers(0, 100), min_size=units, max_size=units))
    scaled = np.outer(loads, scales)
    if draw(st.booleans()):  # off the product by one grid step, as rounding leaves it
        scaled += np.array(draw(st.lists(st.integers(0, 1), min_size=scaled.size,
                                         max_size=scaled.size))).reshape(scaled.shape)
    if draw(st.integers(0, 4)) == 0:  # no rank-1 structure at all
        scaled = np.array(draw(st.lists(st.integers(0, 10**6), min_size=scaled.size,
                                        max_size=scaled.size))).reshape(scaled.shape)
    # Capability classes: a unit needs one tag or none; "lidar" (3) is offered by no worker.
    offers = [draw(st.sampled_from([(), (1,), (2,), (1, 2)])) for _ in range(workers)]
    offers += [offers[i] for i in copies]
    needs = [draw(st.sampled_from([0, 0, 1, 2, 3])) for _ in range(units)]
    feasible = np.array([[need == 0 or need in offer for need in needs] for offer in offers],
                        dtype=bool).reshape(len(offers), units)
    order = sorted(range(units), key=lambda u: -scales[u])
    if draw(st.integers(0, 4)) == 0:
        order = draw(st.permutations(range(units)))
    later = draw(st.lists(st.lists(st.integers(0, units - 1), unique=True), max_size=3))
    return scaled, feasible, order, later


@settings(max_examples=150, deadline=None)
@given(seeded_problems())
def test_seeded_cold_solves_match_scipy(problem):
    scaled, feasible, order, later = problem
    selections = [list(range(scaled.shape[1]))] + later
    seeded = solve_selections(scaled, feasible, selections, order)
    plain = solve_selections(scaled, feasible, selections)
    for cols, (pairs, cost), (plain_pairs, plain_cost) in zip(selections, seeded, plain):
        assert len({w for w, _ in pairs}) == len(pairs)
        assert all(feasible[w, cols[p]] for w, p in pairs)
        assert cost == sum(int(scaled[w, cols[p]]) for w, p in pairs)
        assert (len(pairs), cost) == (len(plain_pairs), plain_cost)
        if cols:
            assert (len(pairs), cost) == _scipy_totals(scaled[:, cols], feasible[:, cols])


#: Where a search starts when it returns a column to the pool: the row after the units'.
POOL = "pool"


def _counting_augment(monkeypatch):
    """Records where every augmenting-path search starts: a unit's row, or ``POOL``."""
    starts = []
    augment = assignment._augment

    def counting(start, rows, *rest):
        starts.append(POOL if start == len(rows) - 1 else start)
        return augment(start, rows, *rest)
    monkeypatch.setattr(assignment, "_augment", counting)
    return starts


def test_product_costs_are_seeded_without_a_search(monkeypatch):
    # An exact integer product matrix (Monge): the sorted pairing is the optimum,
    # and the telescoped potentials leave every pair of it tight.
    searches = _counting_augment(monkeypatch)
    rng = np.random.default_rng(17)
    for workers, units in ((12, 12), (30, 10), (40, 20)):
        loads = rng.permutation(np.arange(1, workers + 1) * 7)
        scales = rng.permutation(np.arange(1, units + 1) * 3)
        scaled = np.outer(loads, scales)
        feasible = np.ones(scaled.shape, dtype=bool)
        order = np.argsort(-scales, kind="stable").tolist()
        [(pairs, cost)] = solve_selections(scaled, feasible, [range(units)], order)
        assert searches == []
        by_load = np.argsort(loads, kind="stable").tolist()
        assert sorted(pairs, key=lambda pair: -scales[pair[1]]) == \
            [(by_load[rank], unit) for rank, unit in enumerate(order)]
        assert (len(pairs), cost) == _scipy_totals(scaled, feasible)


def test_seeded_cold_starts_run_no_padding_search(monkeypatch):
    # Twelve workers and eight services of which two pool, as in the shipped demo but with
    # enough units to seed, then fleet_pools-shaped first configurations: 40 workers, half
    # with a camera, 20 services, four of which need one, three two-service pools. The seed
    # hands the pool the unpaired columns at the top potential, so no search starts from the
    # pool, even where the seed drops pairs that are not tight.
    searches = _counting_augment(monkeypatch)
    rng = np.random.default_rng(5)
    prepared_demo = None
    dropped = 0
    for workers, services, pools in [(12, 8, 1)] + [(40, 20, 3)] * 6:
        fleet = [make_worker(f"w{i:02d}", ("cam",) if i % 2 else (),
                             *rng.uniform(0.1, 0.8, size=4).tolist()) for i in range(workers)]
        needs_camera = set(rng.choice(services, size=services // 5, replace=False).tolist())
        specs = [make_service(f"s{j:02d}", float(rng.uniform(5.0, 95.0)),
                              ("cam",) if j in needs_camera else ()) for j in range(services)]
        dependencies = [(f"s{2 * k:02d}", f"s{2 * k + 1:02d}") for k in range(pools)]
        prepared = prepare(fleet, make_experiment(specs, dependencies, discount=0.85))
        first = prepared.selections[0]
        assert len(first) >= assignment.SEED_MIN_UNITS
        scaled = prepared.costs.matrix([w.workload for w in fleet]).scaled()
        searches.clear()
        solve_selections(scaled, prepared.costs.feasible, [first], prepared.scale_order)
        assert POOL not in searches
        dropped += len(searches)
        prepared_demo = prepared_demo or (prepared, fleet, len(searches))
    assert dropped > 0  # some seeds left pairs that were not tight

    # The demo-shaped round: the seed's repairs, then the split's s00 and s01 enter.
    prepared, fleet, repairs = prepared_demo
    searches.clear()
    [result] = prepared.allocate_rounds(one_round(fleet)).results()
    assert result.feasible and len(result.outcomes) == 2
    assert len(searches) == repairs + 2 and POOL not in searches


class _ScannedRows(list):
    """A search's rows that records every row the search scans."""

    def __init__(self, rows, scanned):
        super().__init__(rows)
        self.scanned = scanned

    def __getitem__(self, index):
        row = super().__getitem__(index)
        self.scanned.append(row)
        return row


def test_pooling_steps_search_the_pool_once(monkeypatch):
    # fleet_pools-shaped fleets: 40 workers, half with a camera, 20 services of which four
    # need one, three two-service pools. In Gray-code order a pooling step frees two member
    # columns and the pool unit takes one; the pool takes the other back by exactly one
    # search, both where a unit holds a column above it (rng 0) and where none does (rng 3).
    # The pool (all-zero costs) must be scanned at most once per search, not once per
    # column it holds.
    searches = []  # per search: (starts from the pool, all-zero rows scanned)
    augment = assignment._augment

    def counting(start, rows, *rest):
        scanned = []
        found = augment(start, _ScannedRows(rows, scanned), *rest)
        searches.append((not any(rows[start]), sum(not any(row) for row in scanned)))
        return found
    monkeypatch.setattr(assignment, "_augment", counting)

    for seed in (0, 3):
        rng = np.random.default_rng(seed)
        fleet = [make_worker(f"w{i:02d}", ("cam",) if i % 2 else (),
                             *rng.uniform(0.1, 0.8, size=4).tolist()) for i in range(40)]
        needs_camera = set(rng.choice(20, size=4, replace=False).tolist())
        specs = [make_service(f"s{j:02d}", float(rng.uniform(5.0, 95.0)),
                              ("cam",) if j in needs_camera else ()) for j in range(20)]
        dependencies = [(f"s{2 * k:02d}", f"s{2 * k + 1:02d}") for k in range(3)]
        prepared = prepare(fleet, make_experiment(specs, dependencies, discount=0.85))
        scaled = prepared.costs.matrix([w.workload for w in fleet]).scaled()
        feasible = prepared.costs.feasible
        selections = [prepared.selections[i ^ (i >> 1)] for i in range(8)]

        pool_searches = []  # per step
        for step in range(len(selections)):
            searches.clear()
            solved = solve_selections(scaled, feasible, selections[:step + 1], prepared.scale_order)
            assert all(visits <= 1 for _, visits in searches)
            pool_searches.append(sum(from_pool for from_pool, _ in searches) - sum(pool_searches))
            returned = max(len(selections[step - 1]) - len(selections[step]), 0) if step else 0
            assert pool_searches[-1] == returned
        assert sum(pool_searches) > 0  # some pooling step returned a column
        for cols, (pairs, cost) in zip(selections, solved):
            reference, reference_cost = assignment.solve(scaled[:, cols], feasible[:, cols])
            assert (len(pairs), cost) == (len(reference), reference_cost) \
                == _scipy_totals(scaled[:, cols], feasible[:, cols])


def test_weights_break_ties_toward_the_most_weight_placed():
    # Small random instances, many with fewer workers than a selection has units or with
    # columns few workers can host, on costs of few values so that optima tie: per
    # selection, the solver's (units, cost) is the exhaustive optimum's, and it places the
    # most weight of any such optimum.
    rng = np.random.default_rng(77)
    tied = encoded = 0
    for _ in range(300):
        workers, columns = int(rng.integers(0, 5)), int(rng.integers(1, 8))
        scaled = rng.integers(0, int(rng.choice([2, 4, 1000])), size=(workers, columns))
        feasible = rng.random((workers, columns)) < rng.uniform(0.2, 1.0)
        weights = rng.integers(1, 5, size=columns).tolist()
        selections = [rng.permutation(columns)[:int(rng.integers(0, columns + 1))].tolist()
                      for _ in range(int(rng.integers(1, 5)))]
        order = rng.permutation(columns).tolist() if rng.random() < 0.5 else None
        encoded += workers == 0 or int(feasible.sum(axis=0).min()) < max(map(len, selections))
        for cols, (pairs, cost) in zip(selections,
                                       solve_selections(scaled, feasible, selections, order, weights)):
            sizes = [weights[c] for c in cols]
            units, least, placed = oracles.best_matching(scaled[:, cols].tolist(),
                                                         feasible[:, cols].tolist(), sizes)
            assert len({w for w, _ in pairs}) == len(pairs)
            assert all(feasible[w, cols[p]] for w, p in pairs)
            assert cost == sum(int(scaled[w, cols[p]]) for w, p in pairs)
            assert (len(pairs), cost) == (units, least)
            assert sum(sizes[p] for _, p in pairs) == max(placed)
            tied += len(placed) > 1
    assert tied > 20 and encoded > 100


def test_services_tie_break_past_int64_runs_on_python_ints(monkeypatch):
    # The encoded costs run on int64 while each round's big M, the sum of its encoded
    # feasible costs plus one, stays below 2**62, and on Python ints from there on.
    widths = []  # (dtype, big M) of every matrix solved

    def recording(matrix, costs, big_m, selections, order=None, weights=None):
        widths.append((matrix.dtype, big_m))
        return solve(matrix, costs, big_m, selections, order, weights)
    solve = assignment.solve_selections
    monkeypatch.setattr(assignment, "solve_selections", recording)

    # Six camera workers for an eight-unit split: weights tie, spread 8 * (2 - 1) + 1.
    rng = np.random.default_rng(9)
    workers = [make_worker(f"w{i:02d}", ("cam",) if i % 2 else (),
                           *rng.uniform(0.1, 0.8, size=4).tolist()) for i in range(12)]
    services = [make_service(f"s{j}", float(rng.uniform(5.0, 95.0)), ("cam",) if j == 4 else ())
                for j in range(8)]
    prepared = prepare(workers, make_experiment(services, [("s0", "s1")], discount=0.85))
    scaled = prepared.costs.matrix([w.workload for w in workers]).scaled()
    feasible = prepared.costs.feasible
    selections = list(prepared.selections)
    weights = [len(members) for members in prepared.member_columns]
    narrow = solve_selections(scaled, feasible, selections, prepared.scale_order, weights)
    # A forced wide encoding, Python ints from the start, solves the same.
    wide = solve_selections(scaled.astype(object), feasible, selections, prepared.scale_order,
                            weights)
    assert wide == narrow
    encoded = scaled * 9 + np.array([max(weights) - weight for weight in weights])
    assert widths == [(np.int64, int(encoded[feasible].sum()) + 1),
                      (object, int(encoded[feasible].sum()) + 1)]
    assert [(len(pairs), cost) for pairs, cost in narrow] \
        == [(outcome.flow_value, outcome.total_cost_scaled)
            for outcome in prepared.allocate_rounds(one_round(workers)).result(0).outcomes]

    # One pool of 200 services on 20 workers: spread 39801 and a big M of about 7.4e15,
    # so int64; at 2**10 times the costs the big M passes 2**62, and the optimum keeps its
    # size and the weight it places, and scales its cost.
    chain = [make_service(f"m{j:03d}", 100.0) for j in range(200)]
    pairs = [(f"m{j:03d}", f"m{j + 1:03d}") for j in range(199)]
    fleet = [make_worker(f"v{i:02d}") for i in range(20)]
    prepared = prepare(fleet, make_experiment(chain, pairs, discount=0.85))
    scaled = prepared.costs.matrix([w.workload for w in fleet]).scaled()
    selections = list(prepared.selections)
    weights = [len(members) for members in prepared.member_columns]
    widths.clear()
    solved = [solve_selections(scaled * factor, prepared.costs.feasible, selections,
                               prepared.scale_order, weights) for factor in (1, 2**10)]
    assert [dtype for dtype, _ in widths] == [np.int64, object]
    assert widths[0][1] < 2**62 <= widths[1][1]
    narrow, wide = ([(len(found), cost * factor, sum(weights[cols[p]] for _, p in found))
                     for cols, (found, cost) in zip(selections, rounds)]
                    for factor, rounds in zip((2**10, 1), solved))
    assert narrow == wide
