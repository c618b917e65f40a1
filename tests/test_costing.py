import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarmlab import costing
from swarmlab.costing import (
    COST_SCALE,
    CostMatrix,
    bandwidth_cost,
    build_capability_matrix,
    build_cost_matrix,
    build_dependency_matrix,
    cpu_cost,
    edge_cost,
    integer_grid,
    integerize_cost,
    pooled_capability,
    pooled_cost,
    prepare_unit_costs,
    swap_cost,
    vram_cost,
)
from swarmlab.definitions import CostWeights
from swarmlab.errors import DomainError, PoolTooSmall

from factories import make_service, make_worker, make_workload

EQUAL = CostWeights()

loads = st.floats(0, 1, allow_nan=False)
base_costs = st.floats(0, 100, allow_nan=False)


@pytest.mark.parametrize("fn,base,load,expected", [
    (cpu_cost, 100, 0.5, 6.25),
    (cpu_cost, 100, 0.0, 0.0),
    (cpu_cost, 73.5, 0.0, 0.0),
    (cpu_cost, 100, 1.0, 100.0),
    (vram_cost, 50, 0.5, 3.125),
    (vram_cost, 0, 0.7, 0.0),
    (swap_cost, 100, 0.25, 25.0),
    (swap_cost, 100, 1.0, 100.0),
    (bandwidth_cost, 100, 1.0, 0.0),
    (bandwidth_cost, 100, 0.0, 100.0),
    (bandwidth_cost, 100, 0.5, 6.25),
])
def test_resource_cost_values(fn, base, load, expected):
    assert fn(base, load) == pytest.approx(expected, abs=1e-12)


@given(base_costs, loads)
def test_cpu_and_vram_agree(base, load):
    assert cpu_cost(base, load) == vram_cost(base, load)


def test_float_power_is_python_power_bit_for_bit():
    # UnitCosts.block takes the quartic load terms with np.float_power, the scalar
    # functions with Python's **; the golden files hold only while the two agree on
    # every double in [0, 1], and on 1 - x for the bandwidth term.
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, -0.0, 1.0, 5e-324, 1e-310, tiny / 2, tiny, np.nextafter(1.0, 0.0)]
    xs = np.concatenate([edges, np.random.default_rng(20240601).random(10**6)])
    for values in (xs, 1.0 - xs):
        powered = np.float_power(values, 4.0)
        expected = np.array([x ** 4 for x in values.tolist()], dtype=np.float64)
        assert powered.dtype == np.float64
        assert np.array_equal(powered.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("fn", [cpu_cost, vram_cost, swap_cost, bandwidth_cost])
@pytest.mark.parametrize("base,load", [(-1, 0.5), (101, 0.5), (50, -0.1), (50, 1.1),
                                       (float("nan"), 0.5), (50, float("inf"))])
def test_resource_cost_domain_errors(fn, base, load):
    with pytest.raises(DomainError):
        fn(base, load)


@given(base_costs, loads)
def test_costs_stay_in_range(base, load):
    for fn in (cpu_cost, vram_cost, swap_cost, bandwidth_cost):
        assert 0.0 <= fn(base, load) <= 100.0


@given(st.floats(0, 2, allow_nan=False), st.floats(0, 50, allow_nan=False), loads)
def test_costs_are_linear_in_base_cost(factor, base, load):
    for fn in (cpu_cost, vram_cost, swap_cost, bandwidth_cost):
        assert fn(factor * base, load) == pytest.approx(factor * fn(base, load), abs=1e-9)


def test_monotonicity_over_load_grid():
    grid = np.linspace(0, 1, 101)
    for fn in (cpu_cost, vram_cost, swap_cost):
        values = [fn(80.0, x) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
    # the bandwidth term falls as measured utilization rises
    values = [bandwidth_cost(80.0, x) for x in grid]
    assert all(b <= a for a, b in zip(values, values[1:]))


@given(loads)
def test_swap_rises_before_cpu(load):
    assert swap_cost(100.0, load) >= cpu_cost(100.0, load)
    if 0.0 < load < 1.0:
        assert swap_cost(100.0, load) > cpu_cost(100.0, load)


def test_edge_cost_hand_computed():
    workload = make_workload(0.5, 0.5, 0.5, 0.5)
    by_hand = 0.25 * (100 * 0.5**4 + 100 * 0.5**4 + 100 * 0.5 + 100 * (1 - 0.5) ** 4)
    assert by_hand == 17.1875
    assert edge_cost(100.0, workload, EQUAL) == pytest.approx(17.1875, abs=1e-12)


def test_edge_cost_zero_and_upper_bound():
    assert edge_cost(100.0, make_workload(0, 0, 0, 1), EQUAL) == 0.0
    # every term saturates at 100: full cpu/vram/swap load, idle link
    assert edge_cost(100.0, make_workload(1, 1, 1, 0), EQUAL) == pytest.approx(100.0, abs=1e-12)


@given(base_costs, loads, loads, loads, loads)
def test_edge_cost_within_range(base, a, b, c, d):
    assert 0.0 <= edge_cost(base, make_workload(a, b, c, d), EQUAL) <= 100.0


def test_pooled_cost_discount():
    workload = make_workload(0, 0, 0.2, 1)  # swap term only: cost = base * 0.2 / 4
    members = [make_service("a", 100.0), make_service("b", 100.0)]
    single = edge_cost(100.0, workload, EQUAL)
    assert pooled_cost(members, workload, EQUAL, 0.9) == pytest.approx(0.9 * 2 * single)
    assert pooled_cost(members, workload, EQUAL, 1.0) == pytest.approx(2 * single)


def test_cost_matrix_refuses_the_discounts_pooled_cost_refuses(monkeypatch):
    workers = [make_worker("w0", cpu=0.3), make_worker("w1", swap=0.4), make_worker("w2")]
    members = [make_service("a", 40.0), make_service("b", 20.0)]
    units = [members[:1], members[1:], members]
    capabilities = build_capability_matrix(workers, members)
    index = {"a": 0, "b": 1}
    for discount in (-1.0, 0.0, 1.5, float("nan"), float("inf")):
        with pytest.raises(DomainError) as scalar:
            pooled_cost(members, workers[0].workload, EQUAL, discount)
        with pytest.raises(DomainError) as matrix:
            build_cost_matrix(workers, units, capabilities, index, EQUAL, discount)
        with pytest.raises(DomainError) as prepared:
            prepare_unit_costs(units, capabilities, index, EQUAL, discount)
        assert str(matrix.value) == str(prepared.value) == str(scalar.value) \
            == f"discount must be within (0, 1], got {discount!r}"

    checks = []
    check = costing._check_discount
    monkeypatch.setattr(costing, "_check_discount", lambda d: checks.append(d) or check(d))
    for discount in (0.9, 1.0):
        matrix = build_cost_matrix(workers, units, capabilities, index, EQUAL, discount)
        assert checks == [discount]  # once a call, not once a cell
        assert matrix.values[0, 2] == pooled_cost(members, workers[0].workload, EQUAL, discount)
        checks.clear()


def test_pooled_cost_requires_two_members():
    with pytest.raises(PoolTooSmall):
        pooled_cost([make_service("a")], make_workload(), EQUAL, 0.9)
    with pytest.raises(DomainError):
        pooled_cost([make_service("a"), make_service("b")], make_workload(), EQUAL, 0.0)


@given(st.lists(base_costs, min_size=2, max_size=5), loads, st.floats(0.01, 1.0, allow_nan=False))
def test_pool_never_costs_more_than_members(costs, load, discount):
    members = [make_service(f"s{i}", c) for i, c in enumerate(costs)]
    workload = make_workload(load, load, load, load)
    total = sum(edge_cost(c, workload, EQUAL) for c in costs)
    assert pooled_cost(members, workload, EQUAL, discount) <= total + 1e-9


def test_capability_matrix_against_subset_oracle():
    workers = [
        make_worker("w0", {"camera", "gpu"}),
        make_worker("w1", {"camera"}),
        make_worker("w2", set()),
    ]
    services = [make_service("s0", capabilities={"camera"}),
                make_service("s1", capabilities={"gpu", "camera"})]
    matrix = build_capability_matrix(workers, services)
    for i, worker in enumerate(workers):
        for j, service in enumerate(services):
            expected = service.required_capabilities <= worker.profile.capabilities
            assert matrix[i, j] == expected


def test_capability_matrix_trivial_columns():
    workers = [make_worker(f"w{i}") for i in range(3)]
    no_needs = build_capability_matrix(workers, [make_service("s")])
    assert no_needs.all()
    needs_gpu = build_capability_matrix(workers, [make_service("s", capabilities={"gpu"})])
    assert not needs_gpu.any()


def test_pooled_capability_is_conjunction():
    workers = [make_worker("w0", {"a", "b"}), make_worker("w1", {"a"})]
    services = [make_service("s0", capabilities={"a"}), make_service("s1", capabilities={"b"})]
    matrix = build_capability_matrix(workers, services)
    assert pooled_capability(matrix, 0, [0, 1]) is True
    assert pooled_capability(matrix, 1, [0, 1]) is False
    assert pooled_capability(matrix, 1, [0]) is True  # singleton equals the plain entry


def test_dependency_matrix():
    services = [make_service(f"s{j}") for j in range(3)]
    matrix = build_dependency_matrix(services, [("s1", "s0")])
    assert matrix[1, 0] == 1
    assert matrix.sum() == 1
    assert not matrix.diagonal().any()
    with pytest.raises(DomainError):
        build_dependency_matrix(services, [("s0", "s0")])
    with pytest.raises(DomainError):
        build_dependency_matrix(services, [("s0", "ghost")])


def test_integerize_rounds_half_to_even():
    assert integerize_cost(2.5 / COST_SCALE) == 2
    assert integerize_cost(3.5 / COST_SCALE) == 4
    assert integerize_cost(17.1875) == 17187500
    with pytest.raises(DomainError):
        integerize_cost(-1e-9)
    # The array grid rounds as integerize_cost does, cell by cell, as int64.
    values = np.array([[2.5, 3.5], [17.1875 * COST_SCALE, 0.0]]) / COST_SCALE
    grid = integer_grid(values)
    assert grid.dtype == np.int64
    assert grid.tolist() == [[2, 4], [17187500, 0]] \
        == [[integerize_cost(value) for value in row] for row in values.tolist()]
    assert CostMatrix(values=values, feasible=np.ones((2, 2), dtype=bool)).scaled().tolist() \
        == grid.tolist()


def test_cost_matrix_masks_infeasible_pairs():
    workers = [make_worker("w0", {"cam"}, swap=0.4), make_worker("w1", set(), swap=0.2)]
    services = [make_service("a", 80.0, capabilities={"cam"}), make_service("b", 40.0)]
    matrix = build_cost_matrix(
        workers, [(services[0],), (services[1],)],
        build_capability_matrix(workers, services),
        {"a": 0, "b": 1}, EQUAL, 0.9)
    assert matrix.feasible.tolist() == [[True, True], [False, True]]
    assert matrix.values[1, 0] == 0.0
    assert matrix.scaled()[0, 0] == integerize_cost(edge_cost(80.0, workers[0].workload, EQUAL))


def _random_costing_case(rng):
    """Workers, units and parameters with the edge cases the matrix build must keep."""
    def load():
        return float(rng.choice([0.0, 1.0, rng.random()], p=[0.2, 0.2, 0.6]))

    num_workers = int(rng.integers(1, 7))
    workers = [make_worker(f"w{i}", {f"t{k}" for k in range(3) if rng.random() < 0.7},
                           load(), load(), load(), load())
               for i in range(num_workers)]
    services = []
    for j in range(int(rng.integers(1, 8))):
        base = float(rng.choice([0.0, 100.0, rng.uniform(0.0, 100.0)], p=[0.1, 0.1, 0.8]))
        tags = {f"t{k}" for k in range(3) if rng.random() < 0.3}
        if rng.random() < 0.1:
            tags = {"absent"}  # no worker holds it: an all-infeasible column
        services.append(make_service(f"s{j}", base, capabilities=tags))
    # Split the services into units: singles and pools of 2 or more, in random order.
    order = [services[j] for j in rng.permutation(len(services))]
    units = []
    while order:
        size = int(rng.integers(2, 5)) if len(order) >= 2 and rng.random() < 0.5 else 1
        units.append(tuple(order[:size]))
        order = order[size:]
    raw = rng.random(4) * (rng.random(4) < 0.8)
    weights = CostWeights(*(raw / raw.sum()).tolist()) if raw.sum() > 0 else EQUAL
    discount = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.0))
    return workers, services, units, weights, discount


def test_cost_matrix_equals_scalar_reference_exactly():
    rng = np.random.default_rng(20261018)
    seen = {"pool": 0, "infeasible column": 0, "discount 1": 0}
    for _ in range(600):
        workers, services, units, weights, discount = _random_costing_case(rng)
        capabilities = build_capability_matrix(workers, services)
        index = {s.name: j for j, s in enumerate(services)}
        matrix = build_cost_matrix(workers, units, capabilities, index, weights, discount)
        scaled = matrix.scaled()
        assert matrix.values.shape == scaled.shape == (len(workers), len(units))
        for u, members in enumerate(units):
            cols = [index[m.name] for m in members]
            for i, worker in enumerate(workers):
                feasible = pooled_capability(capabilities, i, cols)
                assert matrix.feasible[i, u] == feasible
                if not feasible:
                    assert matrix.values[i, u] == 0.0 and scaled[i, u] == 0
                    continue
                if len(members) == 1:
                    expected = edge_cost(members[0].predefined_cost, worker.workload, weights)
                else:
                    expected = pooled_cost(members, worker.workload, weights, discount)
                assert matrix.values[i, u] == expected  # float equality, not approx
                assert scaled[i, u] == integerize_cost(expected)
            seen["pool"] += len(members) > 1
            seen["infeasible column"] += not matrix.feasible[:, u].any()
        seen["discount 1"] += discount == 1.0
    assert all(count > 0 for count in seen.values()), seen


def test_scaled_rejects_negative_costs():
    matrix = CostMatrix(values=np.array([[1.0, -0.5]]), feasible=np.array([[True, True]]))
    with pytest.raises(DomainError):
        matrix.scaled()
