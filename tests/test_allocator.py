import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmlab.allocator import (
    AllocationUnit,
    allocate_experiment,
    build_network,
    enumerate_unit_configurations,
    explain,
    prepare,
)
from swarmlab import allocator, costing
from swarmlab.cli import main
from swarmlab.costing import (
    CostMatrix,
    build_capability_matrix,
    build_cost_matrix,
    build_dependency_matrix,
    edge_cost,
    integerize_cost,
)
from swarmlab.definitions import CostWeights
from swarmlab.errors import DuplicateAgent, EmptyProblem, SchemaError, TooManyComponents
from swarmlab.mcmf import solve, verify

import oracles
from factories import (
    make_experiment, make_service, make_worker, make_workload, one_round, random_instance,
)

EQUAL = CostWeights()
SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


def _singles_cost_matrix(workers, services):
    capabilities = build_capability_matrix(workers, services)
    return build_cost_matrix(
        workers, [(s,) for s in services], capabilities,
        {s.name: j for j, s in enumerate(services)}, EQUAL, 0.9)


def _pair_edges(build):
    """The (worker, unit) index pairs that the network joins by an edge."""
    workers = {build.worker_vertex(i): i for i in range(build.num_workers)}
    units = {build.unit_vertex(u): u for u in range(build.num_units)}
    return {(workers[e.u], units[e.v]) for e in build.net.edges if e.u in workers and e.v in units}


def test_build_network_shape():
    workers = [make_worker("w0"), make_worker("w1")]
    services = [make_service("a")]
    build = build_network(_singles_cost_matrix(workers, services))
    # source + 2 workers + 1 unit + sink; 2 source edges + 2 feasible + 1 sink edge
    assert build.net.num_vertices == 5
    assert len(build.net.edges) == 5
    assert _pair_edges(build) == {(0, 0), (1, 0)}


def test_build_network_omits_infeasible_pairs():
    workers = [make_worker("w0", {"cam"}), make_worker("w1")]
    services = [make_service("a", capabilities={"cam"})]
    build = build_network(_singles_cost_matrix(workers, services))
    assert _pair_edges(build) == {(0, 0)}
    assert len(build.net.edges) == 4


def test_enumerate_configurations():
    services = [make_service(f"s{j}") for j in range(4)]

    no_deps = enumerate_unit_configurations(services, build_dependency_matrix(services, []))
    assert no_deps == [tuple(AllocationUnit((f"s{j}",)) for j in range(4))]

    one_pair = enumerate_unit_configurations(
        services, build_dependency_matrix(services, [("s0", "s1")]))
    assert len(one_pair) == 2
    assert AllocationUnit(("s0", "s1")) in one_pair[0]      # pooled variant first
    assert all(not u.is_pool for u in one_pair[1])

    two_pairs = enumerate_unit_configurations(
        services, build_dependency_matrix(services, [("s0", "s1"), ("s2", "s3")]))
    assert len(two_pairs) == 4

    chain = enumerate_unit_configurations(
        services, build_dependency_matrix(services, [("s0", "s1"), ("s1", "s2")]))
    assert len(chain) == 2
    assert AllocationUnit(("s0", "s1", "s2")) in chain[0]


def _reference_configurations(names, edges):
    """Every pool-or-split combination, from a union-find over ``edges``, pooled variant first."""
    parent = list(range(len(names)))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for a, b in edges:
        parent[root(a)] = root(b)
    components = sorted({tuple(j for j in range(len(names)) if root(j) == root(k))
                         for k in range(len(names))})
    configurations = []
    for choice in itertools.product(*([True, False] if len(c) > 1 else [True]
                                      for c in components)):
        groups = [g for c, pooled in zip(components, choice)
                  for g in ([c] if pooled else [(j,) for j in c])]
        configurations.append(tuple(AllocationUnit(tuple(names[j] for j in g))
                                    for g in sorted(groups)))
    return configurations


DEPENDENCY_GRAPHS = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]), max_size=2 * n)))


@settings(max_examples=150, deadline=None)
@given(graph=DEPENDENCY_GRAPHS)
def test_configurations_match_a_reference_enumeration(graph):
    n, edges = graph
    services = [make_service(f"s{j}") for j in range(n)]
    deps = build_dependency_matrix(services, [(f"s{a}", f"s{b}") for a, b in edges])
    configurations = enumerate_unit_configurations(services, deps)
    assert configurations == _reference_configurations([s.name for s in services], edges)
    for units in configurations:
        for unit in units:
            assert unit.label == "+".join(unit.members)
            assert unit.is_pool == (len(unit.members) > 1)


@settings(max_examples=100, deadline=None)
@given(graph=DEPENDENCY_GRAPHS)
def test_configurations_share_one_unit_per_group(graph):
    n, edges = graph
    services = [make_service(f"s{j}") for j in range(n)]
    deps = build_dependency_matrix(services, [(f"s{a}", f"s{b}") for a, b in edges])
    units = [unit for config in enumerate_unit_configurations(services, deps) for unit in config]
    by_members = {}
    for unit in units:
        assert by_members.setdefault(unit.members, unit) is unit
    # Every single service, and every pooled component.
    assert len(by_members) == n + sum(len(m) > 1 for m in by_members)


@st.composite
def pooled_graphs(draw):
    """A service count and dependency index pairs: 0 to 13 components of 2 to 4 services,
    each a chain or a cycle, among single services, in a shuffled service order, with
    repeated and reversed pairs, in any order."""
    sizes = draw(st.lists(st.integers(2, 4), max_size=13))
    n = sum(sizes) + draw(st.integers(0 if sizes else 1, 4))
    order = draw(st.permutations(range(n)))
    pairs, start = [], 0
    for size in sizes:
        members, start = order[start:start + size], start + size
        pairs += zip(members, members[1:])
        if size > 2 and draw(st.booleans()):
            pairs.append((members[-1], members[0]))
    again = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    pairs += [(b, a) if draw(st.booleans()) else (a, b) for a, b in again]
    return n, draw(st.permutations(pairs))


def _sharing(configurations):
    """Each unit's position among the distinct unit objects, in order of first appearance."""
    first_seen = {}
    return [[first_seen.setdefault(id(unit), len(first_seen)) for unit in units]
            for units in configurations]


@settings(max_examples=100, deadline=None)
@given(graph=pooled_graphs())
@example(graph=(24, [(2 * k, 2 * k + 1) for k in range(12)]))  # at the bound: 4096
@example(graph=(26, [(2 * k + 1, 2 * k) for k in range(13)]))  # past it: 8192
def test_prepared_configurations_equal_the_matrix_view(graph):
    n, pairs = graph
    services = [make_service(f"s{j:02d}") for j in range(n)]
    named = [(services[a].name, services[b].name) for a, b in pairs]
    experiment, workers = make_experiment(services, named), [make_worker("w0")]
    try:
        expected = tuple(enumerate_unit_configurations(
            services, build_dependency_matrix(services, named)))
    except TooManyComponents as exc:
        with pytest.raises(TooManyComponents, match=f"^{re.escape(str(exc))}$"):
            prepare(workers, experiment)
        return
    configurations = prepare(workers, experiment).configurations
    assert configurations == expected
    assert _sharing(configurations) == _sharing(expected)


def test_prepare_builds_no_dependency_matrix(monkeypatch, capsys):
    argv = ["allocate", "--edf", str(SAMPLES / "mapping-demo.edf.json"),
            "--cluster", str(SAMPLES / "bench.cluster.json"), "--seed", "7"]
    workers = [make_worker("w0", cpu=0.2), make_worker("w1", swap=0.5), make_worker("w2")]
    experiment = make_experiment(
        [make_service("a", 40.0), make_service("b", 10.0), make_service("c")], [("a", "b")])

    def outputs():
        return main(argv), capsys.readouterr(), explain(allocate_experiment(workers, experiment))
    expected = outputs()

    def refuse(*_):
        raise AssertionError("the matrix path was reached")
    monkeypatch.setattr(costing, "build_dependency_matrix", refuse)
    monkeypatch.setattr(allocator, "enumerate_unit_configurations", refuse)
    assert outputs() == expected
    assert expected[0] == 0 and expected[1].err == ""
    assert "Configurations (2 tried" in expected[2]


def test_allocation_unit_label_keeps_value_semantics():
    unit, twin = AllocationUnit(("a", "b")), AllocationUnit(("a", "b"))
    assert unit.label == "a+b" and unit.label == "a+b"
    assert unit == twin and hash(unit) == hash(twin) == hash(AllocationUnit(("a", "b")))
    assert repr(unit) == repr(twin) == "AllocationUnit(members=('a', 'b'))"
    assert unit != AllocationUnit(("b", "a")) and AllocationUnit(("a",)).label == "a"
    with pytest.raises(dataclasses.FrozenInstanceError):
        unit.members = ("c",)


def test_configuration_bound(monkeypatch):
    monkeypatch.setattr(allocator, "MAX_CONFIGURATIONS", 4)
    services = [make_service(f"s{j}") for j in range(6)]
    deps = build_dependency_matrix(services, [("s0", "s1"), ("s2", "s3"), ("s4", "s5")])
    assert len(enumerate_unit_configurations(services[:4], deps[:4, :4])) == 4
    with pytest.raises(TooManyComponents, match=r"yield 8 configurations \(bound 4\)"):
        enumerate_unit_configurations(services, deps)


def test_single_worker_pool_wins():
    workers = [make_worker("w0")]
    services = [make_service("a", 40.0), make_service("b", 20.0)]
    result = allocate_experiment(workers, make_experiment(services, [("a", "b")]))
    assert result.feasible
    assert result.assignments["a"].worker == "w0"
    assert result.assignments["b"].worker == "w0"
    assert result.assignments["a"].unit.is_pool
    assert len(result.outcomes) == 2


def test_infeasible_when_nothing_is_hostable():
    workers = [make_worker("w0"), make_worker("w1")]
    services = [make_service("a", capabilities={"gpu"}), make_service("b", capabilities={"gpu"})]
    result = allocate_experiment(workers, make_experiment(services))
    assert not result.feasible
    assert result.unassigned == {"a", "b"}
    assert result.assignments == {}
    assert result.total_cost == 0.0


def test_empty_problem():
    with pytest.raises(EmptyProblem, match="at least one worker"):
        allocate_experiment([], make_experiment([make_service("a")]))
    with pytest.raises(SchemaError, match="at least one service"):
        allocate_experiment([make_worker("w0")], make_experiment([]))


def test_experiment_refuses_bad_parts_before_anything_is_prepared(monkeypatch):
    # What the five-part entry points once took unchecked: a negative discount (a total
    # cost of -8.59375), a NaN discount (a cast warning and a cost of about -9.2e12) and
    # a repeated service name (placed and unassigned at once).
    def refuse(*_):
        raise AssertionError("prepare reached")
    monkeypatch.setattr(allocator, "prepare", refuse)
    workers = [make_worker("w0", cpu=0.2), make_worker("w1", swap=0.5)]
    pair = [make_service("a", 40.0), make_service("b", 10.0)]
    for services, deps, discount, message in (
            (pair, [("a", "b")], -1.0, r"pool_discount: pool_discount must be within \(0, 1\], got -1.0"),
            (pair, [("a", "b")], float("nan"), r"pool_discount must be within \(0, 1\], got nan"),
            ([make_service("a"), make_service("a"), make_service("b")], [], 0.9,
             "services: duplicate service names: a")):
        with pytest.raises(SchemaError, match=message):
            allocator.allocate_experiment(workers, make_experiment(services, deps, EQUAL, discount))


def test_prepare_refuses_a_repeated_worker_id(monkeypatch):
    def refuse(*_):
        raise AssertionError("built")
    monkeypatch.setattr(allocator, "_columns", refuse)
    monkeypatch.setattr(costing, "build_capability_matrix", refuse)
    workers = [make_worker("w1"), make_worker("w2", cpu=0.5), make_worker("w1", cpu=0.9)]
    with pytest.raises(DuplicateAgent, match="^agent 'w1' appears twice in the fleet$"):
        allocate_experiment(workers, make_experiment([make_service("a"), make_service("b")]))


def test_twelve_workers_six_services_all_distinct():
    rng = np.random.default_rng(5)
    workers = [
        make_worker(f"w{i:02d}", cpu=rng.uniform(0.2, 0.4), vram=rng.uniform(0.2, 0.4),
                    swap=rng.uniform(0, 0.2), bandwidth=rng.uniform(0.2, 0.4))
        for i in range(12)
    ]
    services = [make_service(f"s{j}", base_cost=float(rng.uniform(20, 70))) for j in range(6)]
    result = allocate_experiment(workers, make_experiment(services))
    assert result.feasible
    assigned_workers = [a.worker for a in result.assignments.values()]
    assert len(set(assigned_workers)) == 6

    # 12 permute 6 is too big to enumerate; an independent Hungarian solver
    # on the same integerized grid serves as the optimality oracle here
    from scipy.optimize import linear_sum_assignment
    matrix = np.array([[integerize_cost(edge_cost(s.predefined_cost, w.workload, EQUAL))
                        for s in services] for w in workers])
    rows, cols = linear_sum_assignment(matrix)
    assert result.total_cost_scaled == int(matrix[rows, cols].sum())


def test_optimality_against_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(120):
        workers, services, deps, weights, discount = random_instance(rng)
        result = allocate_experiment(workers, make_experiment(services, deps, weights, discount))

        dep_indices = [(next(j for j, s in enumerate(services) if s.name == a),
                        next(j for j, s in enumerate(services) if s.name == b))
                       for a, b in deps]
        configs = oracles.configurations_of(len(services), dep_indices)
        assert len(configs) == len(result.outcomes)

        for config, outcome in zip(configs, result.outcomes):
            match = [tuple(u.members) for u in outcome.units]
            named = [tuple(services[j].name for j in group) for group in config]
            assert match == named

            int_costs, feasible, sizes = _oracle_matrices(workers, services, config,
                                                          weights, discount)
            best_units, best_cost, services_counts = oracles.best_matching(
                int_costs, feasible, sizes)
            assert outcome.flow_value == best_units
            assert outcome.total_cost_scaled == best_cost
            assert outcome.services_assigned in services_counts


def _oracle_matrices(workers, services, config, weights, discount):
    """Independent cost/feasibility matrices for one unit configuration."""
    int_costs = []
    feasible = []
    for worker in workers:
        cost_row = []
        ok_row = []
        for group in config:
            members = [services[j] for j in group]
            hostable = all(m.required_capabilities <= worker.profile.capabilities
                           for m in members)
            ok_row.append(hostable)
            if not hostable:
                cost_row.append(0)
                continue
            total = sum(edge_cost(m.predefined_cost, worker.workload, weights)
                        for m in members)
            if len(members) > 1:
                total *= discount
            cost_row.append(integerize_cost(total))
        int_costs.append(cost_row)
        feasible.append(ok_row)
    sizes = [len(group) for group in config]
    return int_costs, feasible, sizes


def test_one_cost_matrix_per_allocation(monkeypatch):
    # UnitCosts.block is the costing entry point of a block of rounds, one round
    # here; UnitCosts.matrix (build_cost_matrix's one round of float costs) is not
    # called beside it.
    calls = {"matrix": 0, "block": 0, "scaled": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(costing.UnitCosts, "matrix")
    counted(costing.UnitCosts, "block")
    counted(CostMatrix, "scaled")
    workers = [make_worker(f"w{i}", cpu=0.05 * i, bandwidth=0.5) for i in range(8)]
    services = [make_service(f"s{j}", 10.0 + 5 * j) for j in range(6)]
    result = allocate_experiment(
        workers, make_experiment(services, [("s0", "s1"), ("s2", "s3"), ("s5", "s4")]))
    assert len(result.outcomes) == 8
    # The block integerizes its costs itself; CostMatrix.scaled serves build_cost_matrix only.
    assert calls == {"matrix": 0, "block": 1, "scaled": 0}


def test_prepared_allocation_serves_many_rounds():
    rng = np.random.default_rng(73)
    for _ in range(60):
        workers, services, deps, weights, discount = random_instance(rng)
        experiment = make_experiment(services, deps, weights, discount)
        prepared = prepare(workers, experiment)
        rounds = [[dataclasses.replace(w, workload=make_workload(*rng.random(4).tolist()))
                   for w in workers] for _ in range(3)]
        first = [prepared.allocate_rounds(one_round(r))[0] for r in rounds]
        # No state leaks between rounds.
        again = [prepared.allocate_rounds(one_round(r))[0] for r in reversed(rounds)][::-1]
        assert first == again == [allocate_experiment(r, experiment) for r in rounds]
        assert prepared.allocate_rounds([row for r in rounds for row in one_round(r)]) == first
        assert prepared.allocate_rounds([]) == []  # an empty block has no rounds to place


def test_placement_costs_equal_scalar_reference():
    rng = np.random.default_rng(61)
    pooled = 0
    for _ in range(300):
        workers, services, deps, weights, discount = random_instance(rng)
        result = allocate_experiment(workers, make_experiment(services, deps, weights, discount))
        by_id = {w.id: w for w in workers}
        by_name = {s.name: s for s in services}
        for name, placed in result.assignments.items():
            expected = edge_cost(by_name[name].predefined_cost, by_id[placed.worker].workload, weights)
            if placed.unit.is_pool:
                expected *= discount
                pooled += 1
            assert placed.cost == expected
    assert pooled > 0


def test_worker_exclusivity_and_pool_consistency():
    rng = np.random.default_rng(77)
    for _ in range(150):
        workers, services, deps, weights, discount = random_instance(rng)
        result = allocate_experiment(workers, make_experiment(services, deps, weights, discount))
        workers_per_unit = {}
        for assignment in result.assignments.values():
            workers_per_unit.setdefault(assignment.unit, set()).add(assignment.worker)
        # every pool lands on exactly one worker
        assert all(len(ws) == 1 for ws in workers_per_unit.values())
        # no worker hosts two units
        hosts = [next(iter(ws)) for ws in workers_per_unit.values()]
        assert len(hosts) == len(set(hosts))


def test_adding_a_worker_never_hurts():
    rng = np.random.default_rng(31)
    for _ in range(100):
        workers, services, deps, weights, discount = random_instance(rng)
        experiment = make_experiment(services, deps, weights, discount)
        before = len(allocate_experiment(workers, experiment).assignments)
        extra = make_worker("extra", {f"t{j}" for j in range(len(services))
                                      if rng.random() < 0.7})
        after = len(allocate_experiment(workers + [extra], experiment).assignments)
        assert after >= before


def test_solver_outputs_verify_clean():
    rng = np.random.default_rng(13)
    for _ in range(60):
        workers, services, deps, weights, discount = random_instance(rng)
        capabilities = build_capability_matrix(workers, services)
        deps_matrix = build_dependency_matrix(services, deps)
        index = {s.name: j for j, s in enumerate(services)}
        by_name = {s.name: s for s in services}
        for units in enumerate_unit_configurations(services, deps_matrix):
            members = [tuple(by_name[n] for n in u.members) for u in units]
            costs = build_cost_matrix(workers, members, capabilities, index, weights, discount)
            build = build_network(costs)
            assert verify(build.net, solve(build.net)) == []


def test_explain_formats():
    workers = [make_worker("w0", cpu=0.2, swap=0.1, bandwidth=0.4),
               make_worker("w1", cpu=0.4, swap=0.3, bandwidth=0.4)]
    services = [make_service("camera", 30.0), make_service("mapper", 60.0)]
    result = allocate_experiment(workers, make_experiment(services, [("mapper", "camera")]))
    report = explain(result)
    assert report.count("\n") >= 6
    assert "Allocation: FEASIBLE (2/2 services assigned)" in report
    assert "Configurations (2 tried" in report

    impossible = allocate_experiment(
        workers, make_experiment([make_service("gpuish", capabilities={"gpu"})]))
    report = explain(impossible)
    assert "INFEASIBLE" in report
    assert "Unassigned: gpuish" in report


def test_explain_golden():
    workers = [make_worker("w0", cpu=0.2), make_worker("w1", swap=0.5)]
    services = [make_service("a", 40.0), make_service("b", 10.0)]
    result = allocate_experiment(workers, make_experiment(services))
    from pathlib import Path
    golden = Path(__file__).parent / "fixtures" / "explain_two_workers.txt"
    assert explain(result) == golden.read_text(encoding="utf-8")


def test_allocate_experiment_uses_spec_knobs():
    from factories import bench_experiment
    experiment = bench_experiment(3, dependencies=(("svc01", "svc02"),))
    workers = [make_worker(f"w{i}", swap=0.1 * i) for i in range(4)]
    result = allocate_experiment(workers, experiment)
    assert result.feasible
    assert len(result.outcomes) == 2


def test_results_compare_by_placement_costs_and_scores():
    workers = [make_worker("w0", cpu=0.2), make_worker("w1", swap=0.5), make_worker("w2", cpu=0.9)]
    experiment = make_experiment([make_service("a", 40.0), make_service("b", 10.0),
                                  make_service("c", 25.0)], [("a", "b")])
    first, second = prepare(workers, experiment), prepare(workers, experiment)
    # A prepared allocation compares by identity: its cost arrays do not compare with ==.
    assert first != second and first == first
    [result] = first.allocate_rounds(one_round(workers))
    [same] = second.allocate_rounds(one_round(workers))
    assert result == same and not result != same
    assert result.feasible

    def changed(**fields):
        return dataclasses.replace(result, **fields)
    other_worker = [(w + 1) % len(workers) for w in result.workers]
    other_cost = [result.costs[0] + 1.0, *result.costs[1:]]
    other_scores = list(result.scores)  # an unchosen configuration's cost differs
    matched, assigned, cost = other_scores[1 - result.chosen]
    other_scores[1 - result.chosen] = (matched, assigned, cost + 1)
    for different in (changed(workers=other_worker), changed(workers=[-1, *result.workers[1:]]),
                       changed(costs=other_cost), changed(scores=other_scores),
                       changed(chosen=1 - result.chosen)):
        assert different != result
    # The same positions over another fleet place other names.
    renamed = [dataclasses.replace(w, id=f"x{i}") for i, w in enumerate(workers)]
    assert changed(allocation=prepare(renamed, experiment)) != result
    assert result != object() and result != None  # noqa: E711


def test_result_views_are_built_from_positions():
    workers = [make_worker("w0", cpu=0.2), make_worker("w1", swap=0.5)]
    experiment = make_experiment([make_service("a", 40.0), make_service("b", 10.0),
                                  make_service("cam", capabilities={"camera"})], [("a", "b")])
    [result] = prepare(workers, experiment).allocate_rounds(one_round(workers))
    assert result.workers[2] == -1 and result.costs[2] == 0.0
    assert (result.feasible, result.num_services, result.unassigned) == (False, 3, frozenset({"cam"}))
    assert list(result.assignments) == ["a", "b"]
    for j, (name, placed) in enumerate(result.assignments.items()):
        assert (placed.service, placed.worker, placed.cost) == (name, workers[result.workers[j]].id,
                                                                result.costs[j])
    outcomes = result.outcomes
    assert [o.chosen for o in outcomes] == [i == result.chosen for i in range(2)]
    assert tuple((o.flow_value, o.services_assigned, o.total_cost_scaled) for o in outcomes) == result.scores
    assert result.total_cost_scaled == result.scores[result.chosen][2]
    assert result.total_cost == result.total_cost_scaled / costing.COST_SCALE
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.chosen = 0
    # Positions past the allocation are refused: the fold and the views would read them as they are.
    for fields in ({"workers": [0, 2, -1]}, {"workers": [0, -2, -1]}, {"workers": [0, 1]},
                   {"costs": [1.0, 2.0]}, {"chosen": 2}, {"chosen": -1}, {"scores": result.scores[:1]}):
        with pytest.raises(ValueError, match="positions must index its allocation"):
            dataclasses.replace(result, **fields)
    with pytest.raises(AttributeError):
        result.assignments = {}


def test_scale_order_sums_a_pool_left_to_right():
    # Left to right, 0.1 + 0.2 + 0.3 is 0.6000000000000001, and times 0.9 the pool's scale
    # is 0.5400000000000001, above the single service's 0.54. A compensated sum (the
    # builtin sum from Python 3.12) gives 0.54 for both, and the tie would keep the
    # service's column first.
    services = [make_service(name, cost) for name, cost in
                (("p", 0.1), ("q", 0.2), ("r", 0.3), ("s", 0.54))]
    prepared = prepare([make_worker("w")], make_experiment(services, [("p", "q"), ("q", "r")], discount=0.9))
    assert prepared.member_columns[4] == (0, 1, 2)
    assert prepared.scale_order == (4, 3, 2, 1, 0)
