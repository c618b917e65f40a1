"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import string
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from swarmlab import assignment
from swarmlab.allocator import allocate_experiment, build_network, enumerate_unit_configurations
from swarmlab.cli import main
from swarmlab.costing import (
    bandwidth_cost,
    build_capability_matrix,
    build_cost_matrix,
    build_dependency_matrix,
    cpu_cost,
    edge_cost,
    integerize_cost,
    swap_cost,
    vram_cost,
)
from swarmlab.definitions import (
    ClusterSpec,
    CostWeights,
    ExperimentSpec,
    MountVolume,
    ServiceSpec,
    parse_cdf,
    parse_cluster,
    parse_edf,
    serialize_cdf,
    serialize_cluster,
    serialize_edf,
)
from swarmlab.errors import DefinitionSyntaxError, SchemaError, UnresolvedService
from swarmlab.mcmf import FlowResult, solve, verify
from swarmlab.metrics import ReportFold
from swarmlab.swarmsim import SimConfig, WorkloadGenerator, measure_scaling, run_experiment

import oracles
from factories import balanced_cluster, bench_experiment, make_experiment, random_instance


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_cost_function_exactness():
    with criterion(1, "cost-function exactness"):
        assert abs(cpu_cost(100, 0.5) - 6.25) <= 1e-12
        assert abs(vram_cost(100, 0.5) - 6.25) <= 1e-12
        assert abs(swap_cost(100, 0.25) - 25.0) <= 1e-12
        assert abs(bandwidth_cost(100, 1.0) - 0.0) <= 1e-12


# ---------------------------------------------------------------------------


def _oracle_for_configuration(workers, services, config, weights, discount):
    int_costs, feasible = [], []
    for worker in workers:
        cost_row, ok_row = [], []
        for group in config:
            members = [services[j] for j in group]
            hostable = all(m.required_capabilities <= worker.profile.capabilities
                           for m in members)
            ok_row.append(hostable)
            if not hostable:
                cost_row.append(0)
                continue
            total = sum(edge_cost(m.predefined_cost, worker.workload, weights) for m in members)
            if len(members) > 1:
                total *= discount
            cost_row.append(integerize_cost(total))
        int_costs.append(cost_row)
        feasible.append(ok_row)
    sizes = [len(group) for group in config]
    return oracles.best_matching(int_costs, feasible, sizes)


def _dep_indices(services, deps):
    index = {s.name: j for j, s in enumerate(services)}
    return [(index[a], index[b]) for a, b in deps]


def test_criterion_2_allocator_matches_exhaustive_enumeration():
    with criterion(2, "allocator optimality vs exhaustive oracle, 1000 instances"):
        rng = np.random.default_rng(20240)
        ambiguous = 0
        for _ in range(1000):
            workers, services, deps, weights, discount = random_instance(rng)
            result = allocate_experiment(workers, make_experiment(services, deps, weights, discount))
            configs = oracles.configurations_of(len(services), _dep_indices(services, deps))
            assert len(configs) == len(result.outcomes)

            oracle_services = []
            for config, outcome in zip(configs, result.outcomes):
                best_units, best_cost, services_counts = _oracle_for_configuration(
                    workers, services, config, weights, discount)
                assert outcome.flow_value == best_units
                assert outcome.total_cost_scaled == best_cost        # tolerance 0
                assert outcome.services_assigned in services_counts
                oracle_services.append(services_counts)

            # the kept result follows the documented selection rule
            ranked = min(range(len(result.outcomes)),
                         key=lambda i: (-result.outcomes[i].services_assigned,
                                        result.outcomes[i].total_cost_scaled, i))
            assert result.outcomes[ranked].chosen
            assert result.total_cost_scaled == result.outcomes[ranked].total_cost_scaled
            assert len(result.assignments) == result.outcomes[ranked].services_assigned

            if all(len(counts) == 1 for counts in oracle_services):
                oracle_rank = min(
                    range(len(configs)),
                    key=lambda i: (-next(iter(oracle_services[i])),
                                   result.outcomes[i].total_cost_scaled, i))
                assert result.total_cost_scaled == result.outcomes[oracle_rank].total_cost_scaled
            else:
                ambiguous += 1
        assert ambiguous <= 10  # cost ties are not expected with continuous inputs


# ---------------------------------------------------------------------------


def _matching_as_flow(build, pairs, cost):
    """Unit flow on each matched pair edge and on its source and sink edges."""
    index = {(e.u, e.v): k for k, e in enumerate(build.net.edges)}
    flows = [0] * len(build.net.edges)
    for worker, unit in pairs:
        w, u = build.worker_vertex(worker), build.unit_vertex(unit)
        for edge in ((build.net.source, w), (w, u), (u, build.net.sink)):
            flows[index[edge]] += 1
    return FlowResult(flows=tuple(flows), total_flow=len(pairs), total_cost=cost)


def test_criterion_3_flow_validity_across_randomized_suite():
    with criterion(3, "zero capacity/conservation violations over the suite"):
        rng = np.random.default_rng(20240)  # same instances as criterion 2
        for _ in range(1000):
            workers, services, deps, weights, discount = random_instance(rng)
            capabilities = build_capability_matrix(workers, services)
            matrix = build_dependency_matrix(services, deps)
            index = {s.name: j for j, s in enumerate(services)}
            by_name = {s.name: s for s in services}
            for units in enumerate_unit_configurations(services, matrix):
                members = [tuple(by_name[n] for n in u.members) for u in units]
                costs = build_cost_matrix(workers, members, capabilities, index,
                                          weights, discount)
                build = build_network(costs)
                assert verify(build.net, solve(build.net)) == []

                # the matching the allocator actually uses, as a flow
                reference = solve(build.net)
                pairs, cost = assignment.solve(costs.scaled(), costs.feasible)
                flow = _matching_as_flow(build, pairs, cost)
                assert verify(build.net, flow) == []
                assert (flow.total_flow, flow.total_cost) == (
                    reference.total_flow, reference.total_cost)


# ---------------------------------------------------------------------------


def test_criterion_4_desk_scale_replication():
    with criterion(4, "12 workers x 6 services x 100 iterations replication"):
        seed = 42
        cluster = balanced_cluster(12)
        experiment = bench_experiment(6)
        cfg = SimConfig(workers=cluster, experiment=experiment, seed=seed, iterations=100)
        results = run_experiment(cfg)

        # (a) every iteration feasible
        assert all(result.feasible for result in results)

        weights = experiment.weights
        for iteration, result in enumerate(results):
            workloads = [
                WorkloadGenerator(w.workload, seed, idx).sample(iteration)
                for idx, w in enumerate(cluster)
            ]
            matrix = np.array([
                [integerize_cost(edge_cost(s.predefined_cost, workload, weights))
                 for s in experiment.services]
                for workload in workloads
            ])
            # (b) optimal total on the integerized grid, against Hungarian
            rows, cols = linear_sum_assignment(matrix)
            assert result.total_cost_scaled == int(matrix[rows, cols].sum())

            # (b) services sit on the workers with the lowest load factor
            load_factor = np.array([edge_cost(1.0, workload, weights)
                                    for workload in workloads])
            chosen = {a.worker for a in result.assignments.values()}
            chosen_idx = [i for i, w in enumerate(cluster) if w.id in chosen]
            idle_idx = [i for i, w in enumerate(cluster) if w.id not in chosen]
            assert load_factor[chosen_idx].max() <= load_factor[idle_idx].min() + 1e-12

        # (c) cumulative cost fairness shows the concentration
        fold = ReportFold(results[0].allocation)
        final_jain = [fold.add(result) for result in results][-1][1]
        assert final_jain < 0.75


# ---------------------------------------------------------------------------


def test_criterion_5_scaling_shape():
    with criterion(5, "12x12 scaling grid shape"):
        template = SimConfig(
            workers=balanced_cluster(1),
            experiment=ExperimentSpec(
                name="scaling",
                services=(ServiceSpec(name="svc", entrypoint="run", predefined_cost=50.0),)),
            seed=9,
            parallel_cost_calc=True,
        )
        cells = measure_scaling(range(1, 13), range(1, 13), template)
        grid = np.zeros((12, 12))
        for cell in cells:
            grid[cell.workers - 1, cell.services - 1] = cell.elapsed_ms

        # (a) per fixed worker count: non-decreasing and linear, R^2 >= 0.95
        services_axis = np.arange(1, 13)
        for row in grid:
            assert all(b >= a for a, b in zip(row, row[1:]))
            slope, intercept = np.polyfit(services_axis, row, 1)
            fitted = slope * services_axis + intercept
            ss_res = float(((row - fitted) ** 2).sum())
            ss_tot = float(((row - row.mean()) ** 2).sum())
            assert ss_tot > 0
            assert 1 - ss_res / ss_tot >= 0.95

        # (b) per fixed service count: flat across workers
        for column in grid.T:
            assert column.max() / column.min() <= 1.25


# ---------------------------------------------------------------------------


def test_criterion_6_jain_algebra():
    with criterion(6, "Jain's index algebra"):
        from swarmlab.metrics import jains_index
        for n in range(1, 33):
            assert jains_index([1.0] * n) == 1.0
            assert jains_index([2.5] * n) == 1.0
            for k in range(1, n + 1):
                vector = [1.0] * k + [0.0] * (n - k)
                assert abs(jains_index(vector) - k / n) <= 1e-12


# ---------------------------------------------------------------------------

_ALPHABET = string.ascii_letters + string.digits + "-_./ äöüλ"


def _random_text(rng, low=1, high=12):
    length = int(rng.integers(low, high))
    return "".join(_ALPHABET[int(i)] for i in rng.integers(0, len(_ALPHABET), length))


def _random_service(rng, name=None):
    return ServiceSpec(
        name=name if name is not None else _random_text(rng),
        entrypoint=_random_text(rng),
        predefined_cost=float(rng.uniform(0, 100)),
        base_os=_random_text(rng) if rng.random() < 0.5 else "scratch",
        packages=tuple(_random_text(rng) for _ in range(int(rng.integers(0, 3)))),
        repositories=tuple(_random_text(rng) for _ in range(int(rng.integers(0, 2)))),
        volumes=tuple(MountVolume(_random_text(rng), _random_text(rng))
                      for _ in range(int(rng.integers(0, 2)))),
        required_capabilities=frozenset(_random_text(rng)
                                        for _ in range(int(rng.integers(0, 3)))),
        image_size_mb=float(rng.uniform(0.1, 5000)),
    )


def _random_experiment(rng):
    count = int(rng.integers(1, 5))
    names = []
    while len(names) < count:
        candidate = _random_text(rng)
        if candidate not in names:
            names.append(candidate)
    services = tuple(_random_service(rng, name) for name in names)
    dependencies = []
    if count >= 2:
        for _ in range(int(rng.integers(0, 3))):
            a, b = rng.choice(count, size=2, replace=False)
            dependencies.append((names[int(a)], names[int(b)]))
    raw = rng.random(4) + 0.05
    raw /= raw.sum()
    return ExperimentSpec(
        name=_random_text(rng),
        services=services,
        dependencies=tuple(dependencies),
        weights=CostWeights(*[float(w) for w in raw]),
        pool_discount=float(rng.uniform(0.05, 1.0)),
    )


def test_criterion_7_round_trip_and_fuzz():
    with criterion(7, "parse/serialize identity over 600 specs plus fuzz"):
        rng = np.random.default_rng(555)
        for _ in range(300):
            spec = _random_service(rng)
            assert parse_cdf(serialize_cdf(spec)) == spec
        for _ in range(300):
            experiment = _random_experiment(rng)
            assert parse_edf(serialize_edf(experiment)) == experiment

        allowed = (DefinitionSyntaxError, SchemaError, UnresolvedService)
        junk: list[str] = [
            "", "{", "[", "null", "true", "42", '"text"', "NaN", "Infinity",
            '{"name": 3}', '{"services": {}}', "[" * 100000,
            '{"name": "x", "entrypoint": "run", "predefined_cost": 1e400}',
        ]
        for _ in range(300):
            junk.append(_random_text(rng, 0, 60))
        parse_functions = (parse_cdf, parse_edf, parse_cluster)
        for document in junk:
            for parse in parse_functions:
                try:
                    parse(document)
                except allowed:
                    pass


# ---------------------------------------------------------------------------


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "cmd_simulate byte-identical reruns"):
        edf = tmp_path / "bench.edf.json"
        edf.write_text(serialize_edf(bench_experiment(6)), encoding="utf-8")
        cluster = tmp_path / "bench.cluster.json"
        cluster.write_text(
            serialize_cluster(ClusterSpec(workers=balanced_cluster(12), seed=1)),
            encoding="utf-8")

        flags = ["simulate", "--edf", str(edf), "--cluster", str(cluster),
                 "--iterations", "25", "--seed", "2024"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*flags, "--out-dir", str(first)]) == 0
        assert main([*flags, "--out-dir", str(second)]) == 0

        names = sorted(p.name for p in first.iterdir())
        assert names == ["allocations.csv", "fairness.csv", "summary.json"]
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
