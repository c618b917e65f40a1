import json
from pathlib import Path

import pytest

from swarmlab.definitions import (
    ClusterWorker,
    ExperimentSpec,
    FixedWorkload,
    TraceWorkload,
    UniformWorkload,
)
from swarmlab.errors import DuplicateAgent, EmptyProblem, KeyAbsent, SchemaError
from swarmlab.model import HardwareProfile
from swarmlab.swarmsim import (
    FetchLatency,
    KvRegistry,
    SimConfig,
    WorkloadGenerator,
    grid_to_csv,
    measure_scaling,
    run_experiment,
    run_iteration,
    trace_to_jsonl,
)

from factories import balanced_cluster, bench_experiment, make_service


def bench_config(num_workers=12, num_services=6, seed=42, iterations=1, **kwargs):
    return SimConfig(
        workers=balanced_cluster(num_workers),
        experiment=bench_experiment(num_services),
        seed=seed,
        iterations=iterations,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# workload generators


def test_fixed_generator_is_constant():
    generator = WorkloadGenerator(FixedWorkload((0.1, 0.2, 0.3, 0.4)), seed=1, worker_index=0)
    first, second = generator.sample(0), generator.sample(5)
    assert (first.cpu, first.vram, first.swap, first.bandwidth) == (0.1, 0.2, 0.3, 0.4)
    assert (second.cpu, second.vram, second.swap, second.bandwidth) == (0.1, 0.2, 0.3, 0.4)


def test_uniform_generator_is_deterministic_and_bounded():
    model = UniformWorkload(center=(0.3, 0.3, 0.1, 0.3), half_width=0.1)
    generator = WorkloadGenerator(model, seed=9, worker_index=3)
    again = WorkloadGenerator(model, seed=9, worker_index=3)
    envelope = 0.1 + 0.1 * 0.25 + 1e-12  # half_width plus quarter-width jitter
    for iteration in range(10):
        a = generator.sample(iteration)
        b = again.sample(iteration)
        assert a == b
        for value, center in zip((a.cpu, a.vram, a.swap, a.bandwidth), model.center):
            assert 0.0 <= value <= 1.0
            assert abs(value - center) <= envelope


def test_uniform_generator_keeps_worker_level_persistent():
    model = UniformWorkload(center=(0.5, 0.5, 0.5, 0.5), half_width=0.2)
    generator = WorkloadGenerator(model, seed=3, worker_index=0)
    samples = [generator.sample(k) for k in range(20)]
    spread = max(s.cpu for s in samples) - min(s.cpu for s in samples)
    assert spread <= 2 * 0.2 * 0.25 + 1e-12  # only jitter moves between iterations


def test_distinct_seeds_give_distinct_samples():
    model = UniformWorkload(center=(0.3, 0.3, 0.1, 0.3), half_width=0.1)
    seen = {WorkloadGenerator(model, seed, 0).sample(0).cpu for seed in range(100)}
    assert len(seen) >= 99


def test_trace_generator_cycles(tmp_path):
    trace = tmp_path / "load.csv"
    trace.write_text("# cpu,vram,swap,bandwidth\n0.1,0.2,0.3,0.4\n0.5,0.5,0.5,0.5\n",
                     encoding="utf-8")
    generator = WorkloadGenerator(TraceWorkload("load.csv"), seed=0, worker_index=0,
                                  base_dir=tmp_path)
    assert generator.sample(0).cpu == 0.1
    assert generator.sample(1).cpu == 0.5
    assert generator.sample(2).cpu == 0.1


def _trace_template(tmp_path, num_workers=6, iterations=1):
    workers = []
    for i in range(num_workers):
        (tmp_path / f"w{i}.csv").write_text(
            "".join(f"0.{(i + k) % 9 + 1},0.2,0.1,0.{k % 9 + 1}\n" for k in range(5)),
            encoding="utf-8")
        workers.append(ClusterWorker(id=f"w{i}", profile=HardwareProfile(),
                                     workload=TraceWorkload(f"w{i}.csv")))
    return SimConfig(workers=tuple(workers),
                     experiment=ExperimentSpec(name="trace", services=(make_service("proto"),)),
                     seed=3, iterations=iterations, base_dir=str(tmp_path))


@pytest.fixture
def read_count(monkeypatch):
    """Counts Path.read_text calls made while the test runs."""
    calls = []
    original = Path.read_text

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    return calls


def test_scaling_grid_reads_each_trace_once_per_generator(tmp_path, read_count):
    cells = measure_scaling(range(1, 9), range(1, 9), _trace_template(tmp_path))
    assert len(cells) == 64
    # One generator for each of the 8 grid workers; the 7th and 8th replay w0.csv and w1.csv.
    assert len(read_count) <= 8


def test_experiment_reads_each_trace_once(tmp_path, read_count):
    results = run_experiment(_trace_template(tmp_path, iterations=5))
    assert len(results) == 5
    assert sorted(read_count) == [f"w{i}.csv" for i in range(6)]


def test_trace_generator_rejects_bad_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2,0.3\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        WorkloadGenerator(TraceWorkload(str(bad)), seed=0, worker_index=0).sample(0)
    worse = tmp_path / "worse.csv"
    worse.write_text("0.1,0.2,0.3,1.4\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        WorkloadGenerator(TraceWorkload(str(worse)), seed=0, worker_index=0).sample(0)


# ---------------------------------------------------------------------------
# registry


def test_registry_put_get_versions():
    registry = KvRegistry()
    assert registry.put("overlay/subnet", "10.0.0.0/24") == 1
    assert registry.get("overlay/subnet") == "10.0.0.0/24"
    assert registry.put("overlay/subnet", "10.1.0.0/24") == 2
    assert registry.get("overlay/subnet") == "10.1.0.0/24"
    assert registry.version("overlay/subnet") == 2
    with pytest.raises(KeyAbsent):
        registry.get("never/written")
    with pytest.raises(ValueError):
        registry.put("", 1)


def test_registry_prefix_listing():
    registry = KvRegistry()
    for worker in ("w2", "w1", "w3"):
        registry.put(f"overlay/members/{worker}", {})
    registry.put("overlay/subnet", "s")
    assert registry.keys("overlay/members/") == [
        "overlay/members/w1", "overlay/members/w2", "overlay/members/w3"]
    assert len(registry) == 4


# ---------------------------------------------------------------------------
# iterations


def test_single_service_starts_once():
    cfg = bench_config(num_workers=1, num_services=1)
    result, trace = run_iteration(cfg, 0)
    assert result.feasible
    assert len(trace.of_kind("ServiceStarted")) == 1
    assert len(trace.of_kind("MemberRegistered")) == 1


def test_zero_fetch_latency_starts_at_allocation_time():
    cfg = bench_config(num_workers=2, num_services=1,
                       fetch_latency=FetchLatency(base_ms=0, per_mb_ms=0.0))
    _, trace = run_iteration(cfg, 0)
    alloc = trace.of_kind("AllocationComputed")[0]
    for started in trace.of_kind("ServiceStarted"):
        assert started.tick == alloc.tick


def test_lifecycle_order_per_worker():
    cfg = bench_config()
    result, trace = run_iteration(cfg, 0)
    assert result.feasible
    for worker in [w.id for w in cfg.workers]:
        def ticks(kind):
            return [e.tick for e in trace.of_kind(kind) if e.payload.get("worker") == worker]
        join, request, reply = ticks("Join"), ticks("CostRequest"), ticks("CostReply")
        assert join == [0] and len(request) == 1 and len(reply) == 1
        assert request[0] <= reply[0]
        alloc_tick = trace.of_kind("AllocationComputed")[0].tick
        assert reply[0] <= alloc_tick
        for fetch in ticks("FetchStarted"):
            assert alloc_tick <= fetch
        for started in ticks("ServiceStarted"):
            assert all(fetch <= started for fetch in ticks("FetchStarted"))
    ticks_all = [e.tick for e in trace.events]
    assert ticks_all == sorted(ticks_all)


def test_phase_additivity():
    cfg = bench_config()
    _, trace = run_iteration(cfg, 0)
    t = trace.timings
    assert t["total_ms"] == t["join_ms"] + t["cost_ms"] + t["allocation_ms"] + t["deploy_ms"]
    last_start = max(e.tick for e in trace.of_kind("ServiceStarted"))
    assert t["total_ms"] == last_start


def test_member_registration_matches_assignments():
    cfg = bench_config()
    result, trace = run_iteration(cfg, 0)
    registered = trace.of_kind("MemberRegistered")
    assigned_workers = {a.worker for a in result.assignments.values()}
    assert {e.payload["worker"] for e in registered} == assigned_workers
    assert all(e.payload["key"].startswith("overlay/members/") for e in registered)
    vteps = [e.payload["vtep"] for e in registered]
    assert len(set(vteps)) == len(vteps)


def test_iteration_determinism():
    cfg = bench_config(iterations=3)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    for (r1, t1), (r2, t2) in zip(first, second):
        assert r1.total_cost_scaled == r2.total_cost_scaled
        assert [a.worker for a in r1.assignments.values()] == \
               [a.worker for a in r2.assignments.values()]
        assert trace_to_jsonl(t1) == trace_to_jsonl(t2)
        assert t1.timings == t2.timings


def test_iterations_resample_workloads():
    cfg = bench_config(iterations=2)
    (first, _), (second, _) = run_experiment(cfg)
    costs_first = sorted(a.cost for a in first.assignments.values())
    costs_second = sorted(a.cost for a in second.assignments.values())
    assert costs_first != costs_second


def test_run_experiment_lengths():
    assert len(run_experiment(bench_config(iterations=1))) == 1
    results = run_experiment(bench_config(iterations=10))
    assert len(results) == 10
    assert all(result.feasible for result, _ in results)


def test_trace_jsonl_round_trips():
    _, trace = run_iteration(bench_config(num_workers=2, num_services=2), 0)
    lines = trace_to_jsonl(trace).splitlines()
    assert len(lines) == len(trace.events)
    parsed = [json.loads(line) for line in lines]
    assert [p["kind"] for p in parsed] == [e.kind for e in trace.events]


def test_config_validation():
    with pytest.raises(EmptyProblem):
        SimConfig(workers=(), experiment=bench_experiment(1), seed=0)
    with pytest.raises(ValueError):
        bench_config(iterations=0)
    with pytest.raises(ValueError):
        bench_config(seed=-1)


def test_config_rejects_duplicate_worker_ids():
    workers = balanced_cluster(3)
    twice = workers + (workers[1],)
    with pytest.raises(DuplicateAgent, match="w02"):
        run_experiment(SimConfig(workers=twice, experiment=bench_experiment(1), seed=0))


# ---------------------------------------------------------------------------
# scaling


def scaling_template(parallel=True):
    return SimConfig(
        workers=(ClusterWorker(id="proto", profile=HardwareProfile(),
                               workload=UniformWorkload((0.3, 0.3, 0.1, 0.3), 0.1)),),
        experiment=ExperimentSpec(name="scaling", services=(make_service("proto"),)),
        seed=11,
        parallel_cost_calc=parallel,
    )


def test_scaling_grid_shape_and_service_monotonicity():
    cells = measure_scaling(range(1, 5), range(1, 7), scaling_template())
    assert len(cells) == 24
    by_workers = {}
    for cell in cells:
        by_workers.setdefault(cell.workers, []).append(cell.elapsed_ms)
    for elapsed in by_workers.values():
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


def test_scaling_parallel_rows_stay_flat():
    cells = measure_scaling(range(1, 7), range(1, 5), scaling_template(parallel=True))
    by_services = {}
    for cell in cells:
        by_services.setdefault(cell.services, []).append(cell.elapsed_ms)
    for elapsed in by_services.values():
        assert max(elapsed) / min(elapsed) <= 1.25


def test_scaling_sequential_rows_grow():
    cells = measure_scaling(range(1, 7), [3], scaling_template(parallel=False))
    elapsed = [cell.elapsed_ms for cell in cells]
    assert all(b > a for a, b in zip(elapsed, elapsed[1:]))


def test_grid_csv_format():
    cells = measure_scaling([1], [1], scaling_template())
    text = grid_to_csv(cells)
    lines = text.splitlines()
    assert lines[0] == "workers,services,elapsed_ms"
    assert len(lines) == 2


def test_scaling_rejects_empty_ranges():
    with pytest.raises(EmptyProblem):
        measure_scaling([], [1], scaling_template())
