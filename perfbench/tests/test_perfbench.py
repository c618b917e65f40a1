"""Tests of the benchmark itself: oracle, tracing wrappers, failure counting.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import builtins
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SL = worker.import_swarmlab()
swarmlab = SL.package


def random_instance(rng: random.Random):
    num_workers = rng.randint(2, 9)
    num_services = rng.randint(1, 8)
    workers = [
        swarmlab.WorkerState(
            id=f"w{i}",
            profile=swarmlab.HardwareProfile(
                capabilities=frozenset({"camera"}) if rng.random() < 0.5 else frozenset()),
            workload=swarmlab.WorkloadSample(*(rng.random() for _ in range(4))),
        )
        for i in range(num_workers)
    ]
    services = [
        swarmlab.ServiceSpec(
            name=f"s{j}", entrypoint="run", predefined_cost=round(rng.uniform(1, 99), 3),
            required_capabilities=frozenset({"camera"}) if rng.random() < 0.3 else frozenset())
        for j in range(num_services)
    ]
    names = [s.name for s in services]
    rng.shuffle(names)
    dependencies = [(names[2 * k], names[2 * k + 1]) for k in range(rng.randint(0, len(names) // 2))]
    experiment = swarmlab.ExperimentSpec(name="t", services=tuple(services),
                                         dependencies=tuple(dependencies), pool_discount=0.8)
    return workers, experiment


@pytest.mark.parametrize("seed", range(60))
def test_oracle_agrees_with_allocate(seed):
    workers, experiment = random_instance(random.Random(seed))
    result = swarmlab.allocate_experiment(workers, experiment)
    chosen = next(o for o in result.outcomes if o.chosen)
    assert checks.assignment_oracle(workers, experiment, swarmlab) == (
        chosen.index, chosen.services_assigned, result.total_cost_scaled)
    assert checks.parse_report(swarmlab.explain(result)) == (
        chosen.index, chosen.services_assigned, result.total_cost_scaled)


def _snapshot():
    owners = [(owner, attr) for owner, attr, _, _ in tracing.targets(SL)]
    owners += [(io, "open"), (builtins, "open")]
    return [(owner, attr, owner.__dict__.get(attr)) for owner, attr in owners]


@pytest.fixture(scope="module")
def desk_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("desk")
    plan = gen.generate("desk_sim", 3, work)
    return work, plan


def _simulate_argv(work, plan, out_dir, iterations=40):
    return ["simulate", "--edf", str(work / plan["edf"]), "--cluster", str(work / plan["cluster"]),
            "--iterations", str(iterations), "--seed", str(plan["sim_seed"]), "--out-dir", str(out_dir)]


def test_wrappers_restore_originals_and_keep_outputs(desk_inputs, tmp_path):
    work, plan = desk_inputs
    before = _snapshot()
    assert SL.cli.main(_simulate_argv(work, plan, tmp_path / "plain")) == 0

    tracer = tracing.Tracer()
    tracer.install(tracing.targets(SL))
    try:
        assert all(owner.__dict__.get(attr) is not original for owner, attr, original in before)
        assert tracer.command(SL.cli.main, _simulate_argv(work, plan, tmp_path / "traced")) == 0
    finally:
        tracer.restore()

    assert all(owner.__dict__.get(attr) is original for owner, attr, original in before)
    assert tracer.missing == []
    for name in checks.SIM_ARTIFACTS:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()

    # Self times account for the whole command, and counts come from the calls.
    (root,) = [s for s in tracer.spans if s[3] == "cli"]
    assert sum(tracer.self_times_ns().values()) == root[5] - root[4]
    assert tracer.counts["allocator.rounds"] == 40
    assert tracer.counts["allocator.configurations"] == 80
    assert tracer.counts["swarmsim.sample_calls"] == 40 * 12
    assert tracer.counts["model.join_calls"] == 40 * 12
    assert tracer.counts["mcmf.solve_calls"] == 80
    assert tracer.counts["costing.cost_cells"] > 0
    assert tracer.counts["swarmsim.trace_reads"] == 0


def test_trace_reads_are_counted_inside_sample_spans(tmp_path):
    plan = gen.generate("trace_grid", 1, tmp_path)
    argv = ["scaling", "--cluster-template", str(tmp_path / plan["cluster"]), "--max-workers", "3",
            "--max-services", "2", "--seed", "1", "--out", str(tmp_path / "grid.csv")]
    tracer = tracing.Tracer()
    tracer.install(tracing.targets(SL))
    try:
        assert tracer.command(SL.cli.main, argv) == 0
    finally:
        tracer.restore()
    samples = 2 * (1 + 2 + 3)
    assert tracer.counts["swarmsim.sample_calls"] == samples
    assert tracer.counts["swarmsim.trace_reads"] == samples


def test_injected_wrong_output_counts_as_failed(desk_inputs, tmp_path):
    work, plan = desk_inputs
    out_dir = tmp_path / "sim"
    argv = _simulate_argv(work, plan, out_dir)
    assert SL.cli.main(argv) == 0
    recorded = {"desk_sim": {str(plan["sim_seed"]): checks.observe_simulate(out_dir)[0]}}
    cmd = worker.Command(argv, lambda: checks.observe_simulate(out_dir),
                         lambda obs: checks.verify_simulate(obs, plan["sim_seed"], recorded))

    def corrupting(argv):
        rc = SL.cli.main(argv)
        with open(out_dir / "fairness.csv", "a", encoding="utf-8") as fh:
            fh.write("0\n")
        return rc

    def raising(argv):
        raise RuntimeError("boom")

    worker.reference.prepare(tmp_path)
    loop = worker.Loop(SL.cli.main, [cmd])
    loop.run_one(cmd)
    assert loop.failures() == []
    loop.run_one(cmd, corrupting)
    loop.run_one(cmd, raising)
    loop.run_one(cmd, lambda argv: 3)
    result = worker.end_to_end(loop)
    assert result["attempted"] == 4
    assert len(result["failures"]) == 3


def test_tampered_allocate_report_fails_the_oracle(tmp_path):
    plan = gen.generate("fleet_pools", 5, tmp_path)
    fleet = plan["fleets"][0]
    report = tmp_path / "report.txt"
    rc = SL.cli.main(["allocate", "--edf", str(tmp_path / fleet["edf"]),
                      "--cluster", str(tmp_path / fleet["cluster"]),
                      "--seed", str(fleet["alloc_seed"]), "--out", str(report)])
    assert rc == 0
    text, placed = checks.observe_allocate(report)
    assert placed == gen.FLEET_SERVICES
    expected = checks.assignment_oracle(
        worker.sampled_workers(SL, tmp_path / fleet["cluster"], fleet["alloc_seed"]),
        swarmlab.load_edf(tmp_path / fleet["edf"]), swarmlab)
    assert expected[0] < 2 ** gen.FLEET_POOLS
    assert checks.verify_allocate(text, expected) is None
    chosen_line = next(line for line in text.splitlines() if line.endswith("<- chosen"))
    cost = chosen_line.split("cost=")[1].split()[0]
    bumped = f"{float(cost) + 0.000001:.6f}"
    assert checks.verify_allocate(text.replace(f"cost={cost}", f"cost={bumped}"), expected) is not None


def test_generated_inputs_repeat_for_a_seed(tmp_path):
    for workload in gen.GENERATORS:
        first = gen.generate(workload, 7, tmp_path / "a" / workload)
        second = gen.generate(workload, 7, tmp_path / "b" / workload)
        assert first == second
        files = sorted(p.relative_to(tmp_path / "a" / workload)
                       for p in (tmp_path / "a" / workload).rglob("*") if p.is_file())
        for rel in files:
            assert (tmp_path / "a" / workload / rel).read_bytes() == \
                (tmp_path / "b" / workload / rel).read_bytes()
    assert json.loads((tmp_path / "a" / "fleet_pools" / "plan.json").read_text())["fleets"]


def test_normalised_times_divide_by_the_reference_run_before_each_command():
    fast, slow = worker.Command(["fast"], None, None), worker.Command(["slow"], None, None)
    loop = worker.Loop(None, [fast, slow])
    # The host slows down 3x halfway; each command's ratio to its reference stays put.
    for k, speed in enumerate([1.0, 1.0, 3.0, 3.0, 3.0, 3.0]):
        cmd, seconds, placed = (fast, 0.02, 4) if k % 2 == 0 else (slow, 0.06, 8)
        loop.references.append(0.01 * speed)
        loop.durations.append(seconds * speed)
        loop.results.append((cmd, worker.EXPECTED_EXIT, None, placed))
    ms, rate = worker.normalised(loop)
    nominal = worker.reference.NOMINAL_MS
    assert ms == pytest.approx((2 + 6) / 2 * nominal)
    assert rate == pytest.approx((4 + 8) / ((2 + 6) * nominal / 1e3))


def test_reference_routine_checks_its_own_result(tmp_path):
    worker.reference.prepare(tmp_path)
    assert worker.reference.run() > 0
    (tmp_path / "reference.csv").write_text("1,2,3,4\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        worker.reference.run()
    worker.reference.prepare(tmp_path)
