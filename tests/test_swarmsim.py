import json
import re
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmlab import allocator, assignment, costing, metrics, swarmsim
from swarmlab.allocator import AllocationResult, Assignment, ConfigurationOutcome
from swarmlab.cli import main
from swarmlab.definitions import (
    ClusterSpec,
    ClusterWorker,
    ExperimentSpec,
    FixedWorkload,
    ServiceSpec,
    TraceWorkload,
    UniformWorkload,
    load_cluster,
    load_edf,
    serialize_cluster,
    serialize_edf,
)
from swarmlab.errors import DuplicateAgent, EmptyProblem, SchemaError
from swarmlab.model import HardwareProfile, WorkerState, WorkloadSample
from swarmlab.swarmsim import (
    _JITTER_TAG,
    _LEVEL_TAG,
    JITTER_FRACTION,
    FetchLatency,
    SimConfig,
    WorkloadGenerator,
    check_fleet_inputs,
    grid_to_csv,
    measure_scaling,
    run_experiment,
    run_iteration,
    trace_to_jsonl,
)

from factories import balanced_cluster, bench_experiment, make_service

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


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


def _reference_uniform_sample(model, seed, worker_index, iteration):
    """The uniform model as defined: list-seeded PCG64 generators and np.clip."""
    def generator(entropy):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    center = np.asarray(model.center)
    level = generator([seed, worker_index, _LEVEL_TAG]).uniform(
        center - model.half_width, center + model.half_width)
    width = model.half_width * JITTER_FRACTION
    jitter = generator([seed, worker_index, iteration, _JITTER_TAG]).uniform(-width, width, size=4)
    return tuple(np.clip(level + jitter, 0.0, 1.0).tolist())


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 3, 3**50])
def test_uniform_sample_matches_reference_formula_bit_for_bit(seed):
    for half_width in (0.0, 0.04, 0.1, 0.5, 1.0):
        # Centers at the bounds make the clip bite.
        model = UniformWorkload(center=(0.0, 0.3, 0.97, 1.0), half_width=half_width)
        for worker_index in (0, 5, 2**33 + 1):
            generator = WorkloadGenerator(model, seed, worker_index)
            for iteration in (0, 1, 7, 2**32 - 1, 2**32, 2**40 + 11):
                sample = generator.sample(iteration)
                got = (sample.cpu, sample.vram, sample.swap, sample.bandwidth)
                expected = _reference_uniform_sample(model, seed, worker_index, iteration)
                assert got == expected, (half_width, worker_index, iteration)
                assert [v.hex() for v in got] == [v.hex() for v in expected]  # signed zeros too


def _mixed_fleet(tmp_path):
    """Uniform workers of several shapes around a fixed and a trace worker."""
    (tmp_path / "load.csv").write_text("0.1,0.2,0.3,0.4\n0.5,0.5,0.5,0.5\n", encoding="utf-8")
    models = [UniformWorkload(center=(0.3, 0.3, 0.1, 0.3), half_width=0.1),
              FixedWorkload((0.2, 0.2, 0.2, 0.2)),
              UniformWorkload(center=(0.0, 0.5, 0.97, 1.0), half_width=0.5),
              TraceWorkload("load.csv"),
              UniformWorkload(center=(0.6, 0.1, 0.4, 0.9), half_width=0.0),
              UniformWorkload(center=(0.2, 0.8, 0.5, 0.5), half_width=1.0)]
    return tuple(ClusterWorker(id=f"w{i}", profile=HardwareProfile(), workload=model)
                 for i, model in enumerate(models))


@pytest.fixture
def allocated_rounds(monkeypatch):
    """Records, for each round handed to the allocation, every worker's (id, load row)."""
    seen = []
    original = allocator.PreparedAllocation.allocate_rounds

    def recording(self, rounds):
        seen.extend(list(zip(self.worker_ids, rows)) for rows in rounds)
        return original(self, rounds)

    monkeypatch.setattr(allocator.PreparedAllocation, "allocate_rounds", recording)
    return seen


@pytest.fixture
def kernel_rows(monkeypatch):
    """The row count of every ``uniform_rows`` call the simulator makes."""
    calls = []
    original = swarmsim.uniform_rows

    def counting(words, lengths, low, high):
        calls.append(len(words))
        return original(words, lengths, low, high)

    monkeypatch.setattr(swarmsim, "uniform_rows", counting)
    return calls


def _assert_rounds_match_reference(rounds, workers, seed):
    """``rounds[k]`` holds each worker's (id, load row) at iteration k."""
    for iteration, pairs in enumerate(rounds):
        assert len(pairs) == len(workers)
        for index, (worker, (worker_id, row)) in enumerate(zip(workers, pairs)):
            got = tuple(row)
            model = worker.workload
            if isinstance(model, UniformWorkload):
                expected = _reference_uniform_sample(model, seed, index, iteration)
            elif isinstance(model, FixedWorkload):
                expected = model.values
            else:
                expected = ((0.1, 0.2, 0.3, 0.4), (0.5, 0.5, 0.5, 0.5))[iteration % 2]
            assert [v.hex() for v in got] == [v.hex() for v in expected], (iteration, index)
            assert worker_id == worker.id


def test_long_experiment_samples_match_per_sample_default_rng(tmp_path, allocated_rounds,
                                                              kernel_rows):
    workers = _mixed_fleet(tmp_path)
    cfg = SimConfig(workers=workers, experiment=bench_experiment(2), seed=2**32 + 9,
                    iterations=240, parallel_cost_calc=False, base_dir=str(tmp_path))
    run_experiment(cfg)
    assert len(allocated_rounds) == 240
    _assert_rounds_match_reference(allocated_rounds, workers, cfg.seed)
    # One batch for the whole command: four levels and 4 x 240 jitter rows.
    assert kernel_rows == [4 + 4 * 240]


def test_iterations_crossing_draw_blocks_match_reference(tmp_path, allocated_rounds,
                                                         kernel_rows, monkeypatch):
    default = assignment.BLOCK_CELLS
    monkeypatch.setattr(assignment, "BLOCK_CELLS", 24)  # two rounds of 6 workers x 2 columns
    workers = _mixed_fleet(tmp_path)
    cfg = SimConfig(workers=workers, experiment=bench_experiment(2), seed=17, iterations=7,
                    base_dir=str(tmp_path))
    blocked = run_experiment(cfg)
    assert kernel_rows == [4 + 8, 8, 8, 4]
    _assert_rounds_match_reference(allocated_rounds, workers, cfg.seed)

    monkeypatch.setattr(assignment, "BLOCK_CELLS", default)
    whole = run_experiment(cfg)
    assert kernel_rows[4:] == [4 + 4 * 7]
    # Whole results: assignments, every configuration's outcome and the scaled total.
    assert len(blocked) == len(whole) == 7
    assert blocked == whole


@pytest.mark.parametrize("base_dir", ["str", "path", "none", "absolute trace"])
def test_sample_rounds_match_per_sample_default_rng(tmp_path, base_dir, monkeypatch):
    workers = _mixed_fleet(tmp_path)
    given = {"str": str(tmp_path), "path": tmp_path, "none": None,
             "absolute trace": tmp_path / "elsewhere"}[base_dir]
    if base_dir in ("none", "absolute trace"):  # the trace path does not rely on base_dir
        workers = tuple(replace(w, workload=TraceWorkload(str(tmp_path / w.workload.path)))
                        if isinstance(w.workload, TraceWorkload) else w for w in workers)
    monkeypatch.chdir(tmp_path.parent)  # a relative trace path must not resolve against the cwd
    seed = 2**40 + 3
    generators = swarmsim.workload_generators(workers, seed, given)
    blocks = list(swarmsim.sample_rounds(generators, range(7), 3))
    assert [(block.dtype, block.shape) for block in blocks] == \
        [(np.float64, (3, 6, 4)), (np.float64, (3, 6, 4)), (np.float64, (1, 6, 4))]
    rounds = [list(zip((w.id for w in workers), rows)) for block in blocks for rows in block.tolist()]
    assert all(type(v) is float for pairs in rounds for _, row in pairs for v in row)
    _assert_rounds_match_reference(rounds, workers, seed)
    # Later iterations of the same generators, in another block shape, draw the same stream.
    [later] = list(swarmsim.sample_rounds(generators, [6, 2], 2))
    assert later.tolist() == [blocks[2][0].tolist(), blocks[0][2].tolist()]


def test_one_block_of_mixed_word_lengths_matches_per_sample_default_rng(kernel_rows):
    # Seeds and worker indices of one to three words, in one block whose iterations cross
    # 2**32: the block's word matrix holds rows of 4 to 8 words, grouped by length.
    model = UniformWorkload(center=(0.3, 0.5, 0.7, 0.9), half_width=0.2)
    generators = [WorkloadGenerator(model, seed, index) for seed, index in
                  ((0, 0), (2**32, 1), (7, 2**33 + 1), (2**64 + 3, 2**32 - 1))]
    iterations = [2**32 - 2, 2**32 - 1, 2**32, 5, 2**64]
    [block] = swarmsim.sample_rounds(generators, iterations, len(iterations))
    assert kernel_rows == [4 + 4 * 5]
    for k, iteration in enumerate(iterations):
        for g, generator in enumerate(generators):
            expected = _reference_uniform_sample(model, generator.seed, generator.worker_index, iteration)
            assert [v.hex() for v in block[k, g].tolist()] == [v.hex() for v in expected], (k, g)


def test_each_sample_rounds_call_reads_its_own_trace_files(tmp_path):
    # A call keeps its parsed files to itself: a later call over the same generators
    # replays the file as it is then, and a generator holds nothing that could go stale.
    trace = tmp_path / "load.csv"
    trace.write_text("0.1,0.2,0.3,0.4\n", encoding="utf-8")
    worker = ClusterWorker(id="t", profile=HardwareProfile(), workload=TraceWorkload("load.csv"))
    generators = swarmsim.workload_generators([worker], 0, tmp_path)
    assert [block.tolist() for block in swarmsim.sample_rounds(generators, [0, 1], 2)] == \
        [[[[0.1, 0.2, 0.3, 0.4]]] * 2]
    trace.write_text("0.5,0.6,0.7,0.8\n0.9,1.0,0.0,0.1\n", encoding="utf-8")
    assert [block.tolist() for block in swarmsim.sample_rounds(generators, [0, 1], 2)] == \
        [[[[0.5, 0.6, 0.7, 0.8]], [[0.9, 1.0, 0.0, 0.1]]]]
    with pytest.raises(FrozenInstanceError):
        generators[0].base_dir = tmp_path.parent


def test_allocate_round_draws_iteration_zero_only(tmp_path, kernel_rows):
    workers = _mixed_fleet(tmp_path)
    generators = swarmsim.workload_generators(workers, 3, tmp_path)
    [rows] = next(swarmsim.sample_rounds(generators, [0], 1))
    assert kernel_rows == [4 + 4]  # the four levels and the four iteration-0 jitter rows
    # What allocate hands the allocation: each worker's row.
    _assert_rounds_match_reference([[(w.id, row) for w, row in zip(workers, rows)]], workers, 3)


def test_fleets_without_uniform_workers_make_no_kernel_call(tmp_path, kernel_rows):
    run_experiment(_trace_template(tmp_path, iterations=3))
    list(measure_scaling(range(1, 4), range(1, 3), _trace_template(tmp_path)))
    assert kernel_rows == []


def test_scaling_grid_draws_uniform_samples_once(kernel_rows):
    cells = list(measure_scaling(range(1, 6), range(1, 4), bench_config(num_workers=3)))
    assert len(cells) == 15
    # Grid workers 4 and 5 clone template workers 1 and 2, and a cell reads no load: the
    # fleet's input check runs sampling's set-up alone, and nothing is drawn.
    assert kernel_rows == []


@pytest.fixture
def sampled(monkeypatch):
    """Records each ``sample_rounds`` call: its generators' worker indices and its iterations."""
    calls = []
    original = swarmsim.sample_rounds

    def recording(generators, iterations, per_block):
        calls.append(([g.worker_index for g in generators], list(iterations)))
        return original(generators, iterations, per_block)

    monkeypatch.setattr(swarmsim, "sample_rounds", recording)
    return calls


def test_scaling_samples_each_fleet_worker_once(tmp_path, sampled):
    cells = list(measure_scaling(range(1, 5), range(1, 4), _trace_template(tmp_path, num_workers=2)))
    assert len(cells) == 12
    # One input check of the two template workers, which the grid's four clone, on no
    # iteration; not one per grid worker, nor per worker per cell.
    assert sampled == [([0, 1], [])]


def test_large_scaling_grid_works_on_its_template(tmp_path, sampled, monkeypatch):
    template = _trace_template(tmp_path, num_workers=2)
    built = []
    init = ClusterWorker.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("id"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(ClusterWorker, "__init__", counted)
    cells = list(measure_scaling(range(1, 5001), [1], template))
    # 5000 grid workers, but no clone is built and only the two template workers are checked.
    assert [(cell.workers, cell.services) for cell in cells] == [(n, 1) for n in range(1, 5001)]
    assert built == []
    assert sampled == [([0, 1], [])]


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
    assert generator.sample(2**64 + 1).cpu == 0.5  # past numpy's integers


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
    """Names the files that Path.open opens for reading while the test runs."""
    calls = []
    original = Path.open

    def counting(self, mode="r", *args, **kwargs):
        if "r" in mode:
            calls.append(self.name)
        return original(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting)
    return calls


def test_scaling_grid_reads_each_trace_once_per_generator(tmp_path, read_count):
    cells = list(measure_scaling(range(1, 9), range(1, 9), _trace_template(tmp_path)))
    assert len(cells) == 64
    # The 7th and 8th grid workers replay w0.csv and w1.csv, parsed once for the whole grid.
    assert sorted(read_count) == [f"w{i}.csv" for i in range(6)]
    # A grid of at most 3 workers never clones the template's last three: their files stay unread.
    read_count.clear()
    assert len(list(measure_scaling(range(1, 4), [2], _trace_template(tmp_path)))) == 3
    assert sorted(read_count) == [f"w{i}.csv" for i in range(3)]


@pytest.fixture
def call_counts(monkeypatch):
    """Counts the calls of the command-level builders and of the solver, and the
    configurations the solver is given."""
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(allocator, "_columns")
    counted(costing, "build_capability_matrix")
    counted(costing.UnitCosts, "matrix")
    counted(costing.UnitCosts, "block")
    counted(costing.CostMatrix, "scaled")
    counted(assignment, "solve")
    solve_selections = assignment.solve_selections

    def count_selections(matrix, costs, big_m, selections, order=None):
        calls["solve_selections"] += 1
        calls["selections"] += len(selections)
        return solve_selections(matrix, costs, big_m, selections, order)
    monkeypatch.setattr(assignment, "solve_selections", count_selections)
    return calls


def test_command_level_inputs_are_built_once(call_counts, monkeypatch):
    cfg = SimConfig(workers=balanced_cluster(6),
                    experiment=bench_experiment(4, dependencies=(("svc01", "svc02"),)),
                    seed=5, iterations=5)
    # The whole command in one block, then blocks of two rounds (60 cells): each block is
    # costed once, integerized without a CostMatrix, and each round is one solve of its two
    # configurations.
    for block_cells in (assignment.BLOCK_CELLS, 60):
        monkeypatch.setattr(assignment, "BLOCK_CELLS", block_cells)
        call_counts.clear()
        results = run_experiment(cfg)
        assert [len(result.outcomes) for result in results] == [2] * 5
        blocks = -(-cfg.iterations // assignment.block_rounds(6, 4 + 1))  # 4 services and a pool
        assert call_counts == Counter({"_columns": 1,
                                       "build_capability_matrix": 1, "block": blocks,
                                       "scaled": 0, "solve_selections": 5, "selections": 10})
    # One iteration runs the same pipeline: one block of one round; there is no other
    # one-round path.
    call_counts.clear()
    run_iteration(cfg, 3)
    assert call_counts == Counter({"_columns": 1,
                                   "build_capability_matrix": 1, "block": 1,
                                   "solve_selections": 1, "selections": 2})
    assert not hasattr(allocator.PreparedAllocation, "allocate")


def test_scaling_grid_inputs_are_built_once(call_counts, monkeypatch):
    template = bench_config(num_workers=3)
    for cls in (ClusterWorker, ServiceSpec, ExperimentSpec, SimConfig):
        original = cls.__init__

        def counted(self, *args, _name=cls.__name__, _init=original, **kwargs):
            call_counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    for worker_counts, service_counts in ((range(1, 9), range(1, 9)), ([5, 2, 5, 1, 2], [3, 7, 3])):
        call_counts.clear()
        cells = list(measure_scaling(worker_counts, service_counts, template))
        assert len(cells) == len(worker_counts) * len(service_counts)
        # One capability column of the template's workers decides every cell: nothing is
        # prepared, costed, scaled or solved, and no worker, service, experiment or config
        # is cloned.
        assert call_counts == Counter(build_capability_matrix=1)


def test_experiment_reads_each_trace_once(tmp_path, read_count):
    results = run_experiment(_trace_template(tmp_path, iterations=5))
    assert len(results) == 5
    assert sorted(read_count) == [f"w{i}.csv" for i in range(6)]


@pytest.mark.parametrize("text, line, message", [
    ("0.1,0.2,0.3\n", 1, "expected 4 utilization values, got 3"),
    ("# cpu,vram,swap,bandwidth\n0.1,0.2,0.3,x\n", 2, "expected numeric utilization values"),
    ("0.1,0.2,0.3,0.4\n\n0.1,0.2,,0.4\n", 3, "expected numeric utilization values"),
    ("nan,0.2,0.3,0.4\n", 1, "utilization values must be within [0, 1]"),
    ("0.1,0.2,0.3,NaN\n", 1, "utilization values must be within [0, 1]"),
    ("0.1,inf,0.3,0.4\n", 1, "utilization values must be within [0, 1]"),
    ("0.1,0.2,-0.5,0.4\n", 1, "utilization values must be within [0, 1]"),
    ("0.1,0.2,0.3,1.0000001\n", 1, "utilization values must be within [0, 1]"),
])
def test_trace_rows_are_rejected_at_their_line(tmp_path, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    generator = WorkloadGenerator(TraceWorkload("bad.csv"), seed=0, worker_index=0, base_dir=tmp_path)
    with pytest.raises(SchemaError) as raised:
        generator.sample(0)
    assert str(raised.value) == f"{path}:{line}: {message}"


def test_endless_trace_is_read_no_further_than_the_bound(monkeypatch):
    # A stand-in for an endless file (a device or a pipe): any read returns as many
    # bytes as asked for, and reading to the end would never return.
    requested = []

    class Endless:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self, size=-1):
            assert size >= 0, "read to the end of an endless file"
            requested.append(size)
            return b"0" * size

    monkeypatch.setattr(swarmsim, "MAX_TRACE_BYTES", 64)
    monkeypatch.setattr(Path, "open", lambda self, mode="r": Endless())
    with pytest.raises(SchemaError) as raised:
        swarmsim._read_trace(Path("endless.csv"))
    assert str(raised.value) == "endless.csv: trace file exceeds 64 bytes"
    assert requested == [65]


def test_trace_read_allocates_the_files_size_not_the_bound(tmp_path):
    # 240 rows, about 7 KB, as one trace of the benchmark's trace_grid template.
    (tmp_path / "load.csv").write_text(
        "".join(f"0.{k % 9 + 1}234,0.2000,0.1000,0.{k % 7 + 1}000\n" for k in range(240)),
        encoding="utf-8")
    worker = ClusterWorker(id="t1", profile=HardwareProfile(), workload=TraceWorkload("load.csv"))
    tracemalloc.start()
    try:
        check_fleet_inputs([worker], tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # reading MAX_TRACE_BYTES + 1 at once peaked at 16.8 MB


@pytest.mark.parametrize("data, line", [
    (b"\xe90.1,0.2,0.3,0.4\n", 1),
    (b"0.1,0.2,0.3,0.4\n0.1,0.\xe9,0.3,0.4\n", 2),
    (b"0.1,0.2,0.3,0.4\r\n# \xc3\xa9t\xc3\xa9\r\n\n0.1,0.2,0.3,0.4\xff\n", 4),
    (b"0.1,0.2,0.3,0.4\r0.1,0.2,0.3,0.4\r\xe2\x82", 3),  # lone CR line ends, then a cut sequence
    (b"0.1,0.2\n\xe9", 2),  # not text at all: refused as such, before its first bad row
])
def test_non_utf8_trace_is_rejected_at_its_line(tmp_path, data, line):
    path = tmp_path / "load.csv"
    path.write_bytes(data)
    with pytest.raises(SchemaError) as raised:
        swarmsim._read_trace(path)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        reason = str(exc)
    assert str(raised.value) == f"{path}:{line}: {reason}"


def test_trace_without_samples_is_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# cpu,vram,swap,bandwidth\n\n   \n", encoding="utf-8")
    with pytest.raises(SchemaError) as raised:
        WorkloadGenerator(TraceWorkload(str(path)), seed=0, worker_index=0).sample(0)
    assert str(raised.value) == f"{path}: trace file holds no samples"


def test_trace_rows_are_the_floats_of_their_fields(tmp_path):
    lines = [" 0.5 , 1e-1,1.0,-0.0 ", "0,1,0.25,.5", "0.1,0.2,0.30000000000000004,1E-300"]
    (tmp_path / "load.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    generator = WorkloadGenerator(TraceWorkload("load.csv"), seed=0, worker_index=0,
                                  base_dir=tmp_path)
    for iteration, line in enumerate(lines):
        sample = generator.sample(iteration)
        got = (sample.cpu, sample.vram, sample.swap, sample.bandwidth)
        expected = tuple(float(field) for field in line.strip().split(","))
        assert [v.hex() for v in got] == [v.hex() for v in expected]  # signed zeros too


def _reference_read_trace(location):
    """A trace file's rows as they were parsed before the bulk pass: line by line."""
    with location.open("rb") as stream:
        data = stream.read(swarmsim.MAX_TRACE_BYTES + 1)
    if len(data) > swarmsim.MAX_TRACE_BYTES:
        raise SchemaError(f"trace file exceeds {swarmsim.MAX_TRACE_BYTES} bytes", str(location))
    rows = []
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise SchemaError(f"expected 4 utilization values, got {len(fields)}",
                              f"{location}:{lineno}")
        try:
            row = cpu, vram, swap, bandwidth = (float(fields[0]), float(fields[1]),
                                                float(fields[2]), float(fields[3]))
        except ValueError:
            raise SchemaError("expected numeric utilization values", f"{location}:{lineno}") from None
        if not (0.0 <= cpu <= 1.0 and 0.0 <= vram <= 1.0 and 0.0 <= swap <= 1.0
                and 0.0 <= bandwidth <= 1.0):
            raise SchemaError("utilization values must be within [0, 1]", f"{location}:{lineno}")
        rows.append(row)
    if not rows:
        raise SchemaError("trace file holds no samples", str(location))
    return rows


VALUES = st.sampled_from(["0", "1", "0.25", "0.5", "1e-3", ".5", "1.", "-0.0", "0.1234", "1E-300",
                          "+0.75", " 0.5 ", "\t0.3", "0.0_1", "nan", "inf", "1.5", "-0.1", "",
                          "x", "0x1", "0.5 # late"])
PLAIN_VALUES = st.sampled_from(["0", "1", "0.25", "1e-3", ".5", "1.", "-0.0", "0.8765", " 0.5 "])
TRACE_LINES = st.one_of(
    st.lists(PLAIN_VALUES, min_size=4, max_size=4).map(",".join),
    st.lists(PLAIN_VALUES, min_size=4, max_size=4).map(",".join),
    st.lists(VALUES, min_size=3, max_size=5).map(",".join),
    st.lists(PLAIN_VALUES, min_size=4, max_size=4).map(lambda v: ",".join(v) + ","),
    st.tuples(st.lists(PLAIN_VALUES, min_size=3, max_size=3), st.integers(0, 3),
              st.sampled_from(["1.5", "-0.1", "inf", "-inf", "nan", "1.0000001"])).map(
        lambda t: ",".join(t[0][:t[1]] + [t[2]] + t[0][t[1]:])),
    st.sampled_from(["", "   ", "\t", "# cpu,vram,swap,bandwidth", "  # indented", "\t#x",
                     "#", "0.1,0.2\x0c,0.3,0.4", "0.1,0.2,0.3,0.4\x0c", "\x0c", "0.1,0.2\x0b0.3,0.4",
                     "0.1,0.2,0.3,0.4 # trailing", "0.1,0.2,0.3,0.4#", "0.1,,0.3,0.4"]))
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(TRACE_LINES, LINE_ENDS), max_size=8), last_end=st.booleans())
@example(lines=[("# cpu,vram,swap,bandwidth", "\n"), ("0.1,0.2,0.3,0.4 # late", "\n")],
         last_end=True)
@example(lines=[("0.0_1,0.2,0.3,0.4", "\n"), (".5,1.,-0.0,1e-3", "\r\n")], last_end=False)
@example(lines=[("0.1,0.2\x0c,0.3,0.4", "\n")], last_end=True)
@example(lines=[("0.1,0.2,0.3,0.4", "\n"), ("0.1,1.5,0.3,0.4", "\n")], last_end=True)
@example(lines=[("0.1,0.2,inf,0.4", "\n")], last_end=True)
@example(lines=[("0.1,0.2,0.3,0.4", "\r\n"), ("   ", "\r\n"), ("  # c", "\r\n")], last_end=True)
def test_trace_reader_matches_the_line_loop(tmp_path_factory, lines, last_end):
    text = "".join(line + end for line, end in lines)
    if lines and not last_end:
        text = text[:-len(lines[-1][1])]
    path = tmp_path_factory.mktemp("trace") / "load.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = _reference_read_trace(path)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as raised:
            swarmsim._read_trace(path)
        assert str(raised.value) == str(exc)
        return
    rows = swarmsim._read_trace(path)
    assert rows.dtype == np.float64 and rows.shape == (len(expected), 4)
    replayed = [WorkloadGenerator(TraceWorkload("load.csv"), seed=0, worker_index=0,
                                  base_dir=path.parent).sample(k) for k in range(len(expected))]
    for row, sample, want in zip(rows.tolist(), replayed, expected):
        assert all(type(v) is float for v in row)
        assert [v.hex() for v in row] == [v.hex() for v in want]  # signed zeros too
        assert [v.hex() for v in (sample.cpu, sample.vram, sample.swap, sample.bandwidth)] == \
            [v.hex() for v in want]


def test_plain_trace_is_parsed_in_one_bulk_pass(tmp_path, monkeypatch):
    (tmp_path / "load.csv").write_bytes(b"# cpu,vram,swap,bandwidth\r\n#\r\n"
                                        b"0.1, 0.2 ,0.3,0.4\r\n\r\n.5,1.,-0.0,1e-3")

    def no_line_loop(data, location):
        raise AssertionError("the line loop parsed a plain file")
    monkeypatch.setattr(swarmsim, "_line_rows", no_line_loop)
    rows = swarmsim._read_trace(tmp_path / "load.csv")
    assert rows.tolist() == [[0.1, 0.2, 0.3, 0.4], [0.5, 1.0, -0.0, 1e-3]]


@pytest.mark.parametrize("text", [
    b"  # note\n0.1,0.2,0.3,0.4\n   \n\t\n0.5,0.6,0.7,0.8\n",
    b"0.1,0.2,0.3,0.4\r\n \t \r\n\t# tabbed\r\n  #\r\n0.5,0.6,0.7,0.8\r\n  ",
    b"\t\t# header\n 0.1, 0.2 ,0.3,0.4\n\n  \n#\n.5,1.,-0.0,1e-3\n",
])
def test_blank_and_indented_comment_lines_stay_on_the_bulk_path(tmp_path, text):
    location = tmp_path / "load.csv"
    rows = swarmsim._bulk_rows(text)
    assert rows is not None
    expected = np.array(swarmsim._line_rows(text, location), dtype=np.float64)
    assert rows.shape == expected.shape
    assert [v.hex() for v in rows.ravel().tolist()] == [v.hex() for v in expected.ravel().tolist()]


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
    assert all(e.payload["key"] == f"overlay/members/{e.payload['worker']}" for e in registered)
    assert all(e.payload["version"] == 1 for e in registered)
    vteps = [e.payload["vtep"] for e in registered]
    assert len(set(vteps)) == len(vteps)


def test_iteration_determinism():
    cfg = bench_config(iterations=3)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    for k, (r1, r2) in enumerate(zip(first, second)):
        assert r1.total_cost_scaled == r2.total_cost_scaled
        assert [a.worker for a in r1.assignments.values()] == \
               [a.worker for a in r2.assignments.values()]
        (r3, t1), (r4, t2) = run_iteration(cfg, k), run_iteration(cfg, k)
        assert r3 == r4 == r1
        assert trace_to_jsonl(t1) == trace_to_jsonl(t2)
        assert t1.timings == t2.timings


def test_an_iteration_is_that_round_of_the_experiment(tmp_path, monkeypatch):
    # Uniform, fixed and trace workers with one pool; 6 workers x 4 columns make two rounds
    # a block, so later iterations fall in later blocks of run_experiment.
    monkeypatch.setattr(assignment, "BLOCK_CELLS", 48)
    cfg = SimConfig(workers=_mixed_fleet(tmp_path),
                    experiment=bench_experiment(3, dependencies=(("svc01", "svc02"),)),
                    seed=23, iterations=7, base_dir=str(tmp_path))
    assert assignment.block_rounds(6, 4) == 2
    results = run_experiment(cfg)
    assert len(results) == 7
    for k, result in enumerate(results):
        assert run_iteration(cfg, k)[0] == result


def test_iterations_resample_workloads():
    cfg = bench_config(iterations=2)
    first, second = run_experiment(cfg)
    costs_first = sorted(a.cost for a in first.assignments.values())
    costs_second = sorted(a.cost for a in second.assignments.values())
    assert costs_first != costs_second


def test_run_experiment_builds_no_trace_events(monkeypatch):
    made = []
    original = swarmsim.TraceEvent

    def counting(*args, **kwargs):
        made.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(swarmsim, "TraceEvent", counting)
    results = run_experiment(bench_config(iterations=4))
    assert len(results) == 4 and all(result.feasible for result in results)
    assert made == []
    run_iteration(bench_config(), 0)  # a trace's events do pass through the counter
    assert len(made) > 0


def test_run_experiment_lengths():
    assert len(run_experiment(bench_config(iterations=1))) == 1
    results = run_experiment(bench_config(iterations=10))
    assert len(results) == 10
    assert all(result.feasible for result in results)


def test_demo_trace_matches_golden():
    # Three rounds of the shipped demo: a pooled placement and two registrations each.
    cluster = load_cluster(SAMPLES / "bench.cluster.json")
    cfg = SimConfig(workers=cluster.workers, experiment=load_edf(SAMPLES / "mapping-demo.edf.json"),
                    seed=7, iterations=3, base_dir=str(SAMPLES))
    jsonl = "".join(trace_to_jsonl(run_iteration(cfg, k)[1]) for k in range(cfg.iterations))
    golden = Path(__file__).parent / "fixtures" / "simulate_trace_demo.jsonl"
    assert jsonl.encode("utf-8") == golden.read_bytes()


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


@pytest.mark.parametrize("field", ["base_ms", "per_mb_ms"])
def test_fetch_latency_refuses_negative_charges(field):
    # A negative fetch time would start a service before its allocation was computed.
    with pytest.raises(ValueError, match=f"^{field} must be non-negative$"):
        FetchLatency(**{field: -1})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["base_ms", "per_mb_ms"])
def test_fetch_latency_refuses_charges_that_are_not_finite(field, value):
    # Not the image size's fault: the latency names its own field.
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        FetchLatency(**{field: value})


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("field", ["cost_calc_ms", "poll_rtt_ms", "alloc_compute_ms"])
def test_sim_config_refuses_latencies_that_are_not_finite(field, value):
    # An infinite or NaN latency would reach the modelled timings and the scaling grid.
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        bench_config(**{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be non-negative$"):
        bench_config(**{field: -1})


@pytest.mark.parametrize("fleet", ["uniform", "fixed and trace"])
def test_a_negative_iteration_is_refused_before_sampling(tmp_path, fleet, sampled):
    if fleet == "uniform":
        cfg = bench_config(num_workers=3)
    else:
        template = _trace_template(tmp_path, num_workers=2)
        fixed = ClusterWorker(id="f", profile=HardwareProfile(),
                              workload=FixedWorkload((0.2, 0.2, 0.2, 0.2)))
        cfg = replace(template, workers=(*template.workers, fixed))
    with pytest.raises(ValueError, match="^iteration must be non-negative, got -1$"):
        run_iteration(cfg, -1)
    assert sampled == []


@pytest.mark.parametrize("model", [UniformWorkload((0.4, 0.4, 0.4, 0.4), 0.2),
                                   FixedWorkload((0.1, 0.2, 0.3, 0.4)),
                                   TraceWorkload("absent.csv")], ids=["uniform", "fixed", "trace"])
def test_sampling_refuses_a_negative_iteration_for_every_workload_kind(tmp_path, model,
                                                                      kernel_rows):
    # Refused before anything is read or drawn: the trace file does not even exist.
    generator = WorkloadGenerator(model, 1, 0, tmp_path)
    with pytest.raises(ValueError, match="^iteration must be non-negative, got -1$"):
        generator.sample(-1)
    with pytest.raises(ValueError, match="^iteration must be non-negative, got -2$"):
        next(swarmsim.sample_rounds([generator], [0, 3, -2, 5], 2))
    assert kernel_rows == []


def test_config_rejects_duplicate_worker_ids():
    workers = balanced_cluster(3)
    twice = workers + (workers[1],)
    with pytest.raises(DuplicateAgent, match="w02"):
        run_experiment(SimConfig(workers=twice, experiment=bench_experiment(1), seed=0))
    # The message names the first id that repeats an earlier one.
    w1, w2, w3 = (replace(worker, id=f"w{k}") for k, worker in enumerate(balanced_cluster(3), 1))
    with pytest.raises(DuplicateAgent) as raised:
        SimConfig(workers=(w1, w2, w3, w2, w1), experiment=bench_experiment(1), seed=0)
    assert str(raised.value) == "agent 'w2' appears twice in the simulated fleet"



def test_round_results_refuses_a_repeated_worker_id_before_sampling(monkeypatch):
    # ClusterSpec and SimConfig refuse such a fleet first; the pipeline itself refuses it
    # when it prepares, before it draws a row.
    def refuse(*_):
        raise AssertionError("sampled")
    monkeypatch.setattr(swarmsim, "workload_generators", refuse)
    monkeypatch.setattr(swarmsim, "sample_rounds", refuse)
    w1, w2, w3 = (replace(worker, id=f"w{k}") for k, worker in enumerate(balanced_cluster(3), 1))
    rounds = swarmsim.round_results((w1, w2, w3, w2), bench_experiment(2), 0, None, [0, 1])
    with pytest.raises(DuplicateAgent) as raised:
        next(rounds)
    assert str(raised.value) == "agent 'w2' appears twice in the fleet"


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
    cells = list(measure_scaling(range(1, 5), range(1, 7), scaling_template()))
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
    text = "".join(grid_to_csv(cells))
    lines = text.splitlines()
    assert lines[0] == "workers,services,elapsed_ms"
    assert len(lines) == 2
    assert text.endswith("\n") and text.count("\n") == 2


def test_scaling_cells_are_made_as_they_are_read(monkeypatch):
    timed = []
    original = swarmsim._timings

    def counting(*args):
        timed.append(args[1:3])
        return original(*args)
    monkeypatch.setattr(swarmsim, "_timings", counting)
    lines = grid_to_csv(measure_scaling(range(1, 1001), range(1, 1001), scaling_template()))
    assert timed == []  # the checks ran, but no cell is made before it is read
    assert [next(lines) for _ in range(3)] == ["workers,services,elapsed_ms\n", "1,1,258\n",
                                               "1,2,263\n"]
    assert timed == [(1, 1), (1, 2)]


def test_scaling_cell_that_places_nothing_takes_no_deploy_time():
    capable = ClusterWorker(id="able", profile=HardwareProfile(capabilities=frozenset({"gpu"})),
                            workload=FixedWorkload((0.1, 0.1, 0.1, 0.1)))
    incapable = replace(capable, id="unable", profile=HardwareProfile())
    template = SimConfig(workers=(incapable, capable),
                         experiment=ExperimentSpec(name="scaling", services=(
                             make_service("proto", capabilities=("gpu",), image_size_mb=10.0),)),
                         seed=0, poll_rtt_ms=2, cost_calc_ms=5, alloc_compute_ms=1)
    cells = list(measure_scaling([1, 2], [1], template))
    # Both cells poll in parallel (2 + 5 ms) and allocate (1 ms); only w002 can fetch (50 + 20 ms).
    assert [cell.elapsed_ms for cell in cells] == [8, 8 + 70]


def test_scaling_keeps_each_cells_config_checks():
    # Every count is checked before anything else, and the least of them is named.
    least = "^scaling needs worker and service counts of at least 1, got {}$"
    with pytest.raises(EmptyProblem, match=least.format(0)):
        measure_scaling([2, 0], [1], scaling_template())
    with pytest.raises(EmptyProblem, match=least.format(-1)):
        measure_scaling([0, 2], [3, -1], scaling_template())
    with pytest.raises(EmptyProblem, match=least.format(-2)):
        measure_scaling([-2, 0], [2, -1, 0], scaling_template())
    huge = replace(scaling_template(), experiment=ExperimentSpec(
        name="scaling", services=(make_service("proto", image_size_mb=6e307),)))
    message = re.escape("image_size_mb: fetching 1.2e+308 MB takes no finite time")
    with pytest.raises(SchemaError, match=f"^{message}$"):
        measure_scaling([1, 2], [1, 2], huge)
    # A count below 1 comes before the fetch, wherever it stands in the grid.
    for worker_counts in ([1, 0], [0, 1]):
        with pytest.raises(EmptyProblem, match=least.format(0)):
            measure_scaling(worker_counts, [1, 2], huge)
    # The fetch refused names the largest cell's images, not the fewest that overflow (9).
    large = replace(scaling_template(), experiment=ExperimentSpec(
        name="scaling", services=(make_service("proto", image_size_mb=1e307),)))
    message = re.escape(f"image_size_mb: fetching {sum(repeat(1e307, 10))!r} MB takes no finite time")
    with pytest.raises(SchemaError, match=f"^{message}$"):
        measure_scaling([1], [8, 10, 9], large)
    assert len(list(measure_scaling([1], [8, 1], large))) == 2


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """Three trace files of different lengths, shared by every example."""
    directory = tmp_path_factory.mktemp("traces")
    for f in range(3):
        (directory / f"t{f}.csv").write_text(
            "".join(f"0.{(f + k) % 9 + 1},0.{(3 * k) % 10},0.{(f * k) % 10},0.{(k + 5) % 10}\n"
                    for k in range(f + 2)), encoding="utf-8")
    return directory


CAPABILITIES = st.frozensets(st.sampled_from(["gpu", "lidar", "arm"]), max_size=2)
WORKLOADS = st.one_of(
    st.builds(UniformWorkload,
              center=st.tuples(*[st.floats(0.0, 1.0)] * 4), half_width=st.floats(0.0, 0.5)),
    st.builds(TraceWorkload, st.sampled_from([f"t{f}.csv" for f in range(3)])))
COUNTS = st.lists(st.integers(1, 7), min_size=1, max_size=4)


def _reference_scaling(worker_counts, service_counts, template):
    """The grid as each cell once computed it: its own prepared allocation and trace."""
    fleet = tuple(replace(template.workers[i % len(template.workers)], id=f"w{i + 1:03d}")
                  for i in range(max(worker_counts)))
    services = tuple(replace(template.experiment.services[0], name=f"svc{k + 1:03d}")
                     for k in range(max(service_counts)))
    generators = swarmsim.workload_generators(fleet, template.seed, template.base_dir)
    [rows] = next(swarmsim.sample_rounds(generators, [0], 1)).tolist()
    states = [WorkerState(id=w.id, profile=w.profile, workload=WorkloadSample(*row))
              for w, row in zip(fleet, rows)]
    cells = []
    for n in worker_counts:
        for k in service_counts:
            experiment = replace(template.experiment, services=services[:k], dependencies=())
            cfg = replace(template, workers=fleet[:n], experiment=experiment, iterations=1)
            result = allocator.allocate_experiment(states[:n], experiment)
            trace = swarmsim._trace(cfg, result)
            # The timings agree with the rendered events: the last poll reply, the
            # allocation, and the last service start (none when nothing is placed).
            alloc_tick = max(e.tick for e in trace.of_kind("CostReply")) + cfg.alloc_compute_ms
            assert [e.tick for e in trace.of_kind("AllocationComputed")] == [alloc_tick]
            started = [e.tick for e in trace.of_kind("ServiceStarted")]
            assert len(started) == len(result.assignments)
            assert trace.timings["total_ms"] == max([alloc_tick, *started])
            cells.append(swarmsim.ScalingCell(n, k, trace.timings["total_ms"]))
    return cells


_LEVEL = UniformWorkload((0.3, 0.3, 0.1, 0.3), 0.1)


@settings(max_examples=60, deadline=None)
@given(prototypes=st.lists(st.tuples(CAPABILITIES, WORKLOADS), min_size=1, max_size=4),
       required=CAPABILITIES, image_size_mb=st.floats(0.5, 500.0), base_cost=st.floats(0.0, 100.0),
       parallel=st.booleans(), worker_counts=COUNTS, service_counts=COUNTS,
       seed=st.integers(0, 2**40))
# No prototype offers the required tag: no cell places anything.
@example(prototypes=[(frozenset(), _LEVEL), (frozenset({"lidar"}), TraceWorkload("t0.csv"))],
         required=frozenset({"gpu"}), image_size_mb=10.0, base_cost=50.0, parallel=True,
         worker_counts=[1, 4, 2], service_counts=[2, 1], seed=0)
# Only the second prototype offers it: the 1-worker cells place nothing.
@example(prototypes=[(frozenset(), _LEVEL), (frozenset({"gpu"}), TraceWorkload("t1.csv")),
                     (frozenset({"arm"}), _LEVEL)],
         required=frozenset({"gpu"}), image_size_mb=20.0, base_cost=30.0, parallel=True,
         worker_counts=[3, 1, 2, 7], service_counts=[1, 3], seed=5)
# Only the third prototype offers it: the 1- and 2-worker cells place nothing.
@example(prototypes=[(frozenset({"arm"}), TraceWorkload("t2.csv")), (frozenset(), _LEVEL),
                     (frozenset({"gpu", "arm"}), _LEVEL)],
         required=frozenset({"gpu", "arm"}), image_size_mb=0.5, base_cost=100.0, parallel=True,
         worker_counts=[1, 2, 3, 4], service_counts=[4, 2], seed=9)
# Sequential polling: the cost phase grows with the worker count, placed or not.
@example(prototypes=[(frozenset(), _LEVEL), (frozenset({"lidar"}), TraceWorkload("t0.csv"))],
         required=frozenset({"lidar"}), image_size_mb=250.0, base_cost=0.0, parallel=False,
         worker_counts=[5, 1, 3], service_counts=[1, 4], seed=2**33)
def test_scaling_matches_per_cell_allocation_and_trace(trace_dir, prototypes, required,
                                                       image_size_mb, base_cost, parallel,
                                                       worker_counts, service_counts, seed):
    workers = tuple(ClusterWorker(id=f"p{i}", profile=HardwareProfile(capabilities=caps),
                                  workload=model)
                    for i, (caps, model) in enumerate(prototypes))
    service = make_service("proto", base_cost=base_cost, capabilities=required,
                           image_size_mb=image_size_mb)
    template = SimConfig(workers=workers,
                         experiment=ExperimentSpec(name="scaling", services=(service,)),
                         seed=seed, parallel_cost_calc=parallel, base_dir=str(trace_dir))
    assert list(measure_scaling(worker_counts, service_counts, template)) == \
        _reference_scaling(worker_counts, service_counts, template)


def _reference_checked_scaling(worker_counts, service_counts, template):
    """The grid as it was computed when every cell built and checked its own config."""
    worker_counts = list(worker_counts)
    service_counts = list(service_counts)
    if not worker_counts or not service_counts:
        raise EmptyProblem("scaling needs non-empty worker and service ranges")
    prototype_service = template.experiment.services[0]
    fleet = tuple(replace(template.workers[i % len(template.workers)], id=f"w{i + 1:03d}")
                  for i in range(max(worker_counts)))
    services = tuple(replace(prototype_service, name=f"svc{k + 1:03d}")
                     for k in range(max(service_counts)))
    generators = swarmsim.workload_generators(fleet, template.seed, template.base_dir)
    next(swarmsim.sample_rounds(generators, [0], 1))
    hostable = np.logical_or.accumulate(
        costing.build_capability_matrix(fleet, [prototype_service])[:, 0]).tolist()
    fetch_ms = [template.fetch_latency.duration_ms(prototype_service.image_size_mb)]
    experiment = replace(template.experiment, dependencies=())
    cells = []
    for num_workers in worker_counts:
        for num_services in service_counts:
            cfg = replace(template, workers=fleet[:max(num_workers, 0)], iterations=1,
                          experiment=replace(experiment, services=services[:max(num_services, 0)]))
            timings = swarmsim._timings(cfg, len(cfg.workers), len(cfg.experiment.services),
                                        fetch_ms if hostable[num_workers - 1] else [])
            cells.append(swarmsim.ScalingCell(num_workers, num_services, timings["total_ms"]))
    return cells


def _outcome(function, *args):
    """What ``function(*args)`` returns, or the type and message of what it raises."""
    try:
        return function(*args)
    except Exception as exc:  # noqa: BLE001 (the oracle compares any error)
        return type(exc), str(exc)


def _scaling_outcome(*args):
    """``measure_scaling``'s cells, or the type and message of what the call raises.

    Every error is raised by the call itself, before a cell is made: none may
    surface while the cells are read.
    """
    try:
        cells = measure_scaling(*args)
    except Exception as exc:  # noqa: BLE001 (the oracle compares any error)
        return type(exc), str(exc)
    return list(cells)


def _documented_scaling_error(worker_counts, service_counts, template):
    """The type and message of the first fault in ``measure_scaling``'s order, or None.

    The order is: a count below 1; the fleet's inputs, which are uniform workers
    here and pass; the largest cell's fetch.
    """
    if min(worker_counts + service_counts) < 1:
        least = min(worker_counts + service_counts)
        return EmptyProblem, f"scaling needs worker and service counts of at least 1, got {least}"
    largest = sum(repeat(template.experiment.services[0].image_size_mb, max(service_counts)))
    if isinstance(_outcome(template.fetch_latency.duration_ms, largest), tuple):
        return SchemaError, f"image_size_mb: fetching {largest!r} MB takes no finite time"
    return None


SIGNED_COUNTS = st.lists(st.integers(-2, 7), min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(worker_counts=SIGNED_COUNTS, service_counts=SIGNED_COUNTS,
       image_size_mb=st.sampled_from([0.5, 250.0, 1e307, 3e307, 6e307, 1e308]),
       per_mb_ms=st.sampled_from([0.5, 1.0, 1.5]), base_ms=st.sampled_from([0, 50]),
       hosts=st.lists(st.booleans(), min_size=1, max_size=3), parallel=st.booleans())
# Two images overflow, and a worker count is 0: the count is reported, wherever it stands.
@example(worker_counts=[1, 0], service_counts=[1, 2], image_size_mb=1e308, per_mb_ms=1.0,
         base_ms=50, hosts=[True], parallel=True)
@example(worker_counts=[0, 1], service_counts=[1, 2], image_size_mb=1e308, per_mb_ms=1.0,
         base_ms=50, hosts=[True], parallel=True)
# No service, then no worker: the least count is named.
@example(worker_counts=[3, -1], service_counts=[2, 0, 5], image_size_mb=6e307, per_mb_ms=0.5,
         base_ms=0, hosts=[False, True], parallel=False)
# Three images are the first to overflow; the message names the largest cell's five.
@example(worker_counts=[3, 7, 3], service_counts=[5, 3, 3], image_size_mb=6e307,
         per_mb_ms=0.5, base_ms=0, hosts=[False, True], parallel=False)
# Nothing fails: the cells alone are compared.
@example(worker_counts=[7, 1, 4], service_counts=[6, 1, 6], image_size_mb=250.0,
         per_mb_ms=1.5, base_ms=50, hosts=[False, False, True], parallel=False)
def test_scaling_raises_the_first_failing_cells_error(worker_counts, service_counts,
                                                      image_size_mb, per_mb_ms, base_ms, hosts,
                                                      parallel):
    workers = tuple(ClusterWorker(id=f"p{i}",
                                  profile=HardwareProfile(capabilities=frozenset({"gpu"} if h else ())),
                                  workload=_LEVEL) for i, h in enumerate(hosts))
    service = make_service("proto", capabilities=("gpu",), image_size_mb=image_size_mb)
    template = SimConfig(workers=workers,
                         experiment=ExperimentSpec(name="scaling", services=(service,)), seed=4,
                         fetch_latency=FetchLatency(base_ms=base_ms, per_mb_ms=per_mb_ms),
                         parallel_cost_calc=parallel)
    reference = _outcome(_reference_checked_scaling, worker_counts, service_counts, template)
    documented = _documented_scaling_error(worker_counts, service_counts, template)
    # The grids refused are those that some cell's own config refuses ...
    assert (documented is None) == isinstance(reference, list)
    # ... and a grid either has the reference's cells or the error of its first fault.
    assert _scaling_outcome(worker_counts, service_counts, template) == \
        (reference if documented is None else documented)


def test_scaling_rejects_empty_ranges():
    with pytest.raises(EmptyProblem):
        measure_scaling([], [1], scaling_template())


# ---------------------------------------------------------------------------
# blocks of rounds


FIXED = st.builds(FixedWorkload, st.tuples(*[st.floats(0.0, 1.0)] * 4))
SERVICE_NEEDS = st.sampled_from([(), (), ("gpu",), ("arm",), ("lidar",)])


@settings(max_examples=80, deadline=None)
@given(fleet=st.lists(st.tuples(CAPABILITIES, st.one_of(FIXED, WORKLOADS)), min_size=1, max_size=5),
       services=st.lists(st.tuples(st.floats(0.0, 100.0), SERVICE_NEEDS), min_size=1, max_size=6),
       pools=st.integers(0, 3), discount=st.sampled_from([0.5, 0.85, 1.0]),
       iterations=st.integers(1, 7), block_cells=st.sampled_from([1, 7, 30, assignment.BLOCK_CELLS]),
       seed=st.integers(0, 2**40))
def test_block_rounds_equal_per_round_allocations(trace_dir, fleet, services, pools, discount,
                                                  iterations, block_cells, seed):
    # Mixed fixed, trace and uniform workers; pools of columns that may be feasible on
    # fewer workers than a configuration has units (spread > 1); often more units than
    # workers; and blocks small enough to split the command anywhere.
    workers = tuple(ClusterWorker(id=f"w{i}", profile=HardwareProfile(capabilities=caps),
                                  workload=model) for i, (caps, model) in enumerate(fleet))
    specs = tuple(make_service(f"s{j}", cost, needs) for j, (cost, needs) in enumerate(services))
    pools = min(pools, len(specs) // 2)
    experiment = ExperimentSpec(name="blocks", services=specs, pool_discount=discount,
                                dependencies=tuple((f"s{2 * k}", f"s{2 * k + 1}")
                                                   for k in range(pools)))
    cfg = SimConfig(workers=workers, experiment=experiment, seed=seed, iterations=iterations,
                    base_dir=str(trace_dir))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assignment, "BLOCK_CELLS", block_cells)
        blocked = run_experiment(cfg)

    prepared = allocator.prepare(workers, experiment)
    generators = [WorkloadGenerator(w.workload, seed, i, trace_dir) for i, w in enumerate(workers)]
    per_round = [prepared.allocate_rounds([[tuple(g.sample(k)) for g in generators]])[0]
                 for k in range(iterations)]
    assert blocked == per_round


def test_block_rule_bounds_the_cells_of_a_block():
    # The shipped demo (12 workers x 3 services and a pool) runs 50 iterations in one
    # block; a 1000 x 500 fleet, and one worker with 500 services, cost one round at a time.
    assert assignment.block_rounds(12, 3 + 1) >= 50
    assert assignment.block_rounds(1000, 500) == assignment.block_rounds(1, 500) == 1
    # With at least as many workers as columns, the solver lays a round out in
    # workers x columns cells.
    for workers, columns in ((1, 1), (6, 5), (12, 4), (181, 181), (1000, 500)):
        per_block = assignment.block_rounds(workers, columns)
        assert per_block == 1 or per_block * workers * columns <= assignment.BLOCK_CELLS
        assert (per_block + 1) * workers * columns > assignment.BLOCK_CELLS


def test_blocks_bound_the_solver_layout_of_few_workers(monkeypatch):
    # One worker and 24 services of which two pool: 25 columns, and the solver pads each
    # round to as many workers as the 24-unit split configuration has units, so a round
    # lays out 25 x 24 cells, not 25 x 1. Every stack the solver lays out stays within
    # BLOCK_CELLS, or is one round that alone exceeds it.
    layouts = []  # per stack the solver gets: (rounds, rows, padded workers)
    padded = assignment._padded

    def recording(*args):
        matrix = padded(*args)
        layouts.append(matrix.shape)
        return matrix
    monkeypatch.setattr(assignment, "_padded", recording)
    cfg = SimConfig(workers=balanced_cluster(1),
                    experiment=bench_experiment(24, dependencies=(("svc01", "svc02"),)),
                    seed=3, iterations=9)

    monkeypatch.setattr(assignment, "BLOCK_CELLS", 2**40)
    whole = run_experiment(cfg)
    assert layouts == [(9, 25, 24)]
    for block_cells, blocks in ((2000, 3), (1250, 5), (100, 9)):
        monkeypatch.setattr(assignment, "BLOCK_CELLS", block_cells)
        layouts.clear()
        assert run_experiment(cfg) == whole
        assert len(layouts) == blocks
        assert all(rounds * rows * workers <= block_cells or rounds == 1
                   for rounds, rows, workers in layouts)


# ---------------------------------------------------------------------------
# rounds in positions


def test_simulate_builds_no_per_service_objects(tmp_path, monkeypatch, kernel_rows):
    # simulate folds each round's positions as they are; only a caller that reads a
    # result's views builds assignments and outcomes.
    calls = Counter()
    for cls in (Assignment, ConfigurationOutcome, AllocationResult):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    inputs = ["--edf", str(SAMPLES / "mapping-demo.edf.json"),
              "--cluster", str(SAMPLES / "bench.cluster.json"), "--seed", "7"]
    assert main(["simulate", *inputs, "--iterations", "50", "--out-dir", str(tmp_path / "out")]) == 0
    assert calls == Counter(AllocationResult=50)
    # One block of 50 rounds: one word matrix of the 12 levels and 12 x 50 jitter rows.
    assert kernel_rows == [12 + 12 * 50]

    calls.clear()
    assert main(["allocate", *inputs, "--out", str(tmp_path / "report.txt")]) == 0
    assert calls == Counter(AllocationResult=1, ConfigurationOutcome=2, Assignment=3)


def _reference_results(prepared, rounds):
    """A block's rounds placed straight from the solver's pairs, each as the views a result
    gives: one ``Assignment`` per placed service, each cost read off the cost block."""
    values = prepared.costs.block(rounds)
    order = [i ^ (i >> 1) for i in range(len(prepared.selections))]
    solutions = assignment.solve_rounds(
        costing.integer_grid(values), prepared.costs.feasible, [prepared.selections[i] for i in order],
        prepared.scale_order, [len(members) for members in prepared.member_columns])
    results = []
    for round_values, visited in zip(values, solutions):
        solved = [None] * len(order)
        for i, (pairs, cost) in zip(order, visited):
            units = prepared.configurations[i]
            solved[i] = (pairs, sum(len(units[u].members) for _, u in pairs), cost)
        best = min(range(len(solved)), key=lambda i: (-solved[i][1], solved[i][2], i))
        outcomes = tuple(
            ConfigurationOutcome(index=index, units=units, flow_value=len(pairs),
                                 services_assigned=assigned, total_cost_scaled=cost, chosen=index == best)
            for index, (units, (pairs, assigned, cost)) in enumerate(zip(prepared.configurations, solved)))
        placement = [None] * len(prepared.services)
        units, columns = prepared.configurations[best], prepared.selections[best]
        for worker_i, unit_i in solved[best][0]:
            unit = units[unit_i]
            for j in prepared.member_columns[columns[unit_i]]:
                cost = float(round_values[worker_i, j])
                if unit.is_pool:
                    cost *= prepared.discount
                placement[j] = Assignment(service=prepared.services[j].name,
                                          worker=prepared.worker_ids[worker_i], unit=unit, cost=cost)
        unassigned = frozenset(s.name for s, a in zip(prepared.services, placement) if a is None)
        total = outcomes[best].total_cost_scaled
        results.append(SimpleNamespace(
            assignments={a.service: a for a in placement if a is not None},
            total_cost=total / costing.COST_SCALE, total_cost_scaled=total,
            feasible=not unassigned, unassigned=unassigned, outcomes=outcomes,
            num_services=len(placement), chosen=best))
    return results


def _folded_reports(results, workers, services, iterations):
    """simulate's three files, as ``ReportFold.add`` folds ``results``."""
    fold = metrics.ReportFold(workers, services)
    allocations, fairness = [metrics.REPORT_HEADER + "\n"], ["iteration,jain_cost,jain_count\n"]
    for t, result in enumerate(results):
        lines, jain_cost, jain_count = fold.add(result)
        allocations.append(lines)
        fairness.append(f"{t},{jain_cost:.6f},{jain_count:.6f}\n")
    std, cv = fold.dispersion()
    summary = {"iterations": iterations, "workers": len(workers), "services": len(services),
               "feasible_iterations": fold.feasible_rounds, "cost_std": round(std, 6),
               "cost_cv": round(cv, 6), "final_jain_cost": round(jain_cost, 6),
               "final_jain_count": round(jain_count, 6)}
    return {"allocations.csv": "".join(allocations), "fairness.csv": "".join(fairness),
            "summary.json": json.dumps(summary, indent=2) + "\n"}


#: Name endings that RFC 4180 quotes (a comma, a double quote, a line end) and plain ones.
NAME_ENDINGS = st.sampled_from(["", "", ",x", '"q"', "\nx", "\r\n", " y"])


@settings(max_examples=150, deadline=None)
@given(fleet=st.lists(st.tuples(st.booleans(), st.one_of(FIXED, WORKLOADS), NAME_ENDINGS),
                      min_size=1, max_size=6),
       services=st.lists(st.tuples(st.floats(0.0, 100.0), st.booleans(), NAME_ENDINGS),
                         min_size=1, max_size=7),
       pools=st.integers(0, 3), discount=st.sampled_from([0.5, 0.85, 1.0]),
       iterations=st.integers(1, 9), block_cells=st.sampled_from([1, 20, 90, assignment.BLOCK_CELLS]),
       seed=st.integers(2**32, 2**70))
@example(fleet=[(True, FixedWorkload((0.2, 0.2, 0.2, 0.2)), ",x"), (False, FixedWorkload((0.5,) * 4), "")],
         services=[(10.0, True, '"q"'), (20.0, True, ""), (30.0, False, "\nx")], pools=1,
         discount=0.85, iterations=3, block_cells=1, seed=2**32)  # camera services on one camera worker
def test_simulate_reports_equal_the_fold_over_run_experiment(trace_dir, fleet, services, pools,
                                                             discount, iterations, block_cells, seed):
    # Camera classes make some rounds partial or infeasible; small blocks split the command.
    workers = tuple(
        ClusterWorker(id=f"w{i}{ending}", workload=replace(model, path=str(trace_dir / model.path))
                      if isinstance(model, TraceWorkload) else model,
                      profile=HardwareProfile(capabilities=frozenset({"camera"} if camera else ())))
        for i, (camera, model, ending) in enumerate(fleet))
    specs = tuple(make_service(f"s{j}{ending}", cost, ("camera",) if camera else ())
                  for j, (cost, camera, ending) in enumerate(services))
    pools = min(pools, len(specs) // 2)
    experiment = ExperimentSpec(name="records", services=specs, pool_discount=discount,
                                dependencies=tuple((specs[2 * k].name, specs[2 * k + 1].name)
                                                   for k in range(pools)))
    cfg = SimConfig(workers=workers, experiment=experiment, seed=seed, iterations=iterations)
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        patch.setattr(assignment, "BLOCK_CELLS", block_cells)
        directory = Path(work)
        (directory / "x.edf.json").write_text(serialize_edf(experiment), encoding="utf-8")
        (directory / "x.cluster.json").write_text(serialize_cluster(ClusterSpec(workers=workers)),
                                                  encoding="utf-8")
        code = main(["simulate", "--edf", str(directory / "x.edf.json"),
                     "--cluster", str(directory / "x.cluster.json"), "--iterations", str(iterations),
                     "--seed", str(seed), "--out-dir", str(directory / "out")])
        files = {path.name: path.read_bytes().decode("utf-8")
                 for path in sorted((directory / "out").glob("*"))}
        results = run_experiment(cfg)

    if not results[0].assignments:  # nothing can be placed: no report at all
        assert (code, files) == (2, {})
    else:
        assert files == _folded_reports(results, [w.id for w in workers], experiment.service_names(),
                                        iterations)
        assert code == (0 if all(result.feasible for result in results) else 2)

    # Each result's views give what placing straight from the solver's pairs gives: the
    # same outcomes, assignments and explain text. A separately prepared allocation's
    # results compare equal.
    prepared = allocator.prepare(workers, experiment)
    [rounds] = swarmsim.sample_rounds(swarmsim.workload_generators(workers, seed, None),
                                      range(iterations), iterations)
    assert prepared.allocate_rounds(rounds) == results
    reference = _reference_results(prepared, rounds)
    views = ("assignments", "unassigned", "outcomes", "total_cost", "total_cost_scaled", "feasible",
             "num_services", "chosen")
    assert [[getattr(r, view) for view in views] for r in results] == \
        [[getattr(r, view) for view in views] for r in reference]
    assert [allocator.explain(r) for r in results] == [allocator.explain(r) for r in reference]
