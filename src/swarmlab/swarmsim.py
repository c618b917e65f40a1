"""Deterministic master-worker orchestration simulator.

A round samples every worker's workload and allocates the experiment's
services on those samples. ``_trace`` renders a round's lifecycle on a
logical millisecond clock: workers join, the master polls every worker for
its per-service cost row, the allocation is computed, and each assigned
worker registers its overlay endpoint and simulates fetching and starting
its services. All latencies are configuration values and all randomness
flows from the config seed, so equal configs produce bit-identical results
and traces.

``sample_rounds`` is the one sampling path; ``WorkloadGenerator.sample``
is its one-worker, one-round case. It yields each block of rounds as one
``(rounds, workers, 4)`` float64 array of load rows in roster order, which
stays one array until it is costed. One ``sample_rounds`` call serves a
whole command and owns every state that sampling needs, made once per call
(parsed trace files, seed words, levels); a negative iteration is refused
before any of it. A block's entropy is one ``uint32`` word matrix, built
with numpy from word matrices (``_word_matrix``, ``_joined``): each row is a
uniform worker's seed and index words, the iteration's words and the tag,
and ``rng.uniform_rows`` hashes it as it is. A trace file is read by
``definitions.read_bounded``, the one reader of every input file: at most
``MAX_TRACE_BYTES``, no FIFO, and a buffer the size of the file. A
generator is a frozen record of what differs per worker: its workload,
seed, index and base directory.
``round_results`` is the one round pipeline of every command: it prepares
the allocation once, before sampling, hands each block of
``assignment.block_rounds`` rounds to
``PreparedAllocation.allocate_rounds``, which costs it in one pass and
places each round as a positional ``AllocationResult``, and yields the
results one at a time, so ``simulate`` holds one block of them at most and
builds no per-service object. ``run_experiment`` returns the results of
every iteration, and ``run_iteration`` the result of one iteration with its
trace. A trace is a view of one round: ``_trace`` draws it from the round's
config and result alone. No command builds worker states.
``measure_scaling`` solves no allocation and clones no worker: a grid cell
deploys its cloned service iff one of its workers can host it, so only the
template's first min(N, T) workers are checked (``check_fleet_inputs``,
which draws nothing) and capability-checked, and a cell costs O(1). It
checks the whole grid once when called, then makes the cells lazily, and
``grid_to_csv`` yields their lines, so ``scaling`` writes a grid in flat
memory. ``validate`` runs the same ``check_fleet_inputs`` on a cluster.
``_timings`` is the one phase-time rule: ``_trace`` and ``measure_scaling``
both read a round's durations from it. The lifecycle exists only as trace
events, so every ``MemberRegistered`` event carries version 1.
"""

from __future__ import annotations

import io
import ipaddress
import json
import math
import re
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import assignment, costing
from .allocator import AllocationResult, prepare
from .definitions import (
    ClusterWorker,
    ExperimentSpec,
    TraceWorkload,
    UniformWorkload,
    WorkloadModel,
    first_repeat,
    left_sum,
    read_bounded,
)
from .errors import DuplicateAgent, EmptyProblem, SchemaError
from .model import WorkloadSample
from .rng import uniform_rows

_LEVEL_TAG = 0xB15E
_JITTER_TAG = 0x171E
#: Per-iteration jitter applied around a worker's persistent level, as a
#: fraction of the configured half-width.
JITTER_FRACTION = 0.25


def _word_matrix(values: "Sequence[int]") -> tuple[np.ndarray, np.ndarray]:
    """The 32-bit words ``np.random.SeedSequence`` makes of each non-negative int in ``values``.

    One ``(values, width)`` ``uint32`` matrix, a row per value, little-endian
    and zero-padded past the row's length, and each row's length: 0 is
    ``[0]``. A list of ints seeds the same stream as the ``uint32`` array
    of its elements' words, concatenated (``_joined``).
    """
    values = list(values)
    if min(values, default=0) < 0:
        raise ValueError(f"entropy must be non-negative, got {min(values)}")
    width = max(1, -(-max(values, default=0).bit_length() // 32))
    # Shifts of Python ints, as object arrays: exact at any size.
    shifts = np.array(range(0, 32 * width, 32), dtype=object)
    words = ((np.array(values, dtype=object).reshape(-1, 1) >> shifts) & 0xFFFFFFFF).astype(np.uint32)
    # A row's length is one past its last nonzero word, and at least 1.
    lengths = np.where(words != 0, np.arange(1, width + 1), 1).max(axis=1, initial=1)
    return words, lengths


def _joined(head: np.ndarray, head_lengths: np.ndarray, tail: np.ndarray, tail_lengths: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``head`` words, then its ``tail`` words, as one word matrix, and the rows' lengths.

    ``head`` and ``tail`` are word matrices as ``_word_matrix`` makes them,
    of shapes ``(..., width)`` with lengths of shape ``(...)``; the leading
    shapes broadcast against each other, and the result has their broadcast
    shape.
    """
    lengths = head_lengths + tail_lengths
    width = head.shape[-1]
    joined = np.zeros((*lengths.shape, width + tail.shape[-1]), np.uint32)
    joined[..., :width] = head
    for start in set(head_lengths.ravel().tolist()):  # a row's tail starts where its head ends
        np.copyto(joined[..., start:start + tail.shape[-1]], tail, where=(head_lengths == start)[..., None])
    return joined, lengths


@dataclass(frozen=True)
class WorkloadGenerator:
    """Seeded utilization source for one worker: what ``sample_rounds`` samples it by.

    The stream is a pure function of (seed, worker index, iteration), so
    any iteration can be re-sampled independently and reruns are
    bit-identical. With ``gen(entropy)`` for
    ``np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))``,
    a ``uniform`` worker's persistent level is ``gen([seed, worker_index,
    _LEVEL_TAG]).uniform(center - half_width, center + half_width)``; an
    iteration's sample adds the jitter ``gen([seed, worker_index, iteration,
    _JITTER_TAG]).uniform(-w, w, size=4)``, w = ``half_width *
    JITTER_FRACTION``, and clips to [0, 1]. The draws are batched:
    ``rng.uniform_rows`` computes them bit for bit, the level together with
    the first jitter rows. A ``trace``
    worker's relative path resolves against ``base_dir`` when given. The
    generator holds only these four values; ``sample_rounds`` keeps every
    state that sampling needs, for the one call that needs it.
    """

    model: WorkloadModel
    seed: int
    worker_index: int
    base_dir: "str | Path | None" = None

    def sample(self, iteration: int) -> WorkloadSample:
        """The sample at ``iteration``: one round of ``sample_rounds`` for this worker alone.

        Each call reads a trace worker's file again and draws a uniform
        worker's level again; ``sample_rounds`` samples many rounds at once.
        """
        [[row]] = next(sample_rounds([self], [iteration], 1)).tolist()
        return WorkloadSample(*row)


#: The largest trace file read, in bytes: 16 MiB, about 600,000 rows of four
#: four-decimal values. ``read_bounded`` stops one byte past it, so a larger
#: file, or an endless one such as a device, is rejected before any parsing,
#: and refuses a FIFO unopened. A file at the bound parses in one bulk pass
#: into a 19 MB array.
MAX_TRACE_BYTES = 16 * 2**20

#: The bytes of a trace file that numpy's reader may parse: printable ASCII, tab and line ends.
_PLAIN_BYTES = bytes([9, 10, 13, *range(32, 127)])
#: The blanks of a later trace line that holds nothing else, or that open its comment, with
#: the line end before them (a literal first character keeps the regex scan fast).
_LEADING_BLANKS = re.compile(rb"\n[ \t]+(?=#|\r?\n|\Z)")


def _read_trace(location: Path) -> np.ndarray:
    """The samples of a trace file as a ``(rows, 4)`` float64 array.

    A sample is one line of four values in [0, 1] each. Blank lines and
    ``#`` comments are skipped. A malformed line raises ``SchemaError`` at
    ``location:line``; NaN and infinities are out of range. A file longer
    than ``MAX_TRACE_BYTES``, or a FIFO, raises ``SchemaError``; the file
    is read by ``read_bounded``, the reader of the definitions files, so its
    buffer is the size of the file. The file is parsed in one bulk pass
    (``_bulk_rows``); the line loop (``_line_rows``) judges any file that
    pass refuses.
    """
    data = read_bounded(location, MAX_TRACE_BYTES, "trace file")
    rows = _bulk_rows(data)
    if rows is None:
        rows = np.array(_line_rows(data, location), dtype=np.float64)
    return rows


def _bulk_rows(data: bytes) -> "np.ndarray | None":
    """The rows of ``data`` in one pass of numpy's C reader, or None if it must not judge them.

    The reader runs only where it reads what the line loop reads: plain
    bytes (``_PLAIN_BYTES``), lines that end in LF or CR LF, and ``#`` only
    as the first non-blank character of a line (the reader would drop a
    comment after a value, which the loop refuses). The blanks that open a
    comment line or fill a blank line are dropped first, in one ``re.sub``
    pass, since the reader refuses what they leave. Its fields are parsed by
    the routine ``float()`` uses, so the values are the loop's. Anything it
    refuses (a bad or out-of-range line, no rows, an underscore in a number)
    is left to the loop.
    """
    if data.translate(None, _PLAIN_BYTES) or (
            b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    hash_at = data.find(b"#")
    while hash_at >= 0:
        if data[data.rfind(b"\n", 0, hash_at) + 1:hash_at].strip(b" \t"):
            return None
        line_end = data.find(b"\n", hash_at)
        hash_at = data.find(b"#", line_end) if line_end >= 0 else -1
    # A first line's leading blanks go too: the reader skips them in a field as float() does.
    data = _LEADING_BLANKS.sub(b"\n", data.lstrip(b" \t"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a file without rows warns; the loop raises
            rows = np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2)
    except ValueError:
        return None
    if rows.shape[1:] != (4,) or not ((rows >= 0.0) & (rows <= 1.0)).all():
        return None
    return rows


def _line_rows(data: bytes, location: Path) -> list[tuple[float, float, float, float]]:
    """The rows of ``data``, parsed line by line; raises at the first bad line.

    A file that is not UTF-8 is refused first, at the line of its first bad byte.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; it stands on the line after their last break.
        lineno = len((data[:exc.start].decode("utf-8") + "_").splitlines())
        raise SchemaError(str(exc), f"{location}:{lineno}") from None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _uniform_values(models: "Sequence[UniformWorkload]", prefixes: tuple[np.ndarray, np.ndarray],
                    widths: np.ndarray, iterations: "Sequence[int]",
                    levels: "np.ndarray | None") -> tuple[np.ndarray, np.ndarray]:
    """``values[k, g]``: uniform worker g's sample at ``iterations[k]``, and the workers' levels.

    Worker g has the workload ``models[g]``, the seed words in row g of the
    word matrix ``prefixes`` (its seed's words, then its index's) and the
    jitter half-width ``widths[g, 0]``. One word matrix holds every row the
    block draws, iteration by iteration and worker by worker: the worker's
    prefix, the iteration's words and the jitter tag. One ``uniform_rows``
    call draws them all, and the persistent ``levels`` first when they are
    None: a level row is the prefix and the level tag. The sum ``level +
    jitter`` and the clip are those of the stream's definition, on the same
    doubles.
    """
    suffixes, lengths = _word_matrix(iterations)
    tags = [_JITTER_TAG] * len(iterations)
    high = np.tile(widths, (len(iterations), 4))
    low = -high
    if levels is None:  # their bounds, center -/+ half_width, in one pass over a (workers, 4) array
        suffixes = np.concatenate([np.zeros((1, suffixes.shape[1]), np.uint32), suffixes])
        lengths = np.concatenate([[0], lengths])
        tags.insert(0, _LEVEL_TAG)
        centers = np.array([m.center for m in models])
        half_widths = np.array([[m.half_width] for m in models])
        low = np.concatenate([centers - half_widths, low])
        high = np.concatenate([centers + half_widths, high])
    # Each tag is one word, after the iteration's.
    suffixes = np.concatenate([suffixes, np.zeros((len(suffixes), 1), np.uint32)], axis=1)
    suffixes[np.arange(len(suffixes)), lengths] = tags
    prefix, prefix_lengths = prefixes
    words, lengths = _joined(prefix[None], prefix_lengths[None], suffixes[:, None], (lengths + 1)[:, None])
    draws = uniform_rows(words.reshape(-1, words.shape[-1]), lengths.reshape(-1), low, high)
    if levels is None:
        levels, draws = draws[:len(models)], draws[len(models):]
    jitter = draws.reshape(len(iterations), len(models), 4)
    return np.clip(levels + jitter, 0.0, 1.0), levels


def _check_latencies(config, names: "Sequence[str]") -> None:
    """Refuse, with ``ValueError``, each of ``config``'s ``names`` fields that is not finite and non-negative."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class FetchLatency:
    """Simulated image fetch time: base plus a per-megabyte charge, each finite and non-negative."""

    base_ms: int = 50
    per_mb_ms: float = 2.0

    def __post_init__(self):
        _check_latencies(self, ("base_ms", "per_mb_ms"))

    def duration_ms(self, size_mb: float) -> int:
        duration = self.base_ms + self.per_mb_ms * size_mb
        if not math.isfinite(duration):
            raise SchemaError(f"fetching {size_mb!r} MB takes no finite time", "image_size_mb")
        return int(round(duration))


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    kind: str
    payload: dict


@dataclass(frozen=True)
class SimTrace:
    """Ordered lifecycle events plus per-phase duration totals."""

    events: tuple[TraceEvent, ...]
    timings: dict[str, int]

    def of_kind(self, kind: str) -> tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)


def trace_to_jsonl(trace: SimTrace) -> str:
    """One JSON object per event, key-sorted for byte stability."""
    lines = []
    for event in trace.events:
        record = {"tick": event.tick, "kind": event.kind, **event.payload}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation needs: fleet, experiment, seed, latencies.

    Latency values are model parameters, not measurements, each finite
    and non-negative (else ``ValueError``): polling a worker costs a round
    trip plus one sequential per-service computation charge; with
    ``parallel_cost_calc`` the master polls all workers concurrently,
    otherwise one after another. Fetching all of the
    experiment's images must take a finite time, or ``SchemaError`` is
    raised.
    """

    workers: tuple[ClusterWorker, ...]
    experiment: ExperimentSpec
    seed: int
    iterations: int = 1
    fetch_latency: FetchLatency = FetchLatency()
    parallel_cost_calc: bool = True
    cost_calc_ms: int = 5
    poll_rtt_ms: int = 2
    alloc_compute_ms: int = 1
    base_dir: "str | None" = None

    def __post_init__(self):
        object.__setattr__(self, "workers", tuple(self.workers))
        if not self.workers:
            raise EmptyProblem("simulation needs at least one worker")
        if (repeated := first_repeat(w.id for w in self.workers)) is not None:
            raise DuplicateAgent(f"agent {repeated!r} appears twice in the simulated fleet")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        _check_latencies(self, ("cost_calc_ms", "poll_rtt_ms", "alloc_compute_ms"))
        # A unit fetches some of the experiment's images, never more than all of them.
        self.fetch_latency.duration_ms(left_sum(s.image_size_mb for s in self.experiment.services))


def workload_generators(workers: "Sequence[ClusterWorker]", seed: int,
                        base_dir: "str | Path | None") -> list[WorkloadGenerator]:
    """One generator per worker, indexed by the worker's position in ``workers``."""
    return [WorkloadGenerator(w.workload, seed, idx, base_dir) for idx, w in enumerate(workers)]


def sample_rounds(generators: "Sequence[WorkloadGenerator]", iterations: "Sequence[int]",
                  per_block: int) -> Iterator[np.ndarray]:
    """``iterations`` in blocks of up to ``per_block`` rounds of load rows.

    A block is one ``(rounds, generators, 4)`` float64 array: round k holds
    one (cpu, vram, swap, bandwidth) row per generator, in roster order. The
    call keeps what its blocks share: each trace file, parsed once into one
    array, whatever the number of workers that replay it; the uniform
    workers' seed words and jitter widths; and their levels, which the first
    block draws and later blocks reuse. One ``uniform_rows`` call draws a
    block's rows for every uniform worker; none is made when no worker is
    uniform. ``trace`` workers gather their block's rows from their arrays;
    a ``fixed`` worker's values are checked once, as ``WorkloadSample``
    checks them, before the first block, and broadcast to every round. A
    negative iteration raises ``ValueError`` before any file is read or any
    row drawn.
    """
    if min(iterations, default=0) < 0:
        raise ValueError(f"iteration must be non-negative, got {min(iterations)}")
    fixed, uniform, traces = [], [], []
    parsed: dict[Path, np.ndarray] = {}  # by location
    for idx, generator in enumerate(generators):
        model = generator.model
        if isinstance(model, UniformWorkload):
            uniform.append(idx)
        elif isinstance(model, TraceWorkload):
            location = Path(model.path)
            if generator.base_dir is not None and not location.is_absolute():
                location = Path(generator.base_dir) / location
            if location not in parsed:
                parsed[location] = _read_trace(location)
            traces.append((idx, parsed[location]))
        else:  # nothing has checked a fixed worker's values yet
            fixed.append((idx, tuple(WorkloadSample(*model.values))))
    models = [generators[i].model for i in uniform]
    # Word matrices cost about 30 us to make even when empty, so a fleet without a
    # uniform worker (every trace-replay scaling template) makes none.
    prefixes = _joined(*_word_matrix([generators[i].seed for i in uniform]),
                       *_word_matrix([generators[i].worker_index for i in uniform])) if uniform else None
    widths = np.array([[m.half_width * JITTER_FRACTION] for m in models])
    levels = None
    for start in range(0, len(iterations), per_block):
        block = iterations[start:start + per_block]
        rounds = np.empty((len(block), len(generators), 4))
        if uniform:
            rounds[:, uniform], levels = _uniform_values(models, prefixes, widths, block, levels)
        for idx, values in fixed:
            rounds[:, idx] = values
        for idx, trace in traces:
            # Python's %, as the stream's definition: numpy's stops at 2**64.
            rounds[:, idx] = trace[[k % len(trace) for k in block]]
        yield rounds


def check_fleet_inputs(workers: "Sequence[ClusterWorker]", base_dir: "str | Path | None") -> None:
    """Check what sampling ``workers`` reads, drawing nothing: ``sample_rounds``' set-up alone.

    Each trace file is read and parsed, a relative path against
    ``base_dir``, and each fixed worker's values are checked, so a fault
    raises as it would in any round; no row is drawn.
    """
    next(sample_rounds(workload_generators(workers, 0, base_dir), [], 1), None)


def _poll_ms(cfg: SimConfig, num_services: int) -> int:
    """How long polling one worker for its cost row of ``num_services`` services takes."""
    return cfg.poll_rtt_ms + num_services * cfg.cost_calc_ms


def _timings(cfg: SimConfig, num_workers: int, num_services: int,
             fetch_ms: "Sequence[int]") -> dict[str, int]:
    """The phase durations of a round of ``num_workers`` x ``num_services`` under ``cfg``.

    ``cfg`` gives the latencies, and the placed units fetch their images
    for ``fetch_ms``. The cost phase ends when the last poll returns; the
    allocation then takes ``alloc_compute_ms``, and deployment lasts until
    the slowest placed unit has fetched (no time when nothing is placed).
    """
    cost_end = _poll_ms(cfg, num_services) * (1 if cfg.parallel_cost_calc else num_workers)
    alloc_tick = cost_end + cfg.alloc_compute_ms
    end_tick = alloc_tick + max([0, *fetch_ms])
    return {
        "join_ms": 0,
        "cost_ms": cost_end,
        "allocation_ms": cfg.alloc_compute_ms,
        "deploy_ms": end_tick - alloc_tick,
        "total_ms": end_tick,
    }


def round_results(workers: "Sequence[ClusterWorker]", experiment: ExperimentSpec, seed: int,
                  base_dir: "str | Path | None", iterations: "Sequence[int]") -> Iterator[AllocationResult]:
    """The results of the rounds at ``iterations``, in order: the one round pipeline.

    It prepares the allocation, which refuses an empty fleet or a repeated
    worker id before anything is sampled, then samples, costs and places
    one block of rounds at a time, as many as the allocation's solver lays
    out at once (``assignment.block_rounds``); nothing runs until the first
    result is read. A result's positions are those of ``workers`` and of
    the experiment's services.
    """
    allocation = prepare(workers, experiment)
    for rounds in sample_rounds(workload_generators(workers, seed, base_dir), iterations,
                                assignment.block_rounds(*allocation.costs.feasible.shape)):
        yield from allocation.allocate_rounds(rounds)


def run_iteration(cfg: SimConfig, iter_index: int) -> tuple[AllocationResult, SimTrace]:
    """Run one full lifecycle round and return its allocation and trace.

    A negative ``iter_index`` raises ``ValueError`` before anything is sampled.
    """
    if iter_index < 0:
        raise ValueError(f"iteration must be non-negative, got {iter_index}")
    [result] = round_results(cfg.workers, cfg.experiment, cfg.seed, cfg.base_dir, [iter_index])
    return result, _trace(cfg, result)


def _trace(cfg: SimConfig, result: AllocationResult) -> SimTrace:
    """The lifecycle trace of a round of ``cfg`` that allocated ``result``."""
    workers, services = cfg.workers, cfg.experiment.services
    roster_index = {w.id: i for i, w in enumerate(workers)}
    by_name = {s.name: s for s in services}
    subnet = ipaddress.ip_network(cfg.experiment.network.subnet)
    assignments = result.assignments
    assigned_units = {a.worker: a.unit for a in assignments.values()}
    placed = sorted(assigned_units, key=roster_index.__getitem__)
    fetch_ms = [cfg.fetch_latency.duration_ms(
        left_sum(by_name[name].image_size_mb for name in assigned_units[worker_id].members))
        for worker_id in placed]
    timings = _timings(cfg, len(workers), len(services), fetch_ms)

    per_worker_ms = _poll_ms(cfg, len(services))
    stagger = 0 if cfg.parallel_cost_calc else per_worker_ms
    events = [TraceEvent(0, "Join", {"worker": w.id}) for w in workers]
    events += [TraceEvent(idx * stagger, "CostRequest", {"worker": w.id, "services": len(services)})
               for idx, w in enumerate(workers)]
    events += [TraceEvent(idx * stagger + per_worker_ms, "CostReply", {"worker": w.id})
               for idx, w in enumerate(workers)]
    alloc_tick = timings["cost_ms"] + timings["allocation_ms"]
    events.append(TraceEvent(alloc_tick, "AllocationComputed", {
        "feasible": result.feasible,
        "services_assigned": len(assignments),
        "total_cost": round(result.total_cost, 6),
    }))
    for worker_id, fetch in zip(placed, fetch_ms):
        unit = assigned_units[worker_id]
        index = roster_index[worker_id]
        vtep = str(subnet[(2 + index) % subnet.num_addresses])
        events.append(TraceEvent(alloc_tick, "MemberRegistered", {
            "key": f"overlay/members/{worker_id}", "version": 1,
            "worker": worker_id, "vtep": vtep,
        }))
        started = alloc_tick + fetch
        for name in unit.members:
            events.append(TraceEvent(alloc_tick, "FetchStarted", {
                "service": name, "worker": worker_id,
                "image_mb": by_name[name].image_size_mb,
            }))
            events.append(TraceEvent(started, "ServiceStarted",
                                     {"service": name, "worker": worker_id}))

    events.sort(key=lambda e: e.tick)
    return SimTrace(events=tuple(events), timings=timings)


def run_experiment(cfg: SimConfig) -> list[AllocationResult]:
    """Allocate ``cfg.iterations`` independent rounds with re-sampled workloads; no trace is built."""
    return list(round_results(cfg.workers, cfg.experiment, cfg.seed, cfg.base_dir,
                              range(cfg.iterations)))


@dataclass(frozen=True, slots=True)
class ScalingCell:
    workers: int
    services: int
    elapsed_ms: int


def measure_scaling(worker_counts, service_counts,
                    template: SimConfig) -> Iterator[ScalingCell]:
    """Elapsed swarm-start-to-services-started time over a size grid, as a lazy iterator.

    The template's workers are cycled up to each worker count and its
    first service is cloned up to each service count, so every cell runs
    the same homogeneous workload at a different scale: a cell is iteration
    0 of the ``SimConfig`` with its first n workers and k services. The
    grid is checked once, before any cell is made, in this order: both
    ranges are non-empty and every count is at least 1 (``EmptyProblem``
    naming the least count); the fleet's inputs (``check_fleet_inputs``);
    and the largest cell's fetch, k = max(service_counts) images summed as
    ``SimConfig`` sums them, which refuses exactly the grids that some
    cell's config refuses, since the fetch time only grows with k. The
    cells are then made one at a time, in grid order, as the returned
    iterator is read, so a grid of any size is written in flat memory.
    Worker i clones template worker i mod T, so only the template's first
    min(N, T) workers are checked and capability-checked. Every unit clones
    the prototype, so a maximum-cardinality allocation places at least one,
    each fetching the same image, iff one of the first min(n, T) of them can
    host the prototype. A cell's time is ``_timings`` of that one fetch or
    of none; nothing is sampled or solved, and no trace is rendered.
    """
    worker_counts, service_counts = list(worker_counts), list(service_counts)
    if not worker_counts or not service_counts:
        raise EmptyProblem("scaling needs non-empty worker and service ranges")
    if (least := min(min(worker_counts), min(service_counts))) < 1:
        raise EmptyProblem(f"scaling needs worker and service counts of at least 1, got {least}")
    prototype_service = template.experiment.services[0]
    # Grid worker i clones template worker i mod T: the first min(N, T) stand for them all.
    roster = template.workers[:max(worker_counts)]
    check_fleet_inputs(roster, template.base_dir)
    # The largest cell fetches the most: if its images take a finite time, every cell's do.
    template.fetch_latency.duration_ms(left_sum(repeat(prototype_service.image_size_mb, max(service_counts))))
    # hostable[min(n, len(roster)) - 1]: one of the first n workers can host the prototype.
    hostable = np.logical_or.accumulate(
        costing.build_capability_matrix(roster, [prototype_service])[:, 0]).tolist()
    fetch_ms = [template.fetch_latency.duration_ms(prototype_service.image_size_mb)]
    return (ScalingCell(n, k, _timings(template, n, k, fetch_ms if hostable[min(n, len(roster)) - 1]
                                       else [])["total_ms"])
            for n in worker_counts for k in service_counts)


def grid_to_csv(cells: "Iterable[ScalingCell]") -> Iterator[str]:
    """The CSV lines of ``cells``, header first, each ending in a newline, made as they are read."""
    yield "workers,services,elapsed_ms\n"
    for cell in cells:
        yield f"{cell.workers},{cell.services},{cell.elapsed_ms}\n"
