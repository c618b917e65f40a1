"""Deterministic master-worker orchestration simulator.

One iteration walks the full lifecycle on a logical millisecond clock:
workers join, the master polls every worker for its per-service cost row,
the allocation is computed, and each assigned worker registers its overlay
endpoint and simulates fetching and starting its services. All latencies
are configuration values, all randomness flows from the config seed, so
equal configs produce bit-identical traces.

The lifecycle exists only as trace events; no ``SwarmState`` is kept. One
``WorkloadGenerator`` per worker serves a whole ``run_experiment`` or
``measure_scaling`` call, so a trace file is parsed once, not every round.
"""

from __future__ import annotations

import ipaddress
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .allocator import AllocationResult, allocate_experiment
from .definitions import (
    ClusterWorker,
    ExperimentSpec,
    FixedWorkload,
    TraceWorkload,
    UniformWorkload,
    WorkloadModel,
)
from .errors import DuplicateAgent, EmptyProblem, KeyAbsent, SchemaError
from .model import WorkerState, WorkloadSample, join_worker  # noqa: F401 (perfbench traces it)

_LEVEL_TAG = 0xB15E
_JITTER_TAG = 0x171E
#: Per-iteration jitter applied around a worker's persistent level, as a
#: fraction of the configured half-width.
JITTER_FRACTION = 0.25


class WorkloadGenerator:
    """Seeded utilization source for one worker.

    The stream is a pure function of (seed, worker index, iteration), so
    any iteration can be re-sampled independently and reruns are
    bit-identical.
    """

    def __init__(self, model: WorkloadModel, seed: int, worker_index: int,
                 base_dir: "str | Path | None" = None):
        self.model = model
        self.seed = seed
        self.worker_index = worker_index
        self.base_dir = Path(base_dir) if base_dir is not None else None
        self._trace_rows: list[tuple[float, float, float, float]] | None = None
        if isinstance(model, UniformWorkload):  # the persistent level: one draw per worker
            center = np.asarray(model.center)
            self._level = np.random.default_rng([seed, worker_index, _LEVEL_TAG]).uniform(
                center - model.half_width, center + model.half_width)

    def _rows(self, path: str) -> list[tuple[float, float, float, float]]:
        if self._trace_rows is not None:
            return self._trace_rows
        location = Path(path)
        if self.base_dir is not None and not location.is_absolute():
            location = self.base_dir / location
        rows = []
        for lineno, raw in enumerate(location.read_text(encoding="utf-8").splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise SchemaError(f"expected 4 utilization values, got {len(fields)}",
                                  f"{location}:{lineno}")
            try:
                values = tuple(float(f) for f in fields)
            except ValueError:
                raise SchemaError("expected numeric utilization values", f"{location}:{lineno}") from None
            if any(not 0.0 <= v <= 1.0 for v in values):
                raise SchemaError("utilization values must be within [0, 1]", f"{location}:{lineno}")
            rows.append(values)
        if not rows:
            raise SchemaError("trace file holds no samples", str(location))
        self._trace_rows = rows
        return rows

    def sample(self, iteration: int, timestamp: int = 0) -> WorkloadSample:
        model = self.model
        if isinstance(model, FixedWorkload):
            values = model.values
        elif isinstance(model, UniformWorkload):
            jitter_rng = np.random.default_rng(
                [self.seed, self.worker_index, iteration, _JITTER_TAG])
            jitter_width = model.half_width * JITTER_FRACTION
            jitter = jitter_rng.uniform(-jitter_width, jitter_width, size=4)
            values = tuple(np.clip(self._level + jitter, 0.0, 1.0).tolist())
        elif isinstance(model, TraceWorkload):
            rows = self._rows(model.path)
            values = rows[iteration % len(rows)]
        else:
            raise TypeError(f"unknown workload model {model!r}")
        return WorkloadSample(cpu=values[0], vram=values[1], swap=values[2],
                              bandwidth=values[3], timestamp=timestamp)


class KvRegistry:
    """Versioned last-write-wins key-value store shared within a swarm.

    The master is the only writer in this simulation, which is what keeps
    the store conflict-free; reads always see the highest version.
    """

    def __init__(self):
        self._entries: dict[str, tuple[object, int]] = {}

    def put(self, key: str, value: object) -> int:
        """Store ``value`` and return the new (strictly increasing) version."""
        if not key:
            raise ValueError("registry keys must be non-empty")
        version = self._entries[key][1] + 1 if key in self._entries else 1
        self._entries[key] = (value, version)
        return version

    def get(self, key: str) -> object:
        if key not in self._entries:
            raise KeyAbsent(f"key {key!r} was never written")
        return self._entries[key][0]

    def version(self, key: str) -> int:
        if key not in self._entries:
            raise KeyAbsent(f"key {key!r} was never written")
        return self._entries[key][1]

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._entries if k.startswith(prefix))

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class FetchLatency:
    """Simulated image fetch time: base plus a per-megabyte charge."""

    base_ms: int = 50
    per_mb_ms: float = 2.0

    def duration_ms(self, size_mb: float) -> int:
        return int(round(self.base_ms + self.per_mb_ms * size_mb))


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

    Latency values are model parameters, not measurements: polling a
    worker costs a round trip plus one sequential per-service computation
    charge; with ``parallel_cost_calc`` the master polls all workers
    concurrently, otherwise one after another.
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
        ids = [w.id for w in self.workers]
        if len(set(ids)) != len(ids):
            twice = next(i for k, i in enumerate(ids) if i in ids[:k])
            raise DuplicateAgent(f"agent {twice!r} appears twice in the simulated fleet")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("cost_calc_ms", "poll_rtt_ms", "alloc_compute_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _generators(workers, seed: int, base_dir) -> list[WorkloadGenerator]:
    return [WorkloadGenerator(w.workload, seed, idx, base_dir) for idx, w in enumerate(workers)]


def run_iteration(cfg: SimConfig, iter_index: int) -> tuple[AllocationResult, SimTrace]:
    """Run one full lifecycle round and return its allocation and trace."""
    return _run_round(cfg, iter_index, _generators(cfg.workers, cfg.seed, cfg.base_dir))


def _run_round(cfg: SimConfig, iter_index: int,
               generators: "list[WorkloadGenerator]") -> tuple[AllocationResult, SimTrace]:
    """``run_iteration`` sampling from ``generators``, one per worker of ``cfg``."""
    experiment = cfg.experiment
    num_services = len(experiment.services)
    per_worker_ms = cfg.poll_rtt_ms + num_services * cfg.cost_calc_ms

    stagger = 0 if cfg.parallel_cost_calc else per_worker_ms
    request_tick = [idx * stagger for idx in range(len(cfg.workers))]
    reply_tick = [tick + per_worker_ms for tick in request_tick]
    cost_end = max(reply_tick)

    worker_states = [WorkerState(id=w.id, profile=w.profile,
                                 workload=generator.sample(iter_index, timestamp=tick))
                     for w, generator, tick in zip(cfg.workers, generators, reply_tick)]
    events = [TraceEvent(0, "Join", {"worker": w.id}) for w in cfg.workers]
    events += [TraceEvent(tick, "CostRequest", {"worker": w.id, "services": num_services})
               for w, tick in zip(cfg.workers, request_tick)]
    events += [TraceEvent(tick, "CostReply", {"worker": w.id})
               for w, tick in zip(cfg.workers, reply_tick)]

    result = allocate_experiment(worker_states, experiment)
    alloc_tick = cost_end + cfg.alloc_compute_ms
    events.append(TraceEvent(alloc_tick, "AllocationComputed", {
        "feasible": result.feasible,
        "services_assigned": len(result.assignments),
        "total_cost": round(result.total_cost, 6),
    }))

    registry = KvRegistry()
    roster_index = {w.id: i for i, w in enumerate(cfg.workers)}
    by_name = {s.name: s for s in experiment.services}
    assigned_units = {a.worker: a.unit for a in result.assignments.values()}

    subnet = ipaddress.ip_network(experiment.network.subnet)
    end_tick = alloc_tick
    for worker_id in sorted(assigned_units, key=lambda w: roster_index[w]):
        unit = assigned_units[worker_id]
        index = roster_index[worker_id]
        vtep = str(subnet[(2 + index) % subnet.num_addresses])
        version = registry.put(f"overlay/members/{worker_id}",
                               {"services": list(unit.members), "vtep": vtep})
        events.append(TraceEvent(alloc_tick, "MemberRegistered", {
            "key": f"overlay/members/{worker_id}", "version": version,
            "worker": worker_id, "vtep": vtep,
        }))
        fetch_ms = cfg.fetch_latency.duration_ms(
            sum(by_name[name].image_size_mb for name in unit.members))
        started = alloc_tick + fetch_ms
        for name in unit.members:
            events.append(TraceEvent(alloc_tick, "FetchStarted", {
                "service": name, "worker": worker_id,
                "image_mb": by_name[name].image_size_mb,
            }))
            events.append(TraceEvent(started, "ServiceStarted",
                                     {"service": name, "worker": worker_id}))
        end_tick = max(end_tick, started)

    events.sort(key=lambda e: e.tick)
    timings = {
        "join_ms": 0,
        "cost_ms": cost_end,
        "allocation_ms": cfg.alloc_compute_ms,
        "deploy_ms": end_tick - alloc_tick,
        "total_ms": end_tick,
    }
    return result, SimTrace(events=tuple(events), timings=timings)


def run_experiment(cfg: SimConfig) -> list[tuple[AllocationResult, SimTrace]]:
    """Run ``cfg.iterations`` independent rounds with re-sampled workloads."""
    generators = _generators(cfg.workers, cfg.seed, cfg.base_dir)
    return [_run_round(cfg, k, generators) for k in range(cfg.iterations)]


@dataclass(frozen=True)
class ScalingCell:
    workers: int
    services: int
    elapsed_ms: int


def measure_scaling(worker_counts, service_counts, template: SimConfig) -> list[ScalingCell]:
    """Elapsed swarm-start-to-services-started time over a size grid.

    The template's workers are cycled up to each worker count and its
    first service is cloned up to each service count, so every cell runs
    the same homogeneous workload at a different scale.
    """
    worker_counts = list(worker_counts)
    service_counts = list(service_counts)
    if not worker_counts or not service_counts:
        raise EmptyProblem("scaling needs non-empty worker and service ranges")
    prototype_workers = template.workers
    prototype_service = template.experiment.services[0]
    fleet = tuple(replace(prototype_workers[i % len(prototype_workers)], id=f"w{i + 1:03d}")
                  for i in range(max(worker_counts)))
    generators = _generators(fleet, template.seed, template.base_dir)

    cells = []
    for num_workers in worker_counts:
        workers = fleet[:max(num_workers, 0)]
        for num_services in service_counts:
            services = tuple(
                replace(prototype_service, name=f"svc{k + 1:03d}")
                for k in range(num_services)
            )
            experiment = replace(template.experiment, services=services, dependencies=())
            cfg = replace(template, workers=workers, experiment=experiment, iterations=1)
            _, trace = _run_round(cfg, 0, generators[:num_workers])
            cells.append(ScalingCell(num_workers, num_services, trace.timings["total_ms"]))
    return cells


def grid_to_csv(cells: "list[ScalingCell]") -> str:
    lines = ["workers,services,elapsed_ms"]
    for cell in cells:
        lines.append(f"{cell.workers},{cell.services},{cell.elapsed_ms}")
    return "\n".join(lines) + "\n"
