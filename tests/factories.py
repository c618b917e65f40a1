"""Shared builders for workers, services and randomized allocation instances."""

from __future__ import annotations

import numpy as np

from swarmlab.definitions import (
    ClusterWorker,
    CostWeights,
    ExperimentSpec,
    ServiceSpec,
    UniformWorkload,
)
from swarmlab.model import HardwareProfile, WorkerState, WorkloadSample


def make_workload(cpu=0.0, vram=0.0, swap=0.0, bandwidth=0.0):
    return WorkloadSample(cpu=cpu, vram=vram, swap=swap, bandwidth=bandwidth)


def make_worker(worker_id, capabilities=(), cpu=0.0, vram=0.0, swap=0.0, bandwidth=0.0):
    return WorkerState(
        id=worker_id,
        profile=HardwareProfile(capabilities=frozenset(capabilities)),
        workload=make_workload(cpu, vram, swap, bandwidth),
    )


def make_service(name, base_cost=50.0, capabilities=(), image_size_mb=100.0):
    return ServiceSpec(
        name=name,
        entrypoint="run",
        predefined_cost=base_cost,
        required_capabilities=frozenset(capabilities),
        image_size_mb=image_size_mb,
    )


def make_experiment(services, dependencies=(), weights=CostWeights(), discount=0.9):
    """An experiment of ``services`` and ``dependencies`` under ``weights`` and ``discount``."""
    return ExperimentSpec(name="t", services=tuple(services), dependencies=tuple(dependencies),
                          weights=weights, pool_discount=discount)


def one_round(workers):
    """A block of one round: each worker's own workload row, in roster order."""
    return [[tuple(w.workload) for w in workers]]


BENCH_BASE_COSTS = (50.0, 60.0, 70.0, 40.0, 30.0, 20.0)


def bench_experiment(num_services=6, dependencies=()):
    services = tuple(
        make_service(f"svc{j + 1:02d}", BENCH_BASE_COSTS[j % len(BENCH_BASE_COSTS)])
        for j in range(num_services)
    )
    return ExperimentSpec(name="bench", services=services, dependencies=dependencies)


def balanced_cluster(num_workers=12, center=(0.3, 0.3, 0.1, 0.3), half_width=0.1):
    return tuple(
        ClusterWorker(
            id=f"w{i + 1:02d}",
            profile=HardwareProfile(cpu_cores=4, vram_mb=1024, swap_mb=512),
            workload=UniformWorkload(center=center, half_width=half_width),
        )
        for i in range(num_workers)
    )


def random_instance(rng: np.random.Generator):
    """A small random allocation problem with a controlled feasibility mask.

    Feasibility is steered through capability tags: service j requires tag
    ``t<j>`` and a worker holds exactly the tags of the services it may
    host. Costs are continuous and strictly positive, so integerized ties
    are not a concern.
    """
    num_workers = int(rng.integers(1, 6))
    num_services = int(rng.integers(1, 5))

    feasible = rng.random((num_workers, num_services)) < 0.8
    workers = []
    for i in range(num_workers):
        tags = frozenset(f"t{j}" for j in range(num_services) if feasible[i, j])
        beta = rng.random(4)
        workers.append(WorkerState(
            id=f"w{i}",
            profile=HardwareProfile(capabilities=tags),
            workload=WorkloadSample(*[float(b) for b in beta]),
        ))

    services = [
        make_service(f"s{j}", base_cost=float(rng.uniform(0.5, 100.0)), capabilities={f"t{j}"})
        for j in range(num_services)
    ]

    dependencies = []
    if num_services >= 2 and rng.random() < 0.5:
        a, b = rng.choice(num_services, size=2, replace=False)
        dependencies.append((services[int(a)].name, services[int(b)].name))

    raw = rng.random(4) + 0.01
    raw /= raw.sum()
    weights = CostWeights(*[float(w) for w in raw])
    discount = float(rng.uniform(0.5, 1.0))
    return workers, services, dependencies, weights, discount
