"""Fairness and dispersion analytics over allocation histories.

The central quantity is Jain's index, (sum x)^2 / (n * sum x^2): 1 when
every worker carries an equal share, 1/n when a single worker carries
everything. An all-zero vector has equal shares too, so its index is 1
(the formula itself would divide zero by zero); this is what an experiment
whose services all cost 0 reports. The fairness series tracks the index over
cumulative per-worker allocated costs, iteration by iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .allocator import AllocationResult
from .errors import DomainError, EmptyHistory


def jains_index(values: Iterable[float]) -> float:
    """Fairness of a share vector: 1 is even, 1/n is fully concentrated.

    An all-zero vector is even: its index is 1. Empty or negative input
    raises ``DomainError``.
    """
    xs = [float(v) for v in values]
    if not xs:
        raise DomainError("Jain's index needs at least one value")
    if any(x < 0 for x in xs):
        raise DomainError("Jain's index is defined for non-negative values")
    square_sum = sum(x * x for x in xs)
    if square_sum < np.finfo(np.float64).tiny:
        # The squares underflow; the index is scale-free, so divide by the peak first.
        peak = max(xs)
        if peak == 0.0:
            return 1.0  # every share is equal
        xs = [x / peak for x in xs]
        square_sum = sum(x * x for x in xs)
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


@dataclass(frozen=True)
class AllocationHistory:
    """Per-iteration allocation results over fixed worker/service rosters."""

    results: tuple[AllocationResult, ...]
    workers: tuple[str, ...]
    services: tuple[str, ...]
    #: ``fairness_series`` by basis, each computed on first use.
    _series: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_history(results: Sequence[AllocationResult],
                  workers: Sequence[str],
                  services: Sequence[str]) -> AllocationHistory:
    """Bundle results with their rosters, checking every reference."""
    worker_set = set(workers)
    service_set = set(services)
    for t, result in enumerate(results):
        for assignment in result.assignments.values():
            if assignment.worker not in worker_set:
                raise DomainError(f"iteration {t}: unknown worker {assignment.worker!r}")
            if assignment.service not in service_set:
                raise DomainError(f"iteration {t}: unknown service {assignment.service!r}")
        if not result.unassigned <= service_set:
            raise DomainError(f"iteration {t}: unassigned services outside the roster")
    return AllocationHistory(results=tuple(results), workers=tuple(workers),
                             services=tuple(services))


@dataclass(frozen=True)
class FairnessSeries:
    """Jain's index after each iteration, over cumulative per-worker shares."""

    values: tuple[float, ...]
    basis: str  # "cost" | "count"


def fairness_series(history: AllocationHistory, basis: str = "cost") -> FairnessSeries:
    """Cumulative fairness over allocated costs (canonical) or counts.

    Computed once per history and basis; later calls return the same series.
    """
    if basis not in ("cost", "count"):
        raise ValueError(f"basis must be 'cost' or 'count', got {basis!r}")
    if not history.results:
        raise EmptyHistory("fairness series needs at least one iteration")
    if basis not in history._series:
        cumulative = {w: 0.0 for w in history.workers}
        values = []
        for result in history.results:
            for assignment in result.assignments.values():
                cumulative[assignment.worker] += assignment.cost if basis == "cost" else 1.0
            values.append(jains_index(cumulative.values()))
        history._series[basis] = FairnessSeries(values=tuple(values), basis=basis)
    return history._series[basis]


def cost_dispersion(history: AllocationHistory) -> tuple[float, float]:
    """Population standard deviation and coefficient of variation of all
    per-assignment costs across iterations."""
    costs = [a.cost for result in history.results for a in result.assignments.values()]
    if not costs:
        raise EmptyHistory("dispersion needs at least one assignment")
    arr = np.asarray(costs, dtype=np.float64)
    std = float(arr.std())
    mean = float(arr.mean())
    cv = 0.0 if std == 0.0 else std / mean
    return std, cv


def allocation_frequency(history: AllocationHistory) -> np.ndarray:
    """How often each (worker, service) pair was assigned, as a count matrix."""
    if not history.results:
        raise EmptyHistory("allocation frequency needs at least one iteration")
    worker_row = {w: i for i, w in enumerate(history.workers)}
    service_col = {s: j for j, s in enumerate(history.services)}
    counts = np.zeros((len(history.workers), len(history.services)), dtype=np.int64)
    for result in history.results:
        for assignment in result.assignments.values():
            counts[worker_row[assignment.worker], service_col[assignment.service]] += 1
    return counts


REPORT_HEADER = "iteration,worker,service,cost,jain_cumulative"


def emit_report(history: AllocationHistory) -> str:
    """Flat per-assignment CSV report with the cumulative fairness column.

    Rows are ordered by iteration, then by service roster order, so equal
    histories produce byte-identical documents.
    """
    if not history.results:
        raise EmptyHistory("report needs at least one iteration")
    series = fairness_series(history, basis="cost").values

    lines = [REPORT_HEADER]
    for t, result in enumerate(history.results):
        for service in history.services:
            assignment = result.assignments.get(service)
            if assignment is not None:
                lines.append(f"{t},{assignment.worker},{service},"
                             f"{assignment.cost:.6f},{series[t]:.6f}")
    return "\n".join(lines) + "\n"
