"""Fairness and dispersion analytics over allocation histories.

The central quantity is Jain's index, (sum x)^2 / (n * sum x^2): 1 when
every worker carries an equal share, 1/n when a single worker carries
everything. An all-zero vector has equal shares too, so its index is 1
(the formula itself would divide zero by zero); this is what an experiment
whose services all cost 0 reports. The fairness series tracks the index over
cumulative per-worker allocated costs, iteration by iteration.

``ReportFold`` is the one fold over a run: it takes one result at a time,
adds its placements to the cumulative per-worker cost and count shares, in
roster order, and returns the round's report lines and both indexes; it
keeps every placement cost in one float64 buffer for the dispersion. The
``simulate`` command folds each round as it is made, so its memory does not
grow with the iteration count beyond that buffer (8 bytes a placement).
``fairness_series``, ``emit_report`` and ``cost_dispersion`` run the same
fold over a whole history.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .allocator import AllocationResult
from .errors import DomainError, EmptyHistory

_TINY = sys.float_info.min  # the smallest normal double, np.finfo(np.float64).tiny


def jains_index(values: Iterable[float]) -> float:
    """Fairness of a share vector: 1 is even, 1/n is fully concentrated.

    An all-zero vector is even: its index is 1. Empty or negative input
    raises ``DomainError``.
    """
    xs = list(map(float, values))
    if not xs:
        raise DomainError("Jain's index needs at least one value")
    if any(map((0.0).__gt__, xs)):  # any x < 0
        raise DomainError("Jain's index is defined for non-negative values")
    square_sum = sum(map(operator.mul, xs, xs))
    if square_sum < _TINY:
        # The squares underflow; the index is scale-free, so divide by the peak first.
        peak = max(xs)
        if peak == 0.0:
            return 1.0  # every share is equal
        xs = [x / peak for x in xs]
        square_sum = sum(map(operator.mul, xs, xs))
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


@dataclass(frozen=True)
class AllocationHistory:
    """Per-iteration allocation results over fixed worker/service rosters."""

    results: tuple[AllocationResult, ...]
    workers: tuple[str, ...]
    services: tuple[str, ...]


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


def _csv_field(name: str) -> str:
    """``name`` as one CSV field: quoted as RFC 4180 quotes it when it holds a
    comma, a double quote or a line end, and as it is otherwise."""
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


class ReportFold:
    """A run's reports, folded one round at a time over fixed rosters.

    ``add`` takes the next round's result; the rosters are trusted, since
    the allocator only names their workers and services. Each roster name's
    CSV field is built once, here.
    """

    def __init__(self, workers: Sequence[str], services: Sequence[str]):
        self.services = tuple(services)
        self._fields = {name: _csv_field(name) for name in (*workers, *services)}
        self.rounds = 0
        self.feasible_rounds = 0
        self._cost = dict.fromkeys(workers, 0.0)  # cumulative shares, in roster order
        self._count = dict.fromkeys(workers, 0.0)
        self._placed = array("d")  # every placement's cost, round by round

    def add(self, result: AllocationResult) -> tuple[str, float, float]:
        """Fold in the next round: its ``emit_report`` lines, and Jain's index of the
        cumulative cost and count shares after it."""
        assignments = result.assignments
        for assignment in assignments.values():
            self._cost[assignment.worker] += assignment.cost
            self._count[assignment.worker] += 1.0
            self._placed.append(assignment.cost)
        jain_cost, jain_count = jains_index(self._cost.values()), jains_index(self._count.values())
        t, jain = self.rounds, f"{jain_cost:.6f}"
        lines = []
        fields = self._fields
        for service in self.services:
            a = assignments.get(service)
            if a is not None:
                lines.append(f"{t},{fields[a.worker]},{fields[service]},{a.cost:.6f},{jain}\n")
        self.rounds += 1
        self.feasible_rounds += result.feasible
        return "".join(lines), jain_cost, jain_count

    def dispersion(self) -> tuple[float, float]:
        """Population standard deviation and coefficient of variation of every placement cost."""
        if not self._placed:
            raise EmptyHistory("dispersion needs at least one assignment")
        costs = np.frombuffer(self._placed, dtype=np.float64)
        std = float(costs.std())
        mean = float(costs.mean())
        cv = 0.0 if std == 0.0 else std / mean
        return std, cv


def _fold(history: AllocationHistory) -> tuple[ReportFold, list[tuple[str, float, float]]]:
    """The fold over ``history``, and what each round added."""
    fold = ReportFold(history.workers, history.services)
    return fold, [fold.add(result) for result in history.results]


@dataclass(frozen=True)
class FairnessSeries:
    """Jain's index after each iteration, over cumulative per-worker shares."""

    values: tuple[float, ...]
    basis: str  # "cost" | "count"


def fairness_series(history: AllocationHistory, basis: str = "cost") -> FairnessSeries:
    """Cumulative fairness over allocated costs (canonical) or counts."""
    if basis not in ("cost", "count"):
        raise ValueError(f"basis must be 'cost' or 'count', got {basis!r}")
    if not history.results:
        raise EmptyHistory("fairness series needs at least one iteration")
    _, rounds = _fold(history)
    column = 1 if basis == "cost" else 2
    return FairnessSeries(values=tuple(r[column] for r in rounds), basis=basis)


def cost_dispersion(history: AllocationHistory) -> tuple[float, float]:
    """Population standard deviation and coefficient of variation of all
    per-assignment costs across iterations."""
    fold, _ = _fold(history)
    return fold.dispersion()


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
    _, rounds = _fold(history)
    return REPORT_HEADER + "\n" + "".join(lines for lines, _, _ in rounds)
