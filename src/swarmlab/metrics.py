r"""Fairness and dispersion analytics over a run's allocation rounds.

The central quantity is Jain's index, (sum x)^2 / (n * sum x^2): 1 when
every worker carries an equal share, 1/n when a single worker carries
everything. An all-zero vector has equal shares too, so its index is 1
(the formula itself would divide zero by zero); this is what an experiment
whose services all cost 0 reports. The fairness series tracks the index over
cumulative per-worker allocated costs, iteration by iteration.

``ReportFold`` is the one fold over a run, one round at a time, through
one core: each placement of the round, in service roster order, adds to its
worker's cumulative cost and count shares and to one float64 buffer of
placement costs (for the dispersion), and the core returns the round's
report lines and Jain's index of both share vectors, in worker roster
order. The ``simulate`` command folds each round's compact
``allocator.RoundRecord`` as it is made (``add_record``), builds no
per-service object, and its memory does not grow with the iteration count
beyond that buffer (8 bytes a placement). A library caller folds a run's
results through the same core (``add``), each checked against the worker
and service rosters first:

    fold = ReportFold(workers, services)
    rounds = [fold.add(result) for result in results]
    report = REPORT_HEADER + "\n" + "".join(lines for lines, _, _ in rounds)
    cost_series = [jain_cost for _, jain_cost, _ in rounds]
    std, cv = fold.dispersion()
"""

from __future__ import annotations

import operator
import sys
from array import array
from typing import AbstractSet, Container, Iterable, Sequence

import numpy as np

from .allocator import AllocationResult, RoundRecord
from .definitions import first_repeat
from .errors import DomainError, EmptyHistory

_TINY = sys.float_info.min  # the smallest normal double, np.finfo(np.float64).tiny

REPORT_HEADER = "iteration,worker,service,cost,jain_cumulative"


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


def _check_rosters(workers: Sequence[str], services: Sequence[str]) -> None:
    """Raise ``DomainError`` if a roster names a worker or a service twice."""
    for kind, names in (("worker", workers), ("service", services)):
        if (repeated := first_repeat(names)) is not None:
            raise DomainError(f"{kind} {repeated!r} appears twice in the roster")


def _check_round(t: int, result: AllocationResult,
                 workers: Container[str], services: AbstractSet[str]) -> None:
    """Raise ``DomainError`` unless round ``t`` names only roster workers and services."""
    for assignment in result.assignments.values():
        if assignment.worker not in workers:
            raise DomainError(f"iteration {t}: unknown worker {assignment.worker!r}")
        if assignment.service not in services:
            raise DomainError(f"iteration {t}: unknown service {assignment.service!r}")
    if not result.unassigned <= services:
        raise DomainError(f"iteration {t}: unassigned services outside the roster")


def _csv_field(name: str) -> str:
    """``name`` as one CSV field: quoted as RFC 4180 quotes it when it holds a
    comma, a double quote or a line end, and as it is otherwise."""
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


class ReportFold:
    """A run's reports, folded one round at a time over fixed rosters.

    One core folds a round given, per service roster position, the roster
    position of the worker placed on it (-1 where unplaced) and its cost.
    ``add_record`` folds a ``RoundRecord`` as it is, whose positions are the
    rosters' when they are the prepared allocation's worker ids and service
    names, in order; that is how ``simulate`` folds. ``add`` takes an
    ``AllocationResult``: the rosters are checked, and a round that names a
    worker or service outside them raises ``DomainError`` and leaves the
    fold as it was; its names are then mapped to roster positions. A roster
    that names a worker or a service twice raises ``DomainError`` here. Each
    roster name's CSV field is built once, here.
    """

    def __init__(self, workers: Sequence[str], services: Sequence[str]):
        _check_rosters(workers, services)
        self.services = tuple(services)
        self._worker_row = {name: i for i, name in enumerate(workers)}
        self._service_column = {name: j for j, name in enumerate(self.services)}
        self._worker_fields = [_csv_field(name) for name in workers]
        self._service_fields = [_csv_field(name) for name in self.services]
        self.rounds = 0
        self.feasible_rounds = 0
        self._cost = [0.0] * len(self._worker_fields)  # cumulative shares, in roster order
        self._count = [0.0] * len(self._worker_fields)
        self._placed = array("d")  # every placement's cost, round by round

    def add(self, result: AllocationResult) -> tuple[str, float, float]:
        """Fold in the next round's result, as ``add_record`` folds a record."""
        _check_round(self.rounds, result, self._worker_row, self._service_column.keys())
        workers, costs = [-1] * len(self.services), [0.0] * len(self.services)
        for assignment in result.assignments.values():
            j = self._service_column[assignment.service]
            workers[j], costs[j] = self._worker_row[assignment.worker], assignment.cost
        return self._fold(workers, costs, result.feasible)

    def add_record(self, record: RoundRecord) -> tuple[str, float, float]:
        """Fold in the next round: its report lines (rows of the ``REPORT_HEADER``
        CSV, in service roster order), and Jain's index of the cumulative cost and
        count shares after it."""
        return self._fold(record.workers, record.costs, record.feasible)

    def _fold(self, workers: Sequence[int], costs: Sequence[float], feasible: bool
              ) -> tuple[str, float, float]:
        """The one fold: each placement, in service roster order, adds to its worker's shares."""
        cost_shares, count_shares, placed = self._cost, self._count, self._placed
        t, worker_fields, service_fields = self.rounds, self._worker_fields, self._service_fields
        heads = []  # each report line up to its Jain field
        for j, i in enumerate(workers):
            if i >= 0:
                cost = costs[j]
                cost_shares[i] += cost
                count_shares[i] += 1.0
                placed.append(cost)
                heads.append(f"{t},{worker_fields[i]},{service_fields[j]},{cost:.6f},")
        jain_cost, jain_count = jains_index(cost_shares), jains_index(count_shares)
        ending = f"{jain_cost:.6f}\n"
        self.rounds += 1
        self.feasible_rounds += feasible
        return ending.join(heads) + ending if heads else "", jain_cost, jain_count

    def dispersion(self) -> tuple[float, float]:
        """Population standard deviation and coefficient of variation of every placement cost."""
        if not self._placed:
            raise EmptyHistory("dispersion needs at least one assignment")
        costs = np.frombuffer(self._placed, dtype=np.float64)
        std = float(costs.std())
        mean = float(costs.mean())
        cv = 0.0 if std == 0.0 else std / mean
        return std, cv


def allocation_frequency(results: Sequence[AllocationResult],
                         workers: Sequence[str], services: Sequence[str]) -> np.ndarray:
    """How often each (worker, service) pair was assigned, as a count matrix.

    Every round must name only roster workers and services, as in
    ``ReportFold.add``, and no roster may name one twice.
    """
    _check_rosters(workers, services)
    if not results:
        raise EmptyHistory("allocation frequency needs at least one iteration")
    worker_row = {w: i for i, w in enumerate(workers)}
    service_col = {s: j for j, s in enumerate(services)}
    counts = np.zeros((len(workers), len(services)), dtype=np.int64)
    for t, result in enumerate(results):
        _check_round(t, result, worker_row, service_col.keys())
        for assignment in result.assignments.values():
            counts[worker_row[assignment.worker], service_col[assignment.service]] += 1
    return counts
