r"""Fairness and dispersion analytics over a run's allocation rounds.

The central quantity is Jain's index, (sum x)^2 / (n * sum x^2): 1 when
every worker carries an equal share, 1/n when a single worker carries
everything. An all-zero vector has equal shares too, so its index is 1
(the formula itself would divide zero by zero); this is what an experiment
whose services all cost 0 reports. The fairness series tracks the index over
cumulative per-worker allocated costs, iteration by iteration.

``ReportFold`` is the one fold over a run, one round at a time: each
placement of the round, in service roster order, adds to its worker's
cumulative cost and count shares and to one float64 buffer of placement
costs (for the dispersion), and the fold returns the round's report lines
and Jain's index of both share vectors, in worker roster order. It reads a
result's positions (``AllocationResult.workers`` and ``costs``) as they
are, so it builds no per-service object, once it has checked that the
result's allocation placed over the fold's worker and service rosters, in
order. The ``simulate`` command folds each round as it is made, and its
memory does not grow with the iteration count beyond that buffer (8 bytes
a placement). A library caller folds a run the same way:

    fold = ReportFold(workers, services)
    rounds = [fold.add(result) for result in results]
    report = REPORT_HEADER + "\n" + "".join(lines for lines, _, _ in rounds)
    cost_series = [jain_cost for _, jain_cost, _ in rounds]
    std, cv = fold.dispersion()

Each sum behind a written figure adds left to right, so every Python writes
the same bytes.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

from .allocator import AllocationResult, PreparedAllocation
from .definitions import first_repeat
from .errors import DomainError, EmptyHistory

_TINY = sys.float_info.min  # the smallest normal double, np.finfo(np.float64).tiny

REPORT_HEADER = "iteration,worker,service,cost,jain_cumulative"


def jains_index(values: Iterable[float]) -> float:
    """Fairness of a share vector: 1 is even, 1/n is fully concentrated.

    An all-zero vector is even: its index is 1. Empty, negative or
    non-finite input raises ``DomainError``. Both sums add left to right;
    shares too small or too large to square are divided by their peak first.
    """
    xs = list(map(float, values))
    if not xs:
        raise DomainError("Jain's index needs at least one value")
    total = square_sum = 0.0
    for x in xs:
        if not 0.0 <= x < math.inf:  # NaN fails both comparisons
            raise DomainError("Jain's index is defined for finite non-negative values")
        total += x
        square_sum += x * x
    if not (_TINY <= square_sum and len(xs) * square_sum < math.inf):
        # The squares under- or overflow; the index is scale-free, so divide by the peak first.
        peak = max(xs)
        if peak == 0.0:
            return 1.0  # every share is equal
        return jains_index([x / peak for x in xs])
    return (total * total) / (len(xs) * square_sum)


def _check_rosters(workers: Sequence[str], services: Sequence[str]) -> None:
    """Raise ``DomainError`` if a roster names a worker or a service twice."""
    for kind, names in (("worker", workers), ("service", services)):
        if (repeated := first_repeat(names)) is not None:
            raise DomainError(f"{kind} {repeated!r} appears twice in the roster")


def _check_allocation(t: int, allocation: PreparedAllocation,
                      workers: Sequence[str], services: Sequence[str]) -> None:
    """Raise ``DomainError`` unless round ``t``'s ``allocation`` placed over the rosters, in order.

    The message names the first position whose names differ; None stands for no name.
    """
    for kind, placed, roster in (("worker", allocation.worker_ids, workers),
                                 ("service", [s.name for s in allocation.services], services)):
        for i, (name, expected) in enumerate(zip_longest(placed, roster)):
            if name != expected:
                raise DomainError(f"iteration {t}: the round's {kind} {i} is {name!r}, "
                                  f"the roster's is {expected!r}")


def _csv_field(name: str) -> str:
    """``name`` as one CSV field: quoted as RFC 4180 quotes it when it holds a
    comma, a double quote or a line end, and as it is otherwise."""
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


class ReportFold:
    """A run's reports, folded one round at a time over fixed rosters.

    ``add`` folds a round's ``AllocationResult``, whose positions are the
    rosters' when its allocation was prepared over these worker ids and
    service names, in order. That is checked once per allocation object: a
    round of any other allocation raises ``DomainError`` naming the first
    name that differs, and leaves the fold as it was. A roster that names a
    worker or a service twice raises ``DomainError`` here. Each roster
    name's CSV field is built once, here.
    """

    def __init__(self, workers: Sequence[str], services: Sequence[str]):
        _check_rosters(workers, services)
        self.workers, self.services = tuple(workers), tuple(services)
        self._checked: "PreparedAllocation | None" = None  # the last allocation found on the rosters
        self._worker_fields = [_csv_field(name) for name in self.workers]
        self._service_fields = [_csv_field(name) for name in self.services]
        self.rounds = 0
        self.feasible_rounds = 0
        self._cost = [0.0] * len(self.workers)  # cumulative shares, in roster order
        self._count = [0.0] * len(self.workers)
        self._placed = array("d")  # every placement's cost, round by round

    def add(self, result: AllocationResult) -> tuple[str, float, float]:
        """Fold in the next round: its report lines (rows of the ``REPORT_HEADER``
        CSV, in service roster order), and Jain's index of the cumulative cost and
        count shares after it."""
        if result.allocation is not self._checked:
            _check_allocation(self.rounds, result.allocation, self.workers, self.services)
            self._checked = result.allocation
        cost_shares, count_shares, placed = self._cost, self._count, self._placed
        t, worker_fields, service_fields = self.rounds, self._worker_fields, self._service_fields
        costs = result.costs
        heads = []  # each report line up to its Jain field
        for j, i in enumerate(result.workers):  # each placement, in service roster order
            if i >= 0:
                cost = costs[j]
                cost_shares[i] += cost
                count_shares[i] += 1.0
                placed.append(cost)
                heads.append(f"{t},{worker_fields[i]},{service_fields[j]},{cost:.6f},")
        jain_cost, jain_count = jains_index(cost_shares), jains_index(count_shares)
        ending = f"{jain_cost:.6f}\n"
        self.rounds += 1
        self.feasible_rounds += result.feasible
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

    Every round's allocation must have been prepared over the rosters, in
    order, as in ``ReportFold.add``, and no roster may name one twice.
    """
    _check_rosters(workers, services)
    if not results:
        raise EmptyHistory("allocation frequency needs at least one iteration")
    counts = np.zeros((len(workers), len(services)), dtype=np.int64)
    checked = None
    for t, result in enumerate(results):
        if result.allocation is not checked:
            _check_allocation(t, result.allocation, workers, services)
            checked = result.allocation
        for j, i in enumerate(result.workers):
            if i >= 0:
                counts[i, j] += 1
    return counts
