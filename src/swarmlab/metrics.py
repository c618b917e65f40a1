r"""Fairness and dispersion analytics over a run's allocation rounds.

The central quantity is Jain's index, (sum x)^2 / (n * sum x^2): 1 when
every worker carries an equal share, 1/n when a single worker carries
everything. An all-zero vector has equal shares too, so its index is 1
(the formula itself would divide zero by zero); this is what an experiment
whose services all cost 0 reports. The fairness series tracks the index over
cumulative per-worker allocated costs, iteration by iteration.

``ReportFold`` is the one fold over a run, one block of rounds at a time:
each placement, round by round and in service roster order, adds to its
worker's cumulative cost and count shares and to one float64 buffer of
placement costs (for the dispersion), and the fold returns the block's
report lines and, per round, Jain's index of both share vectors, in worker
roster order. It reads a block's position arrays (``RoundBlock.workers``
and ``costs``) as they are, so it builds no per-round or per-service
object: the shares are one ``np.add.accumulate`` down the block's rows and
Jain's sums one along its workers, and only the report lines are
formatted per placement. ``add`` folds one ``AllocationResult``, the
one-round case of the same core. Its rosters are those of the
``PreparedAllocation`` it is built from, the one that placed the run's
rounds; a round of another allocation is folded once its names are found
to be the same, in order. The ``simulate`` command folds each block as it
is made, and its memory does not grow with the iteration count beyond that
buffer (8 bytes a placement). A library caller folds a run of results the
same way:

    fold = ReportFold(results[0].allocation)
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

from .allocator import AllocationResult, PreparedAllocation, RoundBlock
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


def _jain_rows(shares: np.ndarray) -> np.ndarray:
    """``jains_index`` of each row of ``shares``, bit for bit.

    Both sums add left to right, as ``np.add.accumulate`` along the worker
    axis adds (never ``np.sum``, which adds pairwise). A row whose squares
    under- or overflow, that is all zero, or that holds a value outside the
    domain is left to ``jains_index``, which rescales it or raises.
    """
    workers = shares.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        total = np.add.accumulate(shares, axis=1)[:, -1]
        square_sum = np.add.accumulate(shares * shares, axis=1)[:, -1]
        jain = (total * total) / (workers * square_sum)
        fast = (_TINY <= square_sum) & (workers * square_sum < math.inf) & (shares.min(axis=1) >= 0.0)
    for k in np.flatnonzero(~fast).tolist():
        jain[k] = jains_index(shares[k].tolist())
    return jain


def _check_allocation(t: int, allocation: PreparedAllocation, rosters: PreparedAllocation) -> None:
    """Raise ``DomainError`` unless round ``t``'s ``allocation`` placed over the worker
    ids and service names of ``rosters``, in order.

    The message names the first position whose names differ; None stands for no name.
    """
    for kind, placed, roster in (("worker", allocation.worker_ids, rosters.worker_ids),
                                 ("service", [s.name for s in allocation.services],
                                  [s.name for s in rosters.services])):
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
    """A run's reports, folded one block of rounds at a time over its allocation's rosters.

    ``allocation`` is the ``PreparedAllocation`` that placed the run's
    rounds: its worker ids and service names, in order, are the rosters.
    ``add_block`` folds a ``RoundBlock`` and ``add`` one ``AllocationResult``,
    its one-round case; their positions are the rosters' when their
    allocation is this one or one prepared over the same names, in order.
    That is checked once per allocation object: a round of an allocation
    over other names raises ``DomainError`` naming the first name that
    differs. Nothing is kept until a block's check and computation are done,
    so a refusal leaves the fold as it was. Each roster name's CSV field is
    built once, here.
    """

    def __init__(self, allocation: PreparedAllocation):
        self.allocation = allocation
        self._checked = allocation  # the last allocation found on the rosters
        self._worker_fields = [_csv_field(name) for name in allocation.worker_ids]
        self._service_fields = [_csv_field(s.name) for s in allocation.services]
        self.rounds = 0
        self.feasible_rounds = 0
        # The cumulative cost shares and then the count shares, each in roster order.
        self._shares = np.zeros(2 * len(allocation.worker_ids))
        self._placed = array("d")  # every placement's cost, round by round

    def add(self, result: AllocationResult) -> tuple[str, float, float]:
        """Fold in the next round: its report lines (rows of the ``REPORT_HEADER``
        CSV, in service roster order), and Jain's index of the cumulative cost and
        count shares after it."""
        lines, [jain_cost], [jain_count] = self._fold(result.allocation, np.array([result.workers]),
                                                      np.array([result.costs], dtype=np.float64))
        return lines, jain_cost, jain_count

    def add_block(self, block: RoundBlock) -> tuple[str, list[float], list[float]]:
        """Fold in the block's rounds: their report lines, and per round Jain's index
        of the cumulative cost and count shares after it."""
        return self._fold(block.allocation, block.workers, block.costs)

    def _fold(self, allocation: PreparedAllocation, workers: np.ndarray, costs: np.ndarray
              ) -> tuple[str, list[float], list[float]]:
        """The fold of rounds whose (rounds, services) positions are ``workers`` and ``costs``.

        Each placement adds to its worker's shares in service roster order,
        as ``+=`` would: a worker's k-th placement of a round is that round's
        sub-step k, and one ``np.add.accumulate`` down the rows of (round,
        sub-step) x workers adds them in that order. Jain's two sums add
        left to right along the worker axis, as ``jains_index`` does; a row
        outside its fast domain goes to ``jains_index`` itself.
        """
        if allocation is not self._checked:
            _check_allocation(self.rounds, allocation, self.allocation)
        num_rounds, num_workers = len(workers), len(self.allocation.worker_ids)
        placed_at = workers >= 0
        at_round, at_service = np.nonzero(placed_at)  # each placement, in (round, service) order
        at_worker, placed = workers[at_round, at_service], costs[at_round, at_service]
        if workers.size and (workers.min() < -1 or workers.max() >= num_workers):
            raise ValueError("a block's positions must index its allocation's workers")
        # A placement's sub-step: how many placements of its round came to its worker before it.
        key = at_round * num_workers + at_worker
        by_key = np.argsort(key, kind="stable")
        sub_step = np.empty_like(key)
        sub_step[by_key] = np.arange(len(key)) - np.searchsorted(key[by_key], key[by_key])
        steps = int(sub_step.max()) + 1 if len(key) else 1
        rows = np.zeros((num_rounds * steps + 1, 2 * num_workers))
        rows[0] = self._shares
        row = 1 + at_round * steps + sub_step
        rows[row, at_worker] = placed
        rows[row, num_workers + at_worker] = 1.0
        shares = np.add.accumulate(rows, axis=0)
        jain = _jain_rows(shares[steps::steps].reshape(2 * num_rounds, num_workers)).tolist()
        jain_cost, jain_count = jain[0::2], jain[1::2]
        feasible = int(placed_at.all(axis=1).sum())

        t = self.rounds
        worker_fields, service_fields = self._worker_fields, self._service_fields
        endings = [f"{value:.6f}\n" for value in jain_cost]
        lines = "".join([f"{t + r},{worker_fields[i]},{service_fields[j]},{cost:.6f},{endings[r]}"
                         for r, j, i, cost in zip(at_round.tolist(), at_service.tolist(), at_worker.tolist(),
                                                  placed.tolist())])
        self._checked = allocation
        self._shares = shares[-1]
        self._placed.frombytes(placed.tobytes())
        self.rounds += num_rounds
        self.feasible_rounds += feasible
        return lines, jain_cost, jain_count

    def dispersion(self) -> tuple[float, float]:
        """Population standard deviation and coefficient of variation of every placement cost.

        Costs too small or too large to square are divided by their peak first.
        """
        if not self._placed:
            raise EmptyHistory("dispersion needs at least one assignment")
        costs = np.frombuffer(self._placed, dtype=np.float64)
        peak = float(costs.max())
        if peak > 0.0 and not (_TINY <= peak * peak and len(costs) * peak * peak < math.inf):
            scaled = costs / peak
            std, mean = float(scaled.std()) * peak, float(scaled.mean()) * peak
        else:
            std, mean = float(costs.std()), float(costs.mean())
        cv = 0.0 if std == 0.0 else std / mean
        return std, cv


def allocation_frequency(results: Sequence[AllocationResult]) -> np.ndarray:
    """How often each (worker, service) pair was assigned, as a count matrix.

    The rows and columns are those of ``results[0].allocation``'s workers
    and services; every later round's allocation must be over the same
    names, in order, as in ``ReportFold.add``.
    """
    if not results:
        raise EmptyHistory("allocation frequency needs at least one iteration")
    rosters = checked = results[0].allocation
    counts = np.zeros((len(rosters.worker_ids), len(rosters.services)), dtype=np.int64)
    for t, result in enumerate(results):
        if result.allocation is not checked:
            _check_allocation(t, result.allocation, rosters)
            checked = result.allocation
        for j, i in enumerate(result.workers):
            if i >= 0:
                counts[i, j] += 1
    return counts
