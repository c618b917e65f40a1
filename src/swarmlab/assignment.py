"""Min-cost assignment by shortest augmenting paths, warm-started across column selections.

Every allocator problem is a bipartite matching with unit capacities, so it
is solved on the dense worker x unit cost matrix rather than as a flow
network. Units are the rows and workers the columns; each row is matched in
turn along a shortest augmenting path (Dijkstra over reduced costs with row
and column potentials, as in Jonker & Volgenant 1987 and Crouse 2016, "On
implementing 2D rectangular assignment algorithms"). All arithmetic is on
Python ints, so the optimum is exact on the integer cost grid.

Infeasible pairs cost a big M, the sum of all feasible costs plus one:
a single infeasible pair then outweighs any set of feasible ones, so the
solution first maximizes the number of feasible pairs and then minimizes
their cost. Given column weights (the allocator's service counts), it then
places the most weight: a column of weight ``w`` costs ``cost * spread +
(w_max - w)``, where ``spread = heaviest * (w_max - 1) + 1`` exceeds any sum
of the offsets (``heaviest`` is the largest weight of a selection), and a
total is read back ``// spread``. ``spread`` is 1, the identity, without
weights above 1 or when every column is feasible on as many workers as the
largest selection has units, so that every selection places all its units.
``solve_rounds`` owns every number of the search. ``_encoded`` applies the
weights and computes each round's big M once, which also picks int64 or,
from 2**62 on, Python ints. ``_padded`` lays out the whole stack, the
allocator's block of rounds, at once: one row per column, padded with
workers of cost big M up to the largest selection's size, and one
``tolist()``; ``block_rounds`` counts the rounds that fit ``BLOCK_CELLS``
cells of that layout. Each matrix then goes to ``solve_selections`` both as
the numpy array that ``_seed`` reads and as its Python rows, so the search
runs no numpy of its own. ``solve`` is the one-matrix, one-selection case.

``solve_selections`` solves several selections of the matrix's columns
(the allocator's pool-or-split configurations) one after another, keeping
the potentials and the matching from one selection to the next, as the
dynamic Hungarian algorithm does when costs change (Mills-Tettey, Stentz &
Dias 2007). Padding columns cost big M on every unit, as an infeasible
worker does, so there are at least as many columns as units. Every column
that no unit holds belongs to one implicit pool: the rows that would pad
the problem to a square (Bijsterbosch & Volgenant 2010) all cost 0, so
dual feasibility puts every column they hold at one level, the highest
column potential, and one row of potential minus that level stands for
all of them. A search that reaches the pool settles all of its columns at
once and relaxes the rest from it, so no search walks the padding row by
row. A unit that enters takes a column that a leaving unit freed or, when
none is left, one the pool gives up; each freed column that no unit takes
returns to the pool by one search from the pool.

Given the columns' ``order`` by cost scale, largest first, a cold start of
at least ``SEED_MIN_UNITS`` units begins from ``_seed`` instead of an empty
matching. On costs about a unit's scale times a worker's load every unit
wants the same cheap workers, so each augmenting path from an empty
matching walks about half the workers. The seed pairs the units in order
with the least costly free workers, as the rearrangement inequality
(Hardy, Littlewood & Polya, *Inequalities*, 10.2) does on exact products,
telescopes the column potentials back along the pairs, and keeps every
column that no unit holds at the top potential, 0, where the pool holds
them tight. Pairs left not tight are matched by ``_augment``, the one
search, so the optimum never depends on the costs' shape. Among equal-cost
optima the result is deterministic for a given matrix, order of selections
and column order but follows no documented rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: The fewest units whose first selection starts from ``_seed``'s matching.
#: Below it the searches from an empty matching are short and the seed's set-up
#: costs more than it saves: on random two-class fleets of twice as many
#: workers as units, seeded and plain cold solves break even at about 5 units.
SEED_MIN_UNITS = 6


def solve_rounds(scaled: np.ndarray, feasible: np.ndarray, selections: Sequence[Sequence[int]],
                 order: Sequence[int] | None = None, weights: Sequence[int] | None = None,
                 ) -> list[list[tuple[list[tuple[int, int]], int]]]:
    """``solve_selections`` on each of a stack of cost matrices.

    ``scaled`` holds non-negative integer costs shaped (rounds, workers,
    columns), int64 or Python ints in an object array, ``feasible`` the
    pairs that may be matched, (workers, columns), and ``weights`` each
    column's positive weight, if any. Returns each round's per-selection
    results, their costs in ``scaled``'s units.
    """
    units = max(map(len, selections), default=0)
    encoded, big_ms, spread = _encoded(scaled, feasible, selections, units, weights)
    matrices = _padded(encoded, feasible, max(feasible.shape[0], units), big_ms)
    solved = [solve_selections(matrix, rows, big_m, selections, order)
              for matrix, rows, big_m in zip(matrices, matrices.tolist(), big_ms)]
    if spread > 1:  # a total is spread * cost plus offsets that sum to less than spread
        solved = [[(pairs, total // spread) for pairs, total in rounds] for rounds in solved]
    return solved


def solve(scaled: np.ndarray, feasible: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """Maximum-cardinality, minimum-cost matching of workers to units.

    ``scaled`` holds non-negative integer costs and ``feasible`` marks the
    pairs that may be matched, both shaped (workers, units). Returns the
    matched ``(worker, unit)`` pairs sorted by unit and their total cost.
    """
    return solve_rounds(scaled[None], feasible, [range(feasible.shape[1])])[0][0]


def _encoded(scaled: np.ndarray, feasible: np.ndarray, selections: Sequence[Sequence[int]],
             units: int, weights: Sequence[int] | None) -> tuple[np.ndarray, list[int], int]:
    """``scaled`` as the search sees it, each round's big M and the ``spread`` of its totals.

    A big M is the round's encoded feasible costs summed, plus one, as a
    Python int; the stack is int64 while every big M is below 2**62, else
    Python ints.
    """
    held = feasible.sum(axis=0)  # workers per column
    spread, extra = 1, 0
    # Weights tie only where a selection may leave a unit unplaced, and none can when every
    # column is feasible on as many workers as a selection has units.
    if weights is not None and held.size and held.min() < units:
        largest = max(weights)
        spread = max(sum(weights[c] for c in selection) for selection in selections) \
            * (largest - 1) + 1
        offsets = [largest - weight for weight in weights]
        extra = sum(offset * count for offset, count in zip(offsets, held.tolist()))
    big_ms = [spread * total + extra + 1
              for total in np.where(feasible, scaled, 0).sum(axis=(1, 2)).tolist()]
    dtype = object if scaled.dtype == object or max(big_ms, default=0) >= 2**62 else np.int64
    scaled = scaled.astype(dtype, copy=False)
    if spread > 1:
        scaled = scaled * spread + np.array(offsets, dtype=dtype)
    return scaled, big_ms, spread


def _padded(scaled: np.ndarray, feasible: np.ndarray, size: int, big_ms: list[int]) -> np.ndarray:
    """The solver's input for each of ``solve_rounds``' cost matrices, given each one's big M.

    Each matrix becomes one row per column, padded to ``size`` workers:
    infeasible and padding cells cost the matrix's big M. The result keeps
    ``scaled``'s dtype.
    """
    fill = np.array(big_ms, dtype=scaled.dtype)[:, None, None]
    matrix = np.full((scaled.shape[0], scaled.shape[2], size), fill, dtype=scaled.dtype)
    matrix[:, :, :scaled.shape[1]] = np.where(feasible, scaled, fill).transpose(0, 2, 1)
    return matrix


#: Most cells of ``_padded``'s layout (``columns`` rows of ``max(workers, columns)``) in a
#: block of rounds: bounds a block's draws, cost tensors and solver rows whatever the
#: iteration count. A block holds one round at least.
BLOCK_CELLS = 2**15


def block_rounds(workers: int, columns: int) -> int:
    """How many rounds of ``workers`` x ``columns`` costs one block holds."""
    return max(1, BLOCK_CELLS // (columns * max(workers, columns)))


def solve_selections(
    matrix: np.ndarray, costs: list[list[int]], big_m: int, selections: Sequence[Sequence[int]],
    order: Sequence[int] | None = None,
) -> list[tuple[list[tuple[int, int]], int]]:
    """``solve`` on each selection of columns in turn, each warm-started from the last.

    ``matrix`` is one of ``solve_rounds``' padded matrices, ``costs`` its
    rows as Python ints and ``big_m`` its big M. A selection lists
    distinct columns. Per selection, in the given order, returns the matched
    ``(worker, position in the selection)`` pairs sorted by position and
    their total cost. Consecutive selections that share most columns are
    cheap: only the rows that change are re-augmented. ``order`` lists every
    column from the largest cost scale to the smallest; given it, a first
    selection of at least ``SEED_MIN_UNITS`` units is seeded from ``matrix``.
    """
    size = matrix.shape[1]
    pool = len(costs)  # the pool's row, after the units': it costs 0 on every column
    rows = [*costs, [0] * size]
    row_potential = [0] * (pool + 1)  # the pool's is minus its level
    col_potential = [0] * size
    col_for_row = [-1] * (pool + 1)
    row_for_col = [pool] * size  # -1 while a column is free
    held: Sequence[int] = ()

    results = []
    for selection in selections:
        chosen = set(selection)
        for unit in held:
            if unit not in chosen:  # its column is free until a unit or the pool takes it
                row_for_col[col_for_row[unit]] = -1
                col_for_row[unit] = -1

        if not results and order is not None and len(selection) >= SEED_MIN_UNITS:
            entering = [unit for unit in order if unit in chosen]
            col_potential, tight, unpaired = _seed(matrix, costs, big_m, entering)
            # The pool takes the columns that no unit was paired with, all at the top
            # potential, 0; a dropped pair's column is left free.
            row_for_col = [-1] * size
            for col in unpaired:
                row_for_col[col] = pool
            for unit, col, potential in tight:
                row_potential[unit] = potential
                col_for_row[unit] = col
                row_for_col[col] = unit
        else:
            entering = selection
        waiting = [unit for unit in entering if col_for_row[unit] < 0]
        # The pool gives up a column to each unit that no free column is left for.
        spare = len(waiting) - row_for_col.count(-1)
        for unit in waiting:
            if _augment(unit, rows, row_potential, col_potential, col_for_row, row_for_col, spare > 0):
                spare -= 1

        # Each freed column that no unit took returns to the pool by one search from it.
        for _ in range(row_for_col.count(-1)):
            _augment(pool, rows, row_potential, col_potential, col_for_row, row_for_col, False)
        held = selection

        pairs = []
        total = 0
        for position, unit in enumerate(selection):
            worker = col_for_row[unit]
            if costs[unit][worker] < big_m:  # a padding worker costs big M too
                pairs.append((worker, position))
                total += costs[unit][worker]
        results.append((pairs, total))
    return results


def _seed(matrix: np.ndarray, costs: list[list[int]], big_m: int,
          units: list[int]) -> tuple[list[int], list[tuple[int, int, int]], list[int]]:
    """A cold start for ``units``, listed from the largest cost scale to the smallest.

    Each unit in turn is paired with the first free worker of its
    feasibility pattern, whose workers are ranked by their cost to the
    pattern's first unit. On costs that are a unit's scale times a worker's
    load, that is the least loaded feasible free worker, and without
    capability classes the pairing is optimal (the rearrangement
    inequality). Column potentials telescope back from the last pair: each
    paired column is set as high as keeps every later pair tight, and at
    most 0, the potential of every column no unit is paired with. Each
    row's potential is then its least reduced cost over all columns.

    Returns the column potentials, the ``(unit, column, row potential)``
    pairs that are still tight, and the columns no unit is paired with.
    """
    size = matrix.shape[1]
    ranked: dict[bytes, list] = {}  # per feasibility pattern: its workers by cost, and a cursor
    taken = [False] * size
    pairs = []
    for unit in units:
        feasible = matrix[unit] < big_m  # big M marks infeasible and padding workers alike
        entry = ranked.get(key := feasible.tobytes())
        if entry is None:
            workers = np.flatnonzero(feasible)
            ranking = np.argsort(matrix[unit, workers], kind="stable")
            entry = ranked[key] = [workers[ranking].tolist(), 0]
        workers, at = entry
        while at < len(workers) and taken[workers[at]]:
            at += 1
        entry[1] = at
        if at < len(workers):
            taken[workers[at]] = True
            pairs.append((unit, workers[at]))

    col_potential = [0] * size
    later: list[tuple[list[int], int]] = []  # (cost row, row potential) of the pairs after this one
    for unit, col in reversed(pairs):
        level = 0
        for cost_row, potential in later:
            if cost_row[col] - potential < level:
                level = cost_row[col] - potential
        col_potential[col] = level
        later.append((costs[unit], costs[unit][col] - level))

    rows = [unit for unit, _ in pairs]
    reduced = matrix[rows] - np.array(col_potential, dtype=matrix.dtype)
    row_potential = reduced.min(axis=1).tolist()
    own = reduced[np.arange(len(rows)), [col for _, col in pairs]].tolist()
    tight = [(unit, col, potential) for (unit, col), potential, reduced_own
             in zip(pairs, row_potential, own) if reduced_own == potential]
    return col_potential, tight, [col for col in range(size) if not taken[col]]


def _augment(start: int, rows: list[list[int]], row_potential: list[int], col_potential: list[int],
             col_for_row: list[int], row_for_col: list[int], spare: bool) -> bool:
    """Match the free row ``start`` along a shortest augmenting path, updating the potentials.

    The last of ``rows`` is the pool: it costs 0 on every column and holds
    every column that no other row holds, tight on all of them, which puts
    them all at its level, the highest column potential. Every other row must
    be matched with reduced costs non-negative and tight on its matched
    column. A unit's ``start`` potential needs no initial value: it shifts all
    of its reduced costs by the same amount. The path ends on a free column,
    or, given ``spare``, on any pool column; returns whether it ended there.
    """
    pool = len(rows) - 1
    sinks = (-1, pool) if spare else (-1,)  # the holders whose columns end a path
    num_cols = len(col_potential)
    shortest: list[int | None] = [None] * num_cols  # tentative path length per column
    via_row = [-1] * num_cols  # row preceding each column on its path
    visited_rows = [start]
    done_cols = []
    remaining = list(range(num_cols))
    min_dist = 0
    row = start
    while True:
        if row == pool:
            # The pool reaches each of its columns at min_dist: settle them all at once.
            settled = [col for col in remaining if row_for_col[col] == pool]
            for col in settled:
                shortest[col] = min_dist
            done_cols += settled
            remaining = [col for col in remaining if row_for_col[col] != pool]
        cost_row = rows[row]
        offset = min_dist - row_potential[row]
        best = None
        best_at = -1
        for k, col in enumerate(remaining):
            d = cost_row[col] + offset - col_potential[col]
            s = shortest[col]
            if s is None or d < s:
                shortest[col] = s = d
                via_row[col] = row
            # Prefer a column that ends the path on ties: the path ends sooner.
            if best is None or s < best or (s == best and row_for_col[col] in sinks):
                best = s
                best_at = k
        min_dist = best
        col = remaining[best_at]
        remaining[best_at] = remaining[-1]
        remaining.pop()
        done_cols.append(col)
        holder = row_for_col[col]
        if holder in sinks:
            break
        if holder == pool:
            col_for_row[pool] = col  # the column the path enters the pool through
        row = holder
        visited_rows.append(row)

    # Keep reduced costs non-negative and tight along the new matching.
    row_potential[start] += min_dist
    for r in visited_rows[1:]:
        row_potential[r] += min_dist - shortest[col_for_row[r]]
    for c in done_cols:
        col_potential[c] -= min_dist - shortest[c]

    # Each row on the path takes the column it reached and gives up the one it held;
    # the pool takes one column and gives up the one the path entered it through.
    while True:
        row = via_row[col]
        row_for_col[col] = row
        col_for_row[row], col = col, col_for_row[row]
        if row == start:
            break
    return holder == pool
