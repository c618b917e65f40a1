"""Rectangular min-cost assignment by shortest augmenting paths.

Every allocator problem is a bipartite matching with unit capacities, so it
is solved on the dense worker x unit cost matrix rather than as a flow
network. The smaller side becomes the rows; each row is matched in turn
along a shortest augmenting path (Dijkstra over reduced costs with row and
column potentials, as in Jonker & Volgenant 1987 and Crouse 2016, "On
implementing 2D rectangular assignment algorithms"). All arithmetic is on
Python ints, so the optimum is exact on the integer cost grid.

Infeasible pairs cost a big M, the sum of all feasible costs plus one:
a single infeasible pair then outweighs any set of feasible ones, so the
solution first maximizes the number of feasible pairs and then minimizes
their cost. Among equal-cost optima the result is deterministic for a
given matrix but follows no documented rule.
"""

from __future__ import annotations

import numpy as np


def solve(scaled: np.ndarray, feasible: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """Maximum-cardinality, minimum-cost matching of workers to units.

    ``scaled`` holds non-negative integer costs and ``feasible`` marks the
    pairs that may be matched, both shaped (workers, units). Returns the
    matched ``(worker, unit)`` pairs sorted by unit and their total cost.
    """
    num_workers, num_units = feasible.shape
    if num_workers == 0 or num_units == 0:
        return [], 0
    big_m = int(scaled[feasible].sum()) + 1
    matrix = np.where(feasible, scaled, big_m)
    transposed = num_workers > num_units
    if transposed:
        matrix, feasible = matrix.T, feasible.T
    costs = matrix.tolist()  # Python ints from here on
    allowed = feasible.tolist()

    col_for_row = _shortest_augmenting_paths(costs)

    pairs = []
    total = 0
    for r, c in enumerate(col_for_row):
        if allowed[r][c]:
            pairs.append((c, r) if transposed else (r, c))
            total += costs[r][c]
    pairs.sort(key=lambda pair: pair[1])
    return pairs, total


def _shortest_augmenting_paths(matrix: list[list[int]]) -> list[int]:
    """Column of every row in a min-cost assignment; needs rows <= columns."""
    num_rows, num_cols = len(matrix), len(matrix[0])
    row_potential = [0] * num_rows
    col_potential = [0] * num_cols
    col_for_row = [-1] * num_rows
    row_for_col = [-1] * num_cols

    for start in range(num_rows):
        shortest: list[int | None] = [None] * num_cols  # tentative path length per column
        via_row = [-1] * num_cols  # row preceding each column on its path
        visited_rows = [start]
        done_cols = []
        remaining = list(range(num_cols))
        min_dist = 0
        row = start
        while True:
            cost_row = matrix[row]
            offset = min_dist - row_potential[row]
            best = None
            best_at = -1
            for k, col in enumerate(remaining):
                d = cost_row[col] + offset - col_potential[col]
                s = shortest[col]
                if s is None or d < s:
                    shortest[col] = s = d
                    via_row[col] = row
                # Prefer a free column on ties: the path ends sooner.
                if best is None or s < best or (s == best and row_for_col[col] < 0):
                    best = s
                    best_at = k
            min_dist = best
            col = remaining[best_at]
            remaining[best_at] = remaining[-1]
            remaining.pop()
            done_cols.append(col)
            if row_for_col[col] < 0:
                sink = col
                break
            row = row_for_col[col]
            visited_rows.append(row)

        # Keep reduced costs non-negative and tight along the new matching.
        row_potential[start] += min_dist
        for r in visited_rows[1:]:
            row_potential[r] += min_dist - shortest[col_for_row[r]]
        for c in done_cols:
            col_potential[c] -= min_dist - shortest[c]

        col = sink
        while True:
            row = via_row[col]
            row_for_col[col] = row
            col_for_row[row], col = col, col_for_row[row]
            if row == start:
                break
    return col_for_row
