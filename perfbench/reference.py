"""A fixed pure-Python routine that measures how fast the host runs right now.

The benchmark shares its cores with other tenants, and their load changes
how long the same Python work takes by up to 2x within minutes. The worker
runs ``run`` just before every command; dividing the command's wall time by
the routine's wall time cancels most of that drift, because both ran on the
host in the same state. The routine does what swarmlab's hot paths do:
label-correcting shortest paths over adjacency lists with dict and list
churn, and re-reading and parsing a small CSV file. It imports nothing from
swarmlab, so no change to the program can change its cost.
"""

from __future__ import annotations

import random
import time
from collections import deque
from pathlib import Path

#: The nominal time of one ``run``: normalised command times are reported
#: in milliseconds of a host on which the routine takes exactly this long.
NOMINAL_MS = 15.0

_NODES = 300
_rng = random.Random("perfbench/reference")
_GRAPH = [[(_rng.randrange(_NODES), _rng.uniform(1.0, 9.0)) for _ in range(6)] for _ in range(_NODES)]
_SOURCES = range(0, _NODES, 10)
_CSV_TEXT = "".join(
    ",".join(f"{_rng.uniform(0.0, 1.0):.4f}" for _ in range(4)) + "\n" for _ in range(240))
_CSV_READS = 12
_csv_path: Path | None = None
_expected: float | None = None


def prepare(directory: Path) -> None:
    """Write the routine's CSV file into ``directory``; call before ``run``."""
    global _csv_path, _expected
    _csv_path = directory / "reference.csv"
    _csv_path.write_text(_CSV_TEXT, encoding="utf-8")
    _expected = _work()


def _work() -> float:
    total = 0.0
    for _ in range(_CSV_READS):
        with open(_csv_path, encoding="utf-8") as fh:
            for line in fh:
                total += sum(float(x) for x in line.split(","))
    for source in _SOURCES:
        dist = [float("inf")] * _NODES
        dist[source] = 0.0
        queued = [False] * _NODES
        queued[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            queued[u] = False
            du = dist[u]
            for v, w in _GRAPH[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
        rows = {f"n{i}": (i, d) for i, d in enumerate(dist)}
        total += sum(d for _, d in sorted(rows.values(), key=lambda row: row[1]) if d != float("inf"))
    return total


def run() -> float:
    """Seconds one pass of the routine took; it must reproduce its first result."""
    start = time.perf_counter()
    result = _work()
    elapsed = time.perf_counter() - start
    if result != _expected:
        raise RuntimeError("the reference routine returned a different result")
    return elapsed
