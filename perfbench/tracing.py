"""Outside-in span tracing of swarmlab's layers.

``Tracer.install`` replaces each traced function at the module or class
attribute its caller resolves, so nothing under ``src/`` changes. Spans
(command, span id, parent id, layer, start, end) stay in memory until
``write``; counts come from the wrapped calls' arguments and return values.
``restore`` puts every original attribute back.
"""

from __future__ import annotations

import builtins
import functools
import io
import sys
import time
from collections import Counter, defaultdict

#: Layers whose self time is reported, mapped to their per-layer metric.
SELF_TIME_METRICS = {
    "cli": "cli.self_ms",
    "definitions": "definitions.load_ms",
    "swarmsim.iteration": "swarmsim.iteration_self_ms",
    "swarmsim.sample": "swarmsim.sample_ms",
    "model.lifecycle": "model.lifecycle_ms",
    "allocator": "allocator.self_ms",
    "costing.capability": "costing.capability_ms",
    "costing.cost_matrix": "costing.cost_matrix_ms",
    "costing.scaled": "costing.scaled_ms",
    "allocator.build_network": "allocator.build_network_ms",
    "mcmf.solve": "mcmf.solve_ms",
    "metrics.report": "metrics.report_ms",
}

#: Counters reported per command, all taken at the wrapped boundaries.
COUNT_METRICS = (
    "swarmsim.sample_calls",
    "swarmsim.trace_reads",
    "model.join_calls",
    "allocator.rounds",
    "allocator.configurations",
    "costing.cost_cells",
    "allocator.network_edges",
    "mcmf.solve_calls",
    "mcmf.augmentations",
)

ROUND_LAYER = "allocator"
SAMPLE_LAYER = "swarmsim.sample"


def _calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


def _round(counts, args, kwargs, result):
    counts["allocator.rounds"] += 1
    counts["allocator.configurations"] += len(result.outcomes)


def _cost_cells(counts, args, kwargs, result):
    workers, unit_members = args[0], args[1]
    counts["costing.cost_cells"] += len(workers) * len(unit_members)


def _network_edges(counts, args, kwargs, result):
    counts["allocator.network_edges"] += len(result.net.edges)


def _solve(counts, args, kwargs, result):
    counts["mcmf.solve_calls"] += 1
    counts["mcmf.augmentations"] += result.total_flow


def targets(swarmlab_modules):
    """(owner, attribute, layer, counter) for every traced boundary.

    The owner is where the caller looks the name up: ``cli`` imported
    ``load_edf`` by name, ``swarmsim`` imported ``allocate_experiment`` and
    ``join_worker`` by name, while ``allocator`` reaches costing and the
    solver through their modules.
    """
    m = swarmlab_modules
    return [
        (m.cli, "load_edf", "definitions", None),
        (m.cli, "load_cluster", "definitions", None),
        (m.swarmsim, "run_experiment", "swarmsim.iteration", None),
        (m.swarmsim, "measure_scaling", "swarmsim.iteration", None),
        (m.swarmsim, "run_iteration", "swarmsim.iteration", None),
        (m.swarmsim.WorkloadGenerator, "sample", SAMPLE_LAYER, _calls("swarmsim.sample_calls")),
        (m.swarmsim, "join_worker", "model.lifecycle", _calls("model.join_calls")),
        (m.model.WorkerState, "with_status", "model.lifecycle", None),
        (m.allocator, "allocate_experiment", ROUND_LAYER, _round),
        (m.swarmsim, "allocate_experiment", ROUND_LAYER, _round),
        (m.costing, "build_capability_matrix", "costing.capability", None),
        (m.costing, "build_cost_matrix", "costing.cost_matrix", _cost_cells),
        (m.costing.CostMatrix, "scaled", "costing.scaled", None),
        (m.allocator, "build_network", "allocator.build_network", _network_edges),
        (m.mcmf, "solve", "mcmf.solve", _solve),
        (m.metrics, "build_history", "metrics.report", None),
        (m.metrics, "emit_report", "metrics.report", None),
        (m.metrics, "fairness_series", "metrics.report", None),
        (m.metrics, "cost_dispersion", "metrics.report", None),
    ]


_MISSING = object()


class Tracer:
    """Records nested spans around the wrapped calls of one process."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.command_id = 0
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self, boundaries):
        for owner, attr, layer, count in boundaries:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patch(owner, attr, self.wrap(original, layer, count))
        # Trace files are read through io.open (pathlib) or open; a read
        # counts when a sample span is the innermost open span.
        opener = self._counting_open(io.open)
        self._patch(io, "open", opener)
        self._patch(builtins, "open", opener)
        if self.missing:
            print(f"perfbench: not traced (absent): {', '.join(self.missing)}", file=sys.stderr)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def wrap(self, fn, layer, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.command_id, span_id, parent, layer, start, end))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def _counting_open(self, original):
        stack, counts = self._stack, self.counts

        @functools.wraps(original)
        def counting_open(*args, **kwargs):
            if stack and stack[-1][1] == SAMPLE_LAYER:
                counts["swarmsim.trace_reads"] += 1
            return original(*args, **kwargs)

        return counting_open

    def command(self, fn, *args):
        """Run one command as a root ``cli`` span with a fresh command id."""
        self.command_id += 1
        return self.wrap(fn, "cli", None)(*args)

    # -- reporting --------------------------------------------------------

    def self_times_ns(self) -> dict[str, int]:
        """Span time minus the time its direct child spans cover, per layer."""
        children: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            children[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for _, span_id, _, layer, start, end in self.spans:
            totals[layer] += end - start - children[span_id]
        return dict(totals)

    def durations_ms(self, layer: str) -> list[float]:
        """Wall time of every span of ``layer``."""
        return [(end - start) / 1e6 for _, _, _, name, start, end in self.spans if name == layer]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("command,span,parent,layer,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
