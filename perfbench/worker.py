"""One workload in one fresh, single-threaded process.

Started by ``run.py`` with the directory of already generated inputs. It
imports swarmlab from the checkout's ``src/``, validates the inputs through
the CLI and prints ``READY``; that is the end of set-up. With
``--setup-only`` it stops there. Otherwise it acts as one client in a closed
loop: it calls ``swarmlab.cli.main(argv)`` once the previous call returned,
timing each call from outside, checks every output after the loop, and
prints one JSON line of raw results.

With ``--trace 1`` it runs whole passes over the workload's commands twice,
untraced and then traced, and reports per-layer figures from the spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

EXPECTED_EXIT = 0


def import_swarmlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import swarmlab
    from swarmlab import allocator, cli, costing, mcmf, metrics, model, swarmsim

    if Path(swarmlab.__file__).resolve().parent != src / "swarmlab":
        raise ImportError(f"swarmlab was imported from {swarmlab.__file__}, not {src}")
    return types.SimpleNamespace(package=swarmlab, cli=cli, allocator=allocator, costing=costing,
                                 mcmf=mcmf, metrics=metrics, model=model, swarmsim=swarmsim)


class Command:
    """One CLI invocation plus how to observe and verify its output."""

    def __init__(self, argv, observe, verify):
        self.argv = [str(a) for a in argv]
        self.observe = observe
        self.verify = verify


def commands(workload: str, plan: dict, work: Path, sl) -> tuple[list[Command], list[Path]]:
    """The workload's commands, and the artifact files set-up validates."""
    recorded = checks.recorded_digests()
    if workload == "desk_sim":
        out_dir = work / "sim-out"
        seed = plan["sim_seed"]
        cmd = Command(
            ["simulate", "--edf", work / plan["edf"], "--cluster", work / plan["cluster"],
             "--iterations", plan["iterations"], "--seed", seed, "--out-dir", out_dir],
            lambda: checks.observe_simulate(out_dir),
            lambda obs: checks.verify_simulate(obs, seed, recorded))
        return [cmd], [work / plan["edf"], work / plan["cluster"]]
    if workload == "trace_grid":
        grid = work / "grid.csv"
        size = (plan["max_workers"], plan["max_services"])
        cmd = Command(
            ["scaling", "--cluster-template", work / plan["cluster"], "--max-workers", size[0],
             "--max-services", size[1], "--seed", plan["scaling_seed"], "--out", grid],
            lambda: checks.observe_scaling(grid),
            lambda obs: checks.verify_scaling(obs, *size, recorded))
        return [cmd], [work / plan["cluster"]]
    cmds, artifacts = [], []
    for k, fleet in enumerate(plan["fleets"]):
        edf, cluster, report = work / fleet["edf"], work / fleet["cluster"], work / f"report{k}.txt"
        expected = {}

        def verify(text, edf=edf, cluster=cluster, seed=fleet["alloc_seed"], expected=expected):
            if "best" not in expected:
                expected["best"] = checks.assignment_oracle(
                    sampled_workers(sl, cluster, seed), sl.package.load_edf(edf), sl.package)
            return checks.verify_allocate(text, expected["best"])

        cmds.append(Command(
            ["allocate", "--edf", edf, "--cluster", cluster, "--seed", fleet["alloc_seed"],
             "--out", report],
            lambda report=report: checks.observe_allocate(report),
            verify))
        artifacts += [edf, cluster]
    return cmds, artifacts


def sampled_workers(sl, cluster_path: Path, seed: int):
    """The workers ``allocate`` sees: each cluster worker's iteration-0 sample."""
    cluster = sl.package.load_cluster(cluster_path)
    return [
        sl.model.WorkerState(
            id=w.id, profile=w.profile,
            workload=sl.swarmsim.WorkloadGenerator(w.workload, seed, i, cluster_path.parent).sample(0))
        for i, w in enumerate(cluster.workers)
    ]


class Loop:
    """A closed loop of one client; keeps every timing and observation.

    Each command is preceded by one pass of the reference routine, whose
    time is kept beside the command's (see ``reference.py``).
    """

    def __init__(self, main, cmds: list[Command]):
        self.main = main
        self.cmds = cmds
        self.durations: list[float] = []
        self.references: list[float] = []
        self.results: list[tuple[Command, int | str, object, int]] = []

    def run_one(self, cmd: Command, call=None):
        self.references.append(reference.run())
        start = time.perf_counter()
        try:
            rc = (call or self.main)(cmd.argv)
        except Exception as exc:  # a raising command is a failed command
            rc = f"raised {type(exc).__name__}: {exc}"
        self.durations.append(time.perf_counter() - start)
        observation, placements = (None, 0)
        if rc == EXPECTED_EXIT:
            try:
                observation, placements = cmd.observe()
            except (OSError, ValueError) as exc:
                rc = f"output unreadable: {exc}"
        self.results.append((cmd, rc, observation, placements))

    def for_seconds(self, seconds: float):
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            self.run_one(self.cmds[k % len(self.cmds)])
            k += 1
            if time.perf_counter() >= deadline:
                return

    def passes(self, seconds: float, call=None):
        """Whole passes over the commands, until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        while True:
            for cmd in self.cmds:
                self.run_one(cmd, call)
            if time.perf_counter() >= deadline:
                return

    def failures(self) -> list[str]:
        out = []
        for cmd, rc, observation, _ in self.results:
            if rc != EXPECTED_EXIT:
                out.append(f"{cmd.argv[0]}: exit {rc}, expected {EXPECTED_EXIT}")
                continue
            problem = cmd.verify(observation)
            if problem:
                out.append(f"{cmd.argv[0]}: {problem}")
        return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def by_command(loop: Loop) -> list[tuple[list[float], list[float], list[int]]]:
    """Each distinct command's durations, reference times and placements."""
    groups: dict[int, tuple[list[float], list[float], list[int]]] = {}
    for (cmd, _, _, placed), seconds, ref in zip(loop.results, loop.durations, loop.references):
        durations, references, placements = groups.setdefault(id(cmd), ([], [], []))
        durations.append(seconds)
        references.append(ref)
        placements.append(placed)
    return list(groups.values())


def normalised(loop: Loop) -> tuple[float, float]:
    """(ms, placements per second) of one pass over the distinct commands.

    A command's normalised time is the median, over its samples, of its
    wall time divided by the reference routine's time just before it, in
    units of ``reference.NOMINAL_MS``. The pass time is the mean of those
    times over the distinct commands; the rate is the pass's placements
    over the pass's summed time.
    """
    times, placed = [], 0.0
    for durations, references, placements in by_command(loop):
        times.append(statistics.median(d / r for d, r in zip(durations, references)) * reference.NOMINAL_MS)
        placed += statistics.median(placements)
    return statistics.mean(times), placed / (sum(times) / 1e3)


def end_to_end(loop: Loop) -> dict:
    # Read before the checks run: the oracle imports scipy.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = loop.failures()
    cmd_ms, placements_per_s = normalised(loop)
    groups = by_command(loop)
    return {
        "attempted": len(loop.results),
        "failures": failures,
        "metrics": {
            "cmd_p50_norm_ms": cmd_ms,
            "placements_norm_per_s": placements_per_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "samples": {
            "commands": len(loop.durations),
            "distinct_commands": len(groups),
            "min_samples_per_command": min(len(durations) for durations, *_ in groups),
            # Printed, not gated: wall times as measured, which follow the host's load.
            "cmd_p50_ms": statistics.mean(statistics.median(d) for d, *_ in groups) * 1e3,
            "cmd_p90_ms": statistics.mean(percentile(d, 90) for d, *_ in groups) * 1e3,
            "reference_p50_ms": statistics.median(loop.references) * 1e3,
        },
    }


def per_layer(sl, cmds: list[Command], seconds: float, spans_path: Path) -> dict:
    untraced = Loop(sl.cli.main, cmds)
    untraced.passes(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(tracing.targets(sl))
    traced = Loop(sl.cli.main, cmds)
    try:
        traced.passes(seconds / 2, call=lambda argv: tracer.command(sl.cli.main, argv))
    finally:
        tracer.restore()
    tracer.write(spans_path)

    n = len(traced.durations)
    self_ns = tracer.self_times_ns()
    metrics = {name: self_ns.get(layer, 0) / 1e6 / n for layer, name in tracing.SELF_TIME_METRICS.items()}
    for name in tracing.COUNT_METRICS:
        metrics[name] = tracer.counts[name] / n
    rounds = tracer.durations_ms(tracing.ROUND_LAYER)
    metrics["allocator.round_p50_ms"] = percentile(rounds, 50)
    metrics["allocator.round_p90_ms"] = percentile(rounds, 90)
    configurations = tracer.counts["allocator.configurations"]
    metrics["allocator.useful_ratio"] = tracer.counts["allocator.rounds"] / configurations if configurations else 0.0
    metrics["tracing_overhead"] = normalised(traced)[0] / normalised(untraced)[0]
    return {
        "attempted": len(untraced.results) + len(traced.results),
        "failures": untraced.failures() + traced.failures(),
        "metrics": metrics,
        "samples": {
            "traced_commands": n,
            "untraced_commands": len(untraced.durations),
            "rounds": len(rounds),
            "rounds_beyond_p90": sum(1 for r in rounds if r > metrics["allocator.round_p90_ms"]),
            "self_time_coverage": sum(self_ns.values()) / 1e9 / sum(traced.durations),
            "missing_targets": tracer.missing,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload in this process.")
    parser.add_argument("--workload", required=True, choices=("desk_sim", "fleet_pools", "trace_grid"))
    parser.add_argument("--work", required=True, help="directory holding the generated inputs")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    sl = import_swarmlab()
    cmds, artifacts = commands(args.workload, json.loads((work / "plan.json").read_text()), work, sl)
    rc = sl.cli.main(["validate", *map(str, artifacts)])
    if rc != 0:
        print(f"perfbench: validate exited {rc} on the generated inputs", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference.prepare(work)

    if args.trace:
        result = per_layer(sl, cmds, args.seconds, work.parent / f"spans-{work.name}.csv")
    else:
        loop = Loop(sl.cli.main, cmds)
        loop.for_seconds(args.seconds)
        result = end_to_end(loop)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
