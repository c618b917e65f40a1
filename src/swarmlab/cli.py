"""Command-line interface: validate, allocate, simulate, scaling.

Exit codes: 0 success, 1 validation failure (including usage errors,
out-of-range numeric flags and input files that are not UTF-8), 2 infeasible
allocation, 3 internal error (I/O and unexpected failures).
Commands taking a seed are deterministic end to end: identical flags
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import allocator, metrics, swarmsim
from .definitions import (
    ExperimentSpec,
    ServiceSpec,
    directory_resolver,
    load_cluster,
    load_edf,
    parse_cdf,
    parse_cluster,
    parse_edf,
)
from .errors import (
    DefinitionSyntaxError,
    SchemaError,
    SwarmLabError,
    UnresolvedService,
)
from .model import WorkerState

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3

_PARSERS = {
    ".cdf.json": lambda text, path: parse_cdf(text),
    ".edf.json": lambda text, path: parse_edf(text, directory_resolver(path.parent)),
    ".cluster.json": lambda text, path: parse_cluster(text),
}


def _classify(path: Path):
    for suffix, parse in _PARSERS.items():
        if path.name.endswith(suffix):
            return parse
    return None


def cmd_validate(args) -> int:
    issues = 0
    for raw in args.paths:
        path = Path(raw)
        parse = _classify(path)
        if parse is None:
            print(f"{path}: unknown artifact kind (expected *.cdf.json, *.edf.json or *.cluster.json)")
            issues += 1
            continue
        try:
            parse(path.read_text(encoding="utf-8"), path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        except (DefinitionSyntaxError, SchemaError, UnresolvedService, UnicodeDecodeError) as exc:
            print(f"{path}: {exc}")
            issues += 1
    return EXIT_VALIDATION if issues else EXIT_OK


def _sampled_workers(cluster, seed: int, base_dir: Path) -> list[WorkerState]:
    workers = []
    for idx, cluster_worker in enumerate(cluster.workers):
        generator = swarmsim.WorkloadGenerator(cluster_worker.workload, seed, idx, base_dir)
        workers.append(WorkerState(
            id=cluster_worker.id,
            profile=cluster_worker.profile,
            workload=generator.sample(0),
        ))
    return workers


def cmd_allocate(args) -> int:
    experiment = load_edf(args.edf)
    cluster_path = Path(args.cluster)
    cluster = load_cluster(cluster_path)
    workers = _sampled_workers(cluster, args.seed, cluster_path.parent)
    result = allocator.allocate_experiment(workers, experiment)
    report = allocator.explain(result)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        print(report, end="")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_simulate(args) -> int:
    experiment = load_edf(args.edf)
    cluster_path = Path(args.cluster)
    cluster = load_cluster(cluster_path)
    cfg = swarmsim.SimConfig(
        workers=cluster.workers,
        experiment=experiment,
        seed=args.seed,
        iterations=args.iterations,
        base_dir=str(cluster_path.parent),
    )
    pairs = swarmsim.run_experiment(cfg)
    results = [result for result, _ in pairs]
    history = metrics.build_history(
        results,
        workers=[w.id for w in cluster.workers],
        services=experiment.service_names(),
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "allocations.csv").write_text(metrics.emit_report(history, "csv"), encoding="utf-8")

    cost_series = metrics.fairness_series(history, basis="cost").values
    count_series = metrics.fairness_series(history, basis="count").values
    fairness_lines = ["iteration,jain_cost,jain_count"]
    for t, (jc, jn) in enumerate(zip(cost_series, count_series)):
        fairness_lines.append(f"{t},{jc:.6f},{jn:.6f}")
    (out_dir / "fairness.csv").write_text("\n".join(fairness_lines) + "\n", encoding="utf-8")

    std, cv = metrics.cost_dispersion(history)
    summary = {
        "iterations": cfg.iterations,
        "workers": len(cluster.workers),
        "services": len(experiment.services),
        "feasible_iterations": sum(1 for r in results if r.feasible),
        "cost_std": round(std, 6),
        "cost_cv": round(cv, 6),
        "final_jain_cost": round(cost_series[-1], 6),
        "final_jain_count": round(count_series[-1], 6),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK if all(r.feasible for r in results) else EXIT_INFEASIBLE


def cmd_scaling(args) -> int:
    cluster = load_cluster(args.cluster_template)
    prototype = ServiceSpec(name="svc001", entrypoint="run", predefined_cost=50.0)
    template = swarmsim.SimConfig(
        workers=cluster.workers,
        experiment=ExperimentSpec(name="scaling", services=(prototype,)),
        seed=args.seed,
        base_dir=str(Path(args.cluster_template).parent),
    )
    cells = swarmsim.measure_scaling(
        range(1, args.max_workers + 1), range(1, args.max_services + 1), template)
    Path(args.out).write_text(swarmsim.grid_to_csv(cells), encoding="utf-8")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmlab",
        description="Validate experiment artifacts, allocate services to workers, "
                    "and run deterministic orchestration simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check definition files against their schemas")
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("allocate", help="run one allocation round and report it")
    p.add_argument("--edf", required=True, help="experiment definition file")
    p.add_argument("--cluster", required=True, help="cluster description file")
    p.add_argument("--seed", required=True, type=int, help="workload sampling seed")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=cmd_allocate)

    p = sub.add_parser("simulate", help="run repeated iterations and write reports")
    p.add_argument("--edf", required=True, help="experiment definition file")
    p.add_argument("--cluster", required=True, help="cluster description file")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out-dir", required=True, help="directory for the three report files")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("scaling", help="measure elapsed time over a size grid")
    p.add_argument("--cluster-template", required=True, help="worker prototypes to cycle")
    p.add_argument("--max-workers", type=int, default=12)
    p.add_argument("--max-services", type=int, default=12)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_scaling)
    return parser


#: Smallest admissible value of each numeric flag, keyed by argparse dest.
_MINIMUMS = {"seed": 0, "iterations": 1, "max_workers": 1, "max_services": 1}


def _out_of_range(args) -> "str | None":
    for dest, minimum in _MINIMUMS.items():
        value = getattr(args, dest, None)
        if value is not None and value < minimum:
            flag = "--" + dest.replace("_", "-")
            return f"{flag} must be at least {minimum}, got {value}"
    return None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; treat anything else as bad input.
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    problem = _out_of_range(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.handler(args)
    except (DefinitionSyntaxError, SchemaError, UnresolvedService, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SwarmLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
