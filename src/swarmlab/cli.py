"""Command-line interface: validate, allocate, simulate, scaling.

Exit codes: 0 success, 1 validation failure (including usage errors,
out-of-range numeric flags, input files that are not UTF-8, FIFOs and files
past their size bound, experiments with more pool-or-split configurations
than ``allocator.MAX_CONFIGURATIONS``, and ``simulate`` runs of more
placements than ``MAX_SIMULATE_PLACEMENTS``), 2 infeasible allocation, 3
internal error (I/O and unexpected failures).
Commands taking a seed are deterministic end to end: identical flags
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
    read_document,
)
from .errors import (
    DefinitionSyntaxError,
    SchemaError,
    SwarmLabError,
    TooManyComponents,
    UnresolvedService,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3

#: What an input can be refused with: ``validate`` prints it, and the commands exit 1 with it.
_INVALID = (DefinitionSyntaxError, SchemaError, TooManyComponents, UnresolvedService, UnicodeDecodeError)

_PARSERS = {
    ".cdf.json": lambda text, path: parse_cdf(text),
    # An experiment's configurations are counted as the commands count them.
    ".edf.json": lambda text, path: allocator.column_table(parse_edf(text, directory_resolver(path.parent))),
    # A cluster's trace files, resolved against its directory, are checked as the commands check them.
    ".cluster.json": lambda text, path: swarmsim.check_fleet_inputs(parse_cluster(text).workers,
                                                                    path.parent),
}


def _classify(path: Path):
    for suffix, parse in _PARSERS.items():
        if path.name.endswith(suffix):
            return parse
    return None


def _problem(path: Path) -> "str | None":
    """The line ``validate`` prints for the file at ``path``, None for a valid one.

    An ``OSError`` propagates: ``main`` reports it as an internal error.
    """
    parse = _classify(path)
    if parse is None:
        return f"{path}: unknown artifact kind (expected *.cdf.json, *.edf.json or *.cluster.json)"
    try:
        text = read_document(path)
    except SchemaError as exc:  # a FIFO or an oversized file: the message names it
        return str(exc)
    except UnicodeDecodeError as exc:
        return f"{path}: {exc}"
    try:
        parse(text, path)
    except _INVALID as exc:
        return f"{path}: {exc}"
    return None


def cmd_validate(args) -> int:
    issues = 0
    for raw in args.paths:
        problem = _problem(Path(raw))
        if problem is not None:
            print(problem)
            issues += 1
    return EXIT_VALIDATION if issues else EXIT_OK


def cmd_allocate(args) -> int:
    experiment = load_edf(args.edf)
    cluster_path = Path(args.cluster)
    cluster = load_cluster(cluster_path)
    [result] = swarmsim.round_results(cluster.workers, experiment, args.seed, cluster_path.parent, [0])
    report = allocator.explain(result)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        print(report, end="")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_simulate(args) -> int:
    experiment = load_edf(args.edf)
    placements = args.iterations * len(experiment.services)
    if placements > MAX_SIMULATE_PLACEMENTS:  # refused before anything is sampled or written
        print(f"error: --iterations x services must be at most {MAX_SIMULATE_PLACEMENTS}, "
              f"got {placements}", file=sys.stderr)
        return EXIT_VALIDATION
    cluster_path = Path(args.cluster)
    cluster = load_cluster(cluster_path)
    cfg = swarmsim.SimConfig(
        workers=cluster.workers,
        experiment=experiment,
        seed=args.seed,
        iterations=args.iterations,
        base_dir=str(cluster_path.parent),
    )
    records = swarmsim.round_records(cfg.workers, cfg.experiment, cfg.seed, cfg.base_dir,
                                     range(cfg.iterations))
    first = next(records)
    if max(first.workers) < 0:  # nothing placed
        # Which services can be placed depends on capabilities only, not on the samples.
        print(f"error: infeasible: no worker can host any of the {len(experiment.services)} "
              "services; no report written", file=sys.stderr)
        return EXIT_INFEASIBLE

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fold = metrics.ReportFold([w.id for w in cluster.workers], experiment.service_names())
    with open(out_dir / "allocations.csv", "w", encoding="utf-8") as allocations, \
            open(out_dir / "fairness.csv", "w", encoding="utf-8") as fairness:
        allocations.write(metrics.REPORT_HEADER + "\n")
        fairness.write("iteration,jain_cost,jain_count\n")
        for t, record in enumerate(itertools.chain([first], records)):
            lines, jain_cost, jain_count = fold.add_record(record)
            allocations.write(lines)
            fairness.write(f"{t},{jain_cost:.6f},{jain_count:.6f}\n")

    std, cv = fold.dispersion()
    summary = {
        "iterations": cfg.iterations,
        "workers": len(cluster.workers),
        "services": len(experiment.services),
        "feasible_iterations": fold.feasible_rounds,
        "cost_std": round(std, 6),
        "cost_cv": round(cv, 6),
        "final_jain_cost": round(jain_cost, 6),
        "final_jain_count": round(jain_count, 6),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK if fold.feasible_rounds == fold.rounds else EXIT_INFEASIBLE


def cmd_scaling(args) -> int:
    cluster = load_cluster(args.cluster_template)
    prototype = ServiceSpec(name="svc001", entrypoint="run", predefined_cost=50.0)
    template = swarmsim.SimConfig(
        workers=cluster.workers,
        experiment=ExperimentSpec(name="scaling", services=(prototype,)),
        seed=args.seed,
        base_dir=str(Path(args.cluster_template).parent),
    )
    # Every check runs here; a failing grid raises before the output file is opened.
    cells = swarmsim.measure_scaling(
        range(1, args.max_workers + 1), range(1, args.max_services + 1), template)
    with open(args.out, "w", encoding="utf-8") as out:
        out.writelines(swarmsim.grid_to_csv(cells))
    return EXIT_OK


@functools.cache  # parsing does not change the parser; in-process callers reuse it
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
    p.add_argument("--iterations", type=int, default=100, help="allocation rounds to simulate")
    p.add_argument("--seed", required=True, type=int, help="workload sampling seed")
    p.add_argument("--out-dir", required=True, help="directory for the three report files")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("scaling", help="measure elapsed time over a size grid")
    p.add_argument("--cluster-template", required=True, help="worker prototypes to cycle")
    p.add_argument("--max-workers", type=int, default=12, help="largest worker count of the grid")
    p.add_argument("--max-services", type=int, default=12, help="largest service count of the grid")
    p.add_argument("--seed", required=True, type=int,
                   help="required, but the grid samples no workload: every seed gives the same output")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=cmd_scaling)
    return parser


#: Smallest admissible value of each numeric flag, keyed by argparse dest.
_MINIMUMS = {"seed": 0, "iterations": 1, "max_workers": 1, "max_services": 1}
#: Most cells of one ``scaling`` grid; bounds the memory of its cells and its CSV text.
MAX_SCALING_CELLS = 10**6
#: Most placements (iterations x the experiment's services) of one ``simulate`` run. Its
#: memory grows with the run only in the dispersion buffer, 8 bytes per placement
#: (``metrics.ReportFold``), so this bounds that buffer at 80 MB; the demo's 3 services
#: allow 3,333,333 iterations.
MAX_SIMULATE_PLACEMENTS = 10**7


def _out_of_range(args) -> "str | None":
    for dest, minimum in _MINIMUMS.items():
        value = getattr(args, dest, None)
        if value is not None and value < minimum:
            flag = "--" + dest.replace("_", "-")
            return f"{flag} must be at least {minimum}, got {value}"
    cells = getattr(args, "max_workers", 0) * getattr(args, "max_services", 0)
    if cells > MAX_SCALING_CELLS:
        return f"--max-workers x --max-services must be at most {MAX_SCALING_CELLS}, got {cells}"
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
    except _INVALID as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, SwarmLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a defect: still one line, never a traceback
        print(f"error: unexpected {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
