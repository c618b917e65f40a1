"""Output checks that decide whether a command counts as failed.

Each check has two halves. ``observe`` runs right after a command, outside
its timed interval: it reads the command's output files and keeps a small
observation (digests, or the report text) plus the number of services the
output says were placed. ``verify`` runs after the timed loop and compares
observations with the expected outputs: reference digests recorded by
``record_digests.py`` for ``simulate`` and ``scaling``, and a scipy
assignment oracle for ``allocate``. The simulator's modelled times only
ever enter digests.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
SIM_ARTIFACTS = ("allocations.csv", "fairness.csv", "summary.json")

_HEADER = re.compile(r"^Allocation: (?:FEASIBLE|INFEASIBLE) \((\d+)/\d+ services assigned\)$", re.M)
_OUTCOME = re.compile(r"^  #(\d+) \S+ services=(\d+) cost=(\d+\.\d{6})(  <- chosen)?$", re.M)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


# -- simulate -----------------------------------------------------------------

def observe_simulate(out_dir: Path):
    digests = {name: sha256(out_dir / name) for name in SIM_ARTIFACTS}
    with open(out_dir / "allocations.csv", encoding="utf-8") as fh:
        placements = sum(1 for _ in fh) - 1
    return digests, placements


def verify_simulate(observation, sim_seed: int, recorded: dict) -> str | None:
    expected = recorded["desk_sim"].get(str(sim_seed))
    if expected is None:
        return f"no digests recorded for simulate seed {sim_seed}"
    for name in SIM_ARTIFACTS:
        if observation.get(name) != expected[name]:
            return f"{name} differs from the reference digest (simulate seed {sim_seed})"
    return None


# -- scaling ------------------------------------------------------------------

def observe_scaling(grid_csv: Path):
    lines = grid_csv.read_text(encoding="utf-8").splitlines()
    # Every template worker can host every cloned service, one unit each.
    placements = 0
    for line in lines[1:]:
        workers, services, _ = line.split(",")
        placements += min(int(workers), int(services))
    return sha256(grid_csv), placements


def verify_scaling(observation, max_workers: int, max_services: int, recorded: dict) -> str | None:
    expected = recorded["trace_grid"].get(f"{max_workers}x{max_services}")
    if observation != expected:
        return f"scaling grid {max_workers}x{max_services} differs from the reference digest"
    return None


# -- allocate -----------------------------------------------------------------

def observe_allocate(report: Path):
    text = report.read_text(encoding="utf-8")
    header = _HEADER.search(text)
    return text, int(header.group(1)) if header else 0


def parse_report(text: str):
    """(chosen configuration index, services assigned, scaled cost) or None."""
    for index, services, cost, chosen in _OUTCOME.findall(text):
        if chosen:
            return int(index) - 1, int(services), int(cost.replace(".", ""))
    return None


def assignment_oracle(workers, experiment, swarmlab) -> tuple[int, int, int]:
    """Best (configuration index, services assigned, scaled cost) by scipy.

    Every pool-or-split configuration is solved as a rectangular assignment
    on ``build_cost_matrix(...).scaled()``. Infeasible pairs get a big-M
    cost above the sum of all feasible costs, so cardinality comes first;
    configurations are ranked by (-services assigned, cost, index).
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    costing, allocator = swarmlab.costing, swarmlab.allocator
    services = experiment.services
    by_name = {s.name: s for s in services}
    service_index = {s.name: j for j, s in enumerate(services)}
    capabilities = costing.build_capability_matrix(workers, services)
    dependencies = costing.build_dependency_matrix(services, experiment.dependencies)
    best = None
    for index, units in enumerate(allocator.enumerate_unit_configurations(services, dependencies)):
        members = [[by_name[name] for name in unit.members] for unit in units]
        matrix = costing.build_cost_matrix(workers, members, capabilities, service_index,
                                           experiment.weights, experiment.pool_discount)
        scaled = matrix.scaled()
        big_m = int(scaled[matrix.feasible].sum()) + 1
        rows, cols = linear_sum_assignment(np.where(matrix.feasible, scaled, big_m))
        placed = matrix.feasible[rows, cols]
        services_assigned = sum(len(units[u].members) for u in cols[placed].tolist())
        cost = int(scaled[rows[placed], cols[placed]].sum())
        key = (-services_assigned, cost, index)
        if best is None or key < best:
            best = key
    return best[2], -best[0], best[1]


def verify_allocate(text: str, expected: tuple[int, int, int]) -> str | None:
    got = parse_report(text)
    if got is None:
        return "allocate report has no chosen configuration"
    if got != expected:
        return f"allocate chose (configuration, services, cost) {got}, oracle {expected}"
    return None
