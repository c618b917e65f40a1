"""Seeded input generator for the perfbench workloads.

The program under test only ever sees the files written here. Everything is
drawn from ``random.Random`` seeded with a string that names the workload,
the seed and the artifact, so a seed always yields byte-identical files.

    python3 perfbench/gen.py --workload fleet_pools --seed 3 --out DIR

This module imports nothing from swarmlab, so generating inputs is never
part of the benchmark's set-up time.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "docs" / "samples"

#: desk_sim: the shipped demo. Commands are kept short (~0.1 s) so one run
#: holds hundreds of samples and the fast tail of their times is steady on a
#: shared host; the per-iteration work is the same as at the desk scale.
DESK_ITERATIONS = 50
#: The simulate seed is drawn from this many values, one recorded digest each.
DESK_SIM_SEEDS = 32

#: fleet_pools: fleets of this shape (~0.3 s per command), several per run
#: so one run's figure does not hang on a single fleet's solver path lengths.
#: The camera counts are exact, so fleets differ little in how many edges
#: their networks have.
FLEET_WORKERS = 40
FLEET_SERVICES = 20
FLEET_POOLS = 3
FLEET_CAMERA_WORKERS = 0.5
FLEET_CAMERA_SERVICES = 4
FLEETS_PER_RUN = 8

#: trace_grid: a trace-replay template, one CSV per prototype worker. The
#: grid is larger than the template, so its last workers replay traces.
GRID_TEMPLATE_WORKERS = 6
GRID_TRACE_ROWS = 240
GRID_MAX = 8


def desk_sim(seed: int, out: Path) -> dict:
    """The shipped demo experiment and cluster; only the simulate seed varies."""
    for name in ("mapping-demo.edf.json", "bench.cluster.json"):
        shutil.copyfile(SAMPLES / name, out / name)
    return {
        "edf": "mapping-demo.edf.json",
        "cluster": "bench.cluster.json",
        "sim_seed": seed % DESK_SIM_SEEDS,
        "iterations": DESK_ITERATIONS,
    }


def _fleet(rng: random.Random) -> tuple[dict, dict]:
    camera_workers = set(rng.sample(range(FLEET_WORKERS), round(FLEET_WORKERS * FLEET_CAMERA_WORKERS)))
    workers = []
    for i in range(FLEET_WORKERS):
        workers.append({
            "id": f"w{i + 1:03d}",
            "profile": {"capabilities": ["camera"] if i in camera_workers else []},
            "workload": {
                "kind": "uniform",
                "center": [round(rng.uniform(0.1, 0.8), 6) for _ in range(4)],
                "half_width": 0.1,
            },
        })
    names = [f"s{j + 1:02d}" for j in range(FLEET_SERVICES)]
    camera = set(rng.sample(names, FLEET_CAMERA_SERVICES))
    services = []
    for name in names:
        service = {
            "name": name,
            "entrypoint": f"./{name}",
            "predefined_cost": round(rng.uniform(5.0, 95.0), 6),
        }
        if name in camera:
            service["required_capabilities"] = ["camera"]
        services.append(service)
    pooled = rng.sample(names, 2 * FLEET_POOLS)
    dependencies = [[pooled[2 * k], pooled[2 * k + 1]] for k in range(FLEET_POOLS)]
    experiment = {
        "name": "fleet",
        "services": services,
        "dependencies": dependencies,
        "weights": {"cpu": 0.3, "vram": 0.2, "swap": 0.2, "bandwidth": 0.3},
        "pool_discount": 0.85,
    }
    return experiment, {"workers": workers}


def fleet_pools(seed: int, out: Path) -> dict:
    fleets = []
    for k in range(FLEETS_PER_RUN):
        experiment, cluster = _fleet(random.Random(f"fleet_pools/{seed}/{k}"))
        edf, cluster_file = f"fleet{k}.edf.json", f"fleet{k}.cluster.json"
        (out / edf).write_text(json.dumps(experiment, indent=2) + "\n", encoding="utf-8")
        (out / cluster_file).write_text(json.dumps(cluster, indent=2) + "\n", encoding="utf-8")
        fleets.append({"edf": edf, "cluster": cluster_file, "alloc_seed": seed * FLEETS_PER_RUN + k})
    return {"fleets": fleets}


def trace_grid(seed: int, out: Path) -> dict:
    rng = random.Random(f"trace_grid/{seed}")
    (out / "traces").mkdir(exist_ok=True)
    workers = []
    for i in range(GRID_TEMPLATE_WORKERS):
        base = [rng.uniform(0.1, 0.8) for _ in range(4)]
        rows = ["# cpu,vram,swap,bandwidth"]
        for _ in range(GRID_TRACE_ROWS):
            rows.append(",".join(
                f"{min(1.0, max(0.0, b + rng.uniform(-0.1, 0.1))):.4f}" for b in base))
        path = f"traces/w{i + 1:02d}.csv"
        (out / path).write_text("\n".join(rows) + "\n", encoding="utf-8")
        workers.append({"id": f"t{i + 1:02d}", "profile": {"cpu_cores": 4},
                        "workload": {"kind": "trace", "path": path}})
    (out / "grid.cluster.json").write_text(
        json.dumps({"workers": workers}, indent=2) + "\n", encoding="utf-8")
    return {"cluster": "grid.cluster.json", "max_workers": GRID_MAX, "max_services": GRID_MAX,
            "scaling_seed": seed}


GENERATORS = {"desk_sim": desk_sim, "fleet_pools": fleet_pools, "trace_grid": trace_grid}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out`` and return its plan."""
    out.mkdir(parents=True, exist_ok=True)
    plan = GENERATORS[workload](seed, out)
    (out / "plan.json").write_text(json.dumps(plan, indent=2) + "\n", encoding="utf-8")
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, Path(args.out))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
