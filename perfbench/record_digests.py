"""Record the expected output digests into ``perfbench/digests.json``.

    python3 perfbench/record_digests.py

Run it once at the commit whose outputs are the reference (the outputs are
meant to stay byte-identical afterwards). It records, for every simulate
seed ``desk_sim`` can draw, the SHA-256 of ``allocations.csv``,
``fairness.csv`` and ``summary.json``, and the SHA-256 of the
``trace_grid`` scaling CSV, which depends on the grid size only; that is
checked here across several trace seeds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from swarmlab import cli  # noqa: E402

GRID_CHECK_SEEDS = (0, 1, 2)


def main() -> int:
    work = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    recorded = {"desk_sim": {}, "trace_grid": {}}
    plan = gen.generate("desk_sim", 0, work)
    for sim_seed in range(gen.DESK_SIM_SEEDS):
        out_dir = work / "sim-out"
        rc = cli.main(["simulate", "--edf", str(work / plan["edf"]), "--cluster", str(work / plan["cluster"]),
                       "--iterations", str(plan["iterations"]), "--seed", str(sim_seed),
                       "--out-dir", str(out_dir)])
        if rc != 0:
            raise SystemExit(f"simulate seed {sim_seed} exited {rc}")
        recorded["desk_sim"][str(sim_seed)] = {name: checks.sha256(out_dir / name)
                                              for name in checks.SIM_ARTIFACTS}
        print(f"desk_sim seed {sim_seed}: recorded", flush=True)
    grids = set()
    for seed in GRID_CHECK_SEEDS:
        plan = gen.generate("trace_grid", seed, work / f"grid{seed}")
        out = work / f"grid{seed}.csv"
        rc = cli.main(["scaling", "--cluster-template", str(work / f"grid{seed}" / plan["cluster"]),
                       "--max-workers", str(plan["max_workers"]), "--max-services", str(plan["max_services"]),
                       "--seed", str(seed), "--out", str(out)])
        if rc != 0:
            raise SystemExit(f"scaling seed {seed} exited {rc}")
        grids.add(checks.sha256(out))
    if len(grids) != 1:
        raise SystemExit("the scaling grid depends on the trace seed; record it per seed")
    recorded["trace_grid"][f"{gen.GRID_MAX}x{gen.GRID_MAX}"] = grids.pop()
    checks.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {checks.DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
