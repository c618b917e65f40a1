"""swarmlab benchmark: one command, three workloads.

    python3 perfbench/run.py --workload desk_sim --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It generates the workload's inputs from
``--seed`` under ``.perfbench_work/``, then times set-up: several fresh
interpreters each import swarmlab from ``src/`` and validate the inputs,
timed from spawn until they print ``READY``, each normalised by the reference
routine run just before it (see below). A last fresh, single-threaded
process then runs the workload as one client in a closed loop (see
``worker.py``). The final line of standard output is one JSON object:

- ``--trace 0``: ``setup_s``, ``cmd_p50_norm_ms``,
  ``placements_norm_per_s`` and ``peak_rss_mb``; failed commands count in
  ``failed`` out of ``attempted`` (the error rate). Command times are
  normalised to host speed: each command's wall time is divided by that of
  a fixed reference routine run just before it (``reference.py``), which
  cancels most of the drift that other tenants of a shared host cause. The
  table also prints the wall times as measured, with the sample counts.
- ``--trace 1``: the per-layer self times, counts and ``tracing_overhead``
  from a traced run; spans are written to ``.perfbench_work/``.

``--workload all`` runs the three workloads one after another. Exits 2
without a result when the program or its shipped samples are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("desk_sim", "fleet_pools", "trace_grid")
SETUP_RUNS = 15
#: Every run of one workload, its set-up included, ends within this budget.
RUN_BUDGET_S = 170
REQUIRED = ("src/swarmlab/__init__.py", "src/swarmlab/cli.py",
            "docs/samples/mapping-demo.edf.json", "docs/samples/bench.cluster.json")

UNITS = {
    "setup_s": "s", "cmd_p50_norm_ms": "ms", "placements_norm_per_s": "1/s", "peak_rss_mb": "MB",
    "allocator.round_p50_ms": "ms", "allocator.round_p90_ms": "ms",
    "allocator.useful_ratio": "ratio", "tracing_overhead": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms/cmd" if name.endswith("_ms") else "count/cmd"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every run
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload: str, work: Path, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it printed READY."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--work", str(work), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} set-up failed: {line.strip() or 'no READY line'}")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker until ``deadline``; kill it if it runs over."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"a worker did not finish within {RUN_BUDGET_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"a worker exited {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    gen.generate(workload, seed, work)
    try:
        reference.prepare(work)
        setups, references = [], []
        for _ in range(SETUP_RUNS):
            references.append(reference.run())
            proc, ready = spawn(workload, work, ["--setup-only"])
            finish(proc, deadline)
            setups.append(ready)
        proc, _ = spawn(workload, work, ["--seconds", str(seconds), "--trace", str(trace)])
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        # Normalised like the command times: each set-up over the reference
        # routine's time just before it.
        result["metrics"]["setup_s"] = statistics.median(
            s / r for s, r in zip(setups, references)) * reference.NOMINAL_MS / 1e3
        result["samples"]["setup_s"] = len(setups)
        result["samples"]["setup_raw_s"] = statistics.median(setups)
    return result


def table(workload: str, result: dict) -> str:
    lines = [f"== {workload}"]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:28s} {value:14.6f} {unit_of(name)}")
    attempted, failed = result["attempted"], len(result["failures"])
    lines.append(f"  {'error_rate':28s} {failed / attempted:14.6f} ratio ({failed}/{attempted} commands)")
    lines.append(f"  samples: {json.dumps(result['samples'])}")
    lines += [f"  FAILED: {problem}" for problem in result["failures"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a swarmlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(table(workload, results[workload]), flush=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
