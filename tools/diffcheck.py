"""Differential run: the same seeded command corpus through two trees' ``swarmlab.cli.main``.

    python3 tools/diffcheck.py [REF] [--seed N]

The tree that holds this script is compared with ``REF`` (default ``HEAD``).
``REF``'s ``src/`` is exported with ``git archive``: no network is used, and
no worktree is registered in the repository, so a run that is killed leaves
nothing behind in ``.git``. One seeded corpus of inputs is written once and
run through each tree by one interpreter per tree, in process, each command
in its own output directory. The corpus holds:

- the shipped ``docs/samples`` demo: ``validate``, ``allocate``, a 200-iteration
  ``simulate`` and a 12x12 ``scaling`` grid;
- fleets in the CI fleet's shape with 0 to 3 two-service pools (odd-indexed
  workers have a camera, every fifth service needs one): ``validate``,
  ``allocate`` to stdout and to a file, and a short ``simulate``;
- a fleet with more units than workers, so no round places every service, one
  that can place nothing, and one past the configuration bound;
- a trace-replay template (trace and fixed workers), through ``validate``,
  ``scaling``, ``allocate`` and ``simulate``;
- the demo experiment as ``{"ref": name}`` references to the sample CDFs beside
  it, one overriding a cost and one a capability list, through ``validate``,
  ``allocate`` and a short ``simulate``; and three experiments that are refused
  (a reference to no file, one to ``../``, one repeated), through ``validate``
  and ``allocate``;
- tie-heavy fleets of identical ``fixed`` workers and services of equal base
  cost, with no pool and with pools at discount 1.0, so configurations and
  placements tie, through ``allocate`` and ``simulate``.

Each command's record is its exit code, stdout, stderr and every output
file's bytes (as sha256). The run prints the number of records, how many
are identical, and how many differ in each part, then the first differing
records. It exits 0 when every record is identical, 1 when one differs and
2 when a tree could not run the corpus. A default run takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("exit", "stdout", "stderr", "files")


def _uniform(rng: random.Random) -> dict:
    return {"kind": "uniform", "center": [round(rng.uniform(0.1, 0.8), 6) for _ in range(4)],
            "half_width": 0.1}


def _write(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    return str(path)


def _fleet(rng: random.Random, corpus: Path, name: str, workers: int, services: int, pools: int
           ) -> tuple[str, str]:
    """An EDF and a cluster in the CI fleet's shape, with ``pools`` pools (s001, s002), (s003, s004), ..."""
    cluster = {"workers": [{"id": f"w{i:03d}", "profile": {"capabilities": ["camera"] if i % 2 else []},
                            "workload": _uniform(rng)} for i in range(workers)]}
    experiment = {"name": name, "pool_discount": rng.choice([0.5, 0.85, 0.9, 1.0]),
                  "services": [{"name": f"s{j:03d}", "entrypoint": f"./s{j:03d}",
                                "predefined_cost": round(rng.uniform(5.0, 95.0), 6),
                                "image_size_mb": round(rng.uniform(10.0, 400.0), 3),
                                "required_capabilities": ["camera"] if j % 5 == 0 else []}
                               for j in range(services)],
                  "dependencies": [[f"s{2 * k + 1:03d}", f"s{2 * k + 2:03d}"] for k in range(pools)],
                  "weights": {"cpu": 0.3, "vram": 0.2, "swap": 0.2, "bandwidth": 0.3}}
    return (_write(corpus / f"{name}.edf.json", experiment),
            _write(corpus / f"{name}.cluster.json", cluster))


def _trace_template(rng: random.Random, corpus: Path) -> str:
    """A scaling template of four trace workers (three files, one replayed twice) and a fixed one."""
    files = []
    for t in range(3):
        rows = [",".join(f"{rng.random():.4f}" for _ in range(4)) for _ in range(rng.randint(5, 60))]
        (corpus / f"trace{t}.csv").write_text("# cpu,vram,swap,bandwidth\n" + "\n".join(rows) + "\n",
                                              encoding="utf-8")
        files.append(f"trace{t}.csv")
    workers = [{"id": f"t{i}", "profile": {"capabilities": ["camera"] if i == 2 else []},
                "workload": {"kind": "trace", "path": path}}
               for i, path in enumerate([*files, files[0]])]
    workers.append({"id": "fixed", "profile": {}, "workload": {"kind": "fixed", "values": [0.2, 0.1, 0.3, 0.4]}})
    return _write(corpus / "grid.cluster.json", {"workers": workers})


def _references(samples: Path, corpus: Path) -> list[tuple[str, str]]:
    """The demo experiment as references to the CDFs in ``samples``, and three refused
    experiments there, as (name, EDF path)."""
    demo = json.loads((samples / "mapping-demo.edf.json").read_text(encoding="utf-8"))
    demo["services"] = [{"ref": "camera-driver", "predefined_cost": 42.5},
                        {"ref": "grid-mapper", "required_capabilities": ["camera"]}, {"ref": "bag-recorder"}]
    (corpus / "outside.cdf.json").write_bytes((samples / "bag-recorder.cdf.json").read_bytes())
    refused = {"refs-ghost": [{"ref": "bag-recorder"}, {"ref": "ghost"}],
               "refs-outside": [{"ref": "bag-recorder"}, {"ref": "../outside"}],  # a regular file, not beside
               "refs-repeated": [{"ref": "bag-recorder"}, {"ref": "camera-driver"}, {"ref": "bag-recorder"}]}
    return [("refs-demo", _write(samples / "refs-demo.edf.json", demo)),
            *((name, _write(samples / f"{name}.edf.json", {"name": name, "services": services}))
              for name, services in refused.items())]


def _ties(corpus: Path, name: str, workers: int, services: int, pools: int) -> tuple[str, str]:
    """An EDF and a cluster whose placements tie: identical fixed workers, services of one base
    cost, and ``pools`` pools at discount 1.0, which cost what their members cost apart."""
    cluster = {"workers": [{"id": f"t{i:02d}", "workload": {"kind": "fixed", "values": [0.25, 0.5, 0.125, 0.25]}}
                           for i in range(workers)]}
    experiment = {"name": name, "pool_discount": 1.0,
                  "services": [{"name": f"e{j:02d}", "entrypoint": "run", "predefined_cost": 40.0}
                               for j in range(services)],
                  "dependencies": [[f"e{2 * k:02d}", f"e{2 * k + 1:02d}"] for k in range(pools)]}
    return (_write(corpus / f"{name}.edf.json", experiment), _write(corpus / f"{name}.cluster.json", cluster))


def corpus(seed: int, directory: Path) -> list[tuple[str, list[str]]]:
    """The seeded corpus's inputs, written under ``directory``, and its commands as (id, argv).

    An argv names its inputs by absolute path and its outputs under ``out/<id>``,
    relative to the directory the command runs in.
    """
    rng = random.Random(f"diffcheck-{seed}")
    samples = directory / "samples"
    shutil.copytree(ROOT / "docs" / "samples", samples)
    edf, cluster = str(samples / "mapping-demo.edf.json"), str(samples / "bench.cluster.json")
    demo = ["--edf", edf, "--cluster", cluster, "--seed", str(seed)]
    commands = [
        ("demo-validate", ["validate", *sorted(str(p) for p in samples.glob("*.json"))]),
        ("demo-allocate", ["allocate", *demo]),
        ("demo-simulate", ["simulate", *demo, "--iterations", "200", "--out-dir", "out/demo-simulate"]),
        ("demo-scaling", ["scaling", "--cluster-template", cluster, "--max-workers", "12",
                          "--max-services", "12", "--seed", str(seed), "--out", "out/demo-scaling/grid.csv"]),
    ]
    shapes = [(f"fleet{pools}-{k}", rng.randint(2, 60), rng.randint(2 * pools + 1, 40), pools)
              for pools in range(4) for k in range(8)]
    shapes += [("crowded", 4, 12, 2),  # more units than workers: no round places every service
               ("unhostable", 1, 1, 0),  # one camera service, no camera worker: nothing is placed
               ("past-bound", 30, 27, 13)]  # 8192 configurations: refused as invalid
    for name, workers, services, pools in shapes:
        fleet_edf, fleet_cluster = _fleet(rng, directory, name, workers, services, pools)
        inputs = ["--edf", fleet_edf, "--cluster", fleet_cluster, "--seed", str(rng.randrange(2**40))]
        commands += [
            (f"{name}-validate", ["validate", fleet_edf, fleet_cluster]),
            (f"{name}-allocate", ["allocate", *inputs]),
            (f"{name}-allocate-file", ["allocate", *inputs, "--out", f"out/{name}-allocate-file/report.txt"]),
            (f"{name}-simulate", ["simulate", *inputs, "--iterations", str(rng.randint(1, 12)),
                                  "--out-dir", f"out/{name}-simulate"]),
        ]
    template = _trace_template(rng, directory)
    traced = ["--edf", edf, "--cluster", template, "--seed", str(seed)]
    commands += [
        ("trace-validate", ["validate", template]),
        ("trace-scaling", ["scaling", "--cluster-template", template, "--max-workers", "8",
                           "--max-services", "8", "--seed", str(seed), "--out", "out/trace-scaling/grid.csv"]),
        ("trace-allocate", ["allocate", *traced]),
        ("trace-simulate", ["simulate", *traced, "--iterations", "70", "--out-dir", "out/trace-simulate"]),
    ]
    for name, referenced in _references(samples, directory):  # after demo-validate has listed the samples
        inputs = ["--edf", referenced, "--cluster", cluster, "--seed", str(seed)]
        commands += [(f"{name}-validate", ["validate", referenced]), (f"{name}-allocate", ["allocate", *inputs])]
        if name == "refs-demo":
            commands.append((f"{name}-simulate", ["simulate", *inputs, "--iterations", "20",
                                                  "--out-dir", f"out/{name}-simulate"]))
    for name, workers, services, pools in (("ties-flat", 6, 5, 0), ("ties-pooled", 6, 6, 1),
                                           ("ties-pools", 8, 8, 3)):
        tie_edf, tie_cluster = _ties(directory, name, workers, services, pools)
        inputs = ["--edf", tie_edf, "--cluster", tie_cluster, "--seed", str(rng.randrange(2**40))]
        commands += [(f"{name}-allocate", ["allocate", *inputs]),
                     (f"{name}-simulate", ["simulate", *inputs, "--iterations", "5",
                                           "--out-dir", f"out/{name}-simulate"])]
    return commands


def run_commands(src: str, commands_path: str, records_path: str) -> None:
    """Run every command of ``commands_path`` through ``src``'s ``swarmlab.cli.main``, in the
    current directory, and write each one's record to ``records_path``."""
    sys.path.insert(0, src)
    import swarmlab.cli

    if not Path(swarmlab.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"swarmlab was imported from {swarmlab.cli.__file__}, not {src}")
    records = {}
    for name, argv in json.loads(Path(commands_path).read_text(encoding="utf-8")):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = swarmlab.cli.main(argv)
        out = Path("out") / name
        files = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        records[name] = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                         "files": files}
    Path(records_path).write_text(json.dumps(records), encoding="utf-8")


def _export(ref: str, into: Path) -> Path:
    """``ref``'s ``src/`` tree, written under ``into`` by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def _records(src: Path, commands: Path, work: Path) -> dict:
    """Every command's record through ``src``, run by a fresh interpreter in ``work``."""
    work.mkdir()
    records = work / "records.json"
    done = subprocess.run([sys.executable, __file__, "--run", str(src), str(commands), str(records)],
                          cwd=work, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{src} could not run the corpus:\n{done.stderr}")
    return json.loads(records.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="the git ref to compare with (default HEAD)")
    parser.add_argument("--seed", type=int, default=1, help="the corpus seed (default 1)")
    parser.add_argument("--run", nargs=3, help=argparse.SUPPRESS)  # SRC COMMANDS RECORDS: one tree's run
    args = parser.parse_args(argv)
    if args.run:
        run_commands(*args.run)
        return 0

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="diffcheck-") as scratch:
        scratch = Path(scratch)
        (scratch / "corpus").mkdir()
        commands = corpus(args.seed, scratch / "corpus")
        (scratch / "commands.json").write_text(json.dumps(commands), encoding="utf-8")
        try:
            base = _records(_export(args.ref, scratch / "base"), scratch / "commands.json", scratch / "run-base")
            head = _records(ROOT / "src", scratch / "commands.json", scratch / "run-head")
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"diffcheck: {exc}", file=sys.stderr)
            return 2

    differing = {name: [part for part in PARTS if base[name][part] != head[name][part]]
                 for name, _ in commands}
    differing = {name: parts for name, parts in differing.items() if parts}
    files = sum(len(record["files"]) for record in head.values())
    print(f"{args.ref} -> working tree, seed {args.seed}: {len(commands)} records, {files} output files, "
          f"{time.monotonic() - started:.1f} s")
    print(f"  identical: {len(commands) - len(differing)}")
    print(f"  differing: {len(differing)}")
    for part in PARTS:
        print(f"    in {part}: {sum(part in parts for parts in differing.values())}")
    for name, parts in list(differing.items())[:20]:
        print(f"  {name}: {', '.join(parts)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
