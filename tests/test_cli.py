import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import swarmlab
from swarmlab import cli, definitions, metrics, swarmsim
from swarmlab.cli import main
from swarmlab.definitions import (
    ClusterSpec,
    ClusterWorker,
    ExperimentSpec,
    TraceWorkload,
    serialize_cluster,
    serialize_edf,
)
from swarmlab.errors import SchemaError
from swarmlab.model import HardwareProfile

from factories import balanced_cluster, bench_experiment, make_service

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"
SCALING_GOLDEN = Path(__file__).resolve().parent / "fixtures" / "scaling_golden"


@pytest.fixture
def artifacts(tmp_path):
    edf = tmp_path / "bench.edf.json"
    edf.write_text(serialize_edf(bench_experiment(6)), encoding="utf-8")
    cluster = tmp_path / "bench.cluster.json"
    cluster.write_text(serialize_cluster(ClusterSpec(workers=balanced_cluster(12), seed=1)),
                       encoding="utf-8")
    return edf, cluster


# ---------------------------------------------------------------------------
# validate


def test_validate_good_files_is_silent(capsys):
    paths = [str(p) for p in sorted(SAMPLES.glob("*.json"))]
    assert main(["validate", *paths]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_schema_problem(tmp_path, capsys):
    bad = tmp_path / "bad.cdf.json"
    bad.write_text('{"name": "x", "entrypoint": "run", "predefined_cost": 150}',
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.cdf.json" in out
    assert "predefined_cost" in out


def test_validate_missing_file_is_internal_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.cdf.json")]) == 3
    assert "error" in capsys.readouterr().err


def test_validate_unknown_kind(tmp_path, capsys):
    stray = tmp_path / "notes.json"
    stray.write_text("{}", encoding="utf-8")
    assert main(["validate", str(stray)]) == 1
    assert "unknown artifact kind" in capsys.readouterr().out


def test_validate_resolves_sibling_cdfs(tmp_path, capsys):
    edf = tmp_path / "exp.edf.json"
    edf.write_text(json.dumps({"name": "exp", "services": [{"ref": "cam"}]}),
                   encoding="utf-8")
    assert main(["validate", str(edf)]) == 1          # unresolved yet
    (tmp_path / "cam.cdf.json").write_text(
        '{"name": "cam", "entrypoint": "run", "predefined_cost": 10}', encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(edf)]) == 0


# ---------------------------------------------------------------------------
# allocate


def test_allocate_writes_feasible_report(tmp_path, artifacts, capsys):
    edf, cluster = artifacts
    out = tmp_path / "report.txt"
    code = main(["allocate", "--edf", str(edf), "--cluster", str(cluster),
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    report = out.read_text(encoding="utf-8")
    assert "FEASIBLE (6/6 services assigned)" in report


def test_allocate_stdout_when_no_out(artifacts, capsys):
    edf, cluster = artifacts
    assert main(["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "7"]) == 0
    assert "Allocation: FEASIBLE" in capsys.readouterr().out


def test_allocate_infeasible_exit_code(tmp_path, artifacts, capsys):
    _, cluster = artifacts
    impossible = ExperimentSpec(
        name="impossible",
        services=(make_service("needs-gpu", capabilities={"gpu"}),))
    edf = tmp_path / "impossible.edf.json"
    edf.write_text(serialize_edf(impossible), encoding="utf-8")
    code = main(["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "7"])
    assert code == 2
    assert "Unassigned: needs-gpu" in capsys.readouterr().out


def test_cluster_seed_is_read_by_no_command(tmp_path, artifacts):
    edf, cluster = artifacts
    other = tmp_path / "other.cluster.json"
    other.write_text(serialize_cluster(ClusterSpec(workers=balanced_cluster(12), seed=99)),
                     encoding="utf-8")
    assert other.read_bytes() != cluster.read_bytes()
    reports = []
    for path in (cluster, other):
        out = tmp_path / f"{path.name}.txt"
        assert main(["allocate", "--edf", str(edf), "--cluster", str(path), "--seed", "3",
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_allocate_same_seed_same_report(tmp_path, artifacts):
    edf, cluster = artifacts
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["allocate", "--edf", str(edf), "--cluster", str(cluster),
                 "--seed", "3", "--out", str(a)]) == 0
    assert main(["allocate", "--edf", str(edf), "--cluster", str(cluster),
                 "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_allocate_invalid_edf_is_validation_failure(tmp_path, artifacts, capsys):
    _, cluster = artifacts
    broken = tmp_path / "broken.edf.json"
    broken.write_text("{", encoding="utf-8")
    assert main(["allocate", "--edf", str(broken), "--cluster", str(cluster),
                 "--seed", "1"]) == 1


def _pools_edf(tmp_path, pools):
    """An EDF of ``2 * pools`` services in ``pools`` two-service pools."""
    edf = tmp_path / f"pools{pools}.edf.json"
    edf.write_text(serialize_edf(ExperimentSpec(
        name="pools", services=tuple(make_service(f"s{j:02d}") for j in range(2 * pools)),
        dependencies=tuple((f"s{2 * k:02d}", f"s{2 * k + 1:02d}") for k in range(pools)))),
        encoding="utf-8")
    return edf


def test_allocate_and_simulate_report_the_same_first_fault(tmp_path, capsys):
    # Two faults: a trace field that is not a number, and 13 two-service pools (8192
    # configurations). Both commands run one round pipeline, which prepares before it
    # samples, so both report the pools, as a validation failure.
    (tmp_path / "bad.csv").write_text("0.1,0.2,zz,0.3\n", encoding="ascii")
    cluster = tmp_path / "bad.cluster.json"
    cluster.write_text(serialize_cluster(ClusterSpec(workers=(ClusterWorker(
        id="t", profile=HardwareProfile(), workload=TraceWorkload("bad.csv")),))), encoding="utf-8")
    edf = _pools_edf(tmp_path, 13)
    inputs = ["--edf", str(edf), "--cluster", str(cluster), "--seed", "1"]
    outcomes = []
    for argv in (["allocate", *inputs], ["simulate", *inputs, "--out-dir", str(tmp_path / "out")]):
        outcomes.append((main(argv), capsys.readouterr().err))
    assert outcomes == [(1, "error: 13 poolable components yield 8192 configurations "
                            "(bound 4096)\n")] * 2
    assert not (tmp_path / "out").exists()


def test_validate_refuses_an_experiment_past_the_configuration_bound(tmp_path, capsys):
    # 12 pools make 4096 configurations, the bound; 13 make 8192. validate builds each
    # EDF's column table, as allocate and simulate do, and prints the commands' message.
    at_bound, past_bound = _pools_edf(tmp_path, 12), _pools_edf(tmp_path, 13)
    assert main(["validate", str(at_bound)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["validate", str(at_bound), str(past_bound)]) == 1
    assert capsys.readouterr().out == (f"{past_bound}: 13 poolable components yield 8192 "
                                       "configurations (bound 4096)\n")


def test_repeated_cluster_worker_id_is_named(tmp_path, artifacts, capsys):
    edf, _ = artifacts
    document = json.loads(serialize_cluster(ClusterSpec(workers=balanced_cluster(4))))
    document["workers"].append(document["workers"][2])
    cluster = tmp_path / "repeated.cluster.json"
    cluster.write_text(json.dumps(document), encoding="utf-8")
    message = "workers: cluster worker ids must be distinct; 'w03' appears twice"
    assert main(["validate", str(cluster)]) == 1
    assert capsys.readouterr().out == f"{cluster}: {message}\n"
    assert main(["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_three_reports(tmp_path, artifacts):
    edf, cluster = artifacts
    out_dir = tmp_path / "out"
    code = main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                 "--iterations", "5", "--seed", "11", "--out-dir", str(out_dir)])
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["allocations.csv", "fairness.csv", "summary.json"]

    fairness = (out_dir / "fairness.csv").read_text(encoding="utf-8").splitlines()
    assert fairness[0] == "iteration,jain_cost,jain_count"
    assert len(fairness) == 6

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["iterations"] == 5
    assert summary["feasible_iterations"] == 5


def test_allocations_report_quotes_names_that_csv_would_split(tmp_path):
    services = ("bag,recorder", 'say "hi"', "line\nbreak", "plain")
    workers = ("w,1", "w\n2", 'w"3', "w\r4", "w5")
    edf = tmp_path / "names.edf.json"
    edf.write_text(serialize_edf(ExperimentSpec(
        name="names", services=tuple(make_service(name) for name in services))), encoding="utf-8")
    cluster = tmp_path / "names.cluster.json"
    cluster.write_text(serialize_cluster(ClusterSpec(workers=tuple(
        replace(worker, id=name) for worker, name in zip(balanced_cluster(len(workers)), workers)))),
        encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                 "--iterations", "6", "--seed", "3", "--out-dir", str(out_dir)]) == 0

    with open(out_dir / "allocations.csv", encoding="utf-8", newline="") as report:
        header, *rows = csv.reader(report)
    assert header == metrics.REPORT_HEADER.split(",")
    assert len(rows) == 6 * len(services)
    assert {len(row) for row in rows} == {5}
    assert [row[2] for row in rows] == list(services) * 6
    assert {row[1] for row in rows} <= set(workers)
    assert {row[0] for row in rows} == {str(t) for t in range(6)}
    text = (out_dir / "allocations.csv").read_text(encoding="utf-8")
    assert '"bag,recorder"' in text and '"say ""hi"""' in text and ",plain," in text


def test_allocate_report_escapes_names_that_would_split_its_lines(tmp_path):
    edf = tmp_path / "names.edf.json"
    edf.write_text(serialize_edf(ExperimentSpec(
        name="names", services=(make_service("cam\nera"), make_service("b")))), encoding="utf-8")
    cluster = tmp_path / "names.cluster.json"
    cluster.write_text(serialize_cluster(ClusterSpec(workers=tuple(
        replace(worker, id=name) for worker, name in zip(balanced_cluster(2), ("w\n1", "w2"))))),
        encoding="utf-8")
    report = tmp_path / "report.txt"
    assert main(["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1",
                 "--out", str(report)]) == 0

    lines = report.read_text(encoding="utf-8").splitlines()
    blank = lines.index("", 3)
    table, configurations = lines[3:blank], lines[blank + 2:]
    # One line per table row, each of four aligned columns, and one per configuration.
    assert len(table) == 1 + 2 and len(configurations) == 1
    columns = [[(m.start(), m.group()) for m in re.finditer(r"\S+", row)] for row in table]
    assert [len(row) for row in columns] == [4, 4, 4]
    assert {tuple(start for start, _ in row[:3]) for row in columns} == {(0, 10, 18)}
    assert sorted((row[0][1], row[1][1], row[2][1]) for row in columns[1:]) == \
        [("b", "w\\n1", "b"), ("cam\\nera", "w2", "cam\\nera")]
    assert configurations[0].startswith("  #1 [cam\\nera][b] services=2 cost=")


def test_simulate_single_iteration_series(tmp_path, artifacts):
    edf, cluster = artifacts
    out_dir = tmp_path / "one"
    assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                 "--iterations", "1", "--seed", "11", "--out-dir", str(out_dir)]) == 0
    fairness = (out_dir / "fairness.csv").read_text(encoding="utf-8").splitlines()
    assert len(fairness) == 2


def test_simulate_output_matches_golden(tmp_path):
    golden = Path(__file__).parent / "fixtures" / "simulate_golden"
    edf = tmp_path / "toy.edf.json"
    edf.write_text(serialize_edf(bench_experiment(3)), encoding="utf-8")
    cluster = tmp_path / "toy.cluster.json"
    cluster.write_text(serialize_cluster(ClusterSpec(workers=balanced_cluster(4), seed=1)),
                       encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                 "--iterations", "2", "--seed", "31", "--out-dir", str(out_dir)]) == 0
    for name in ("allocations.csv", "fairness.csv", "summary.json"):
        assert (out_dir / name).read_bytes() == (golden / name).read_bytes(), name


#: SHA-256 of the shipped demo's 1000-iteration, seed-7 reports, recorded at the commit
#: before rounds were costed in blocks (when the command drew three blocks of samples).
DEMO_1000_DIGESTS = {
    "allocations.csv": "fa23ecae07baa26c41a422e9f03888737722828a5a5044df1b6cb573a4e52022",
    "fairness.csv": "ce32a4ea1e58c2a5708d1a92e3c16dcb2f660438642d54f3efdfed800dc0fa7d",
    "summary.json": "01c54ca00e18d891a6547ee76d38f9dc3d58600925175afb24a64e3f7f779f54",
}


def test_simulate_1000_demo_iterations_match_recorded_digests(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["simulate", "--edf", str(SAMPLES / "mapping-demo.edf.json"),
                 "--cluster", str(SAMPLES / "bench.cluster.json"),
                 "--iterations", "1000", "--seed", "7", "--out-dir", str(out_dir)]) == 0
    assert {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in DEMO_1000_DIGESTS} == DEMO_1000_DIGESTS


#: SHA-256 of the reports of ``_write_trace_replay``'s 12-iteration, seed-3 run, recorded
#: when trace files were parsed line by line into tuples of floats.
TRACE_REPLAY_DIGESTS = {
    "allocations.csv": "7d4187b47ce38cb363cc87624d5125a274e3704551aaeebf4f14e091087aab9d",
    "fairness.csv": "4faf15d1c81fc2e962d7781365d27bc2c2c28f0d07e2de84c80b0b8f17ec65dd",
    "summary.json": "4c018cbd13356b1210991d76a939482114bd19d07092dcd38724cbb36a0f7366",
}


def _write_trace_replay(directory):
    """Four trace workers, whose files hold 3, 5, 7 and 2 rows, and a uniform one.

    The files mix a comment header, CRLF line ends, padded fields and ``.5`` spellings.
    """
    workers = []
    for f, length in enumerate((3, 5, 7, 2)):
        rows = [[((7 * k + 13 * f + 3 * c) % 97) / 97 for c in range(4)] for k in range(length)]
        lines = [",".join(f"{v:.4f}" for v in row) for row in rows]
        if f == 1:
            lines = [" , ".join(f"{v:.4f}".lstrip("0") for v in row) for row in rows]
        text = ("# cpu,vram,swap,bandwidth\n" if f % 2 == 0 else "") + \
            ("\r\n" if f == 2 else "\n").join(lines) + "\n"
        (directory / f"trace{f}.csv").write_bytes(text.encode("ascii"))
        workers.append(ClusterWorker(id=f"t{f}", profile=HardwareProfile(),
                                     workload=TraceWorkload(f"trace{f}.csv")))
    workers += balanced_cluster(1)
    cluster = directory / "replay.cluster.json"
    cluster.write_text(serialize_cluster(ClusterSpec(workers=tuple(workers))), encoding="utf-8")
    edf = directory / "replay.edf.json"
    edf.write_text(serialize_edf(bench_experiment(4, dependencies=(("svc01", "svc02"),))),
                   encoding="utf-8")
    return edf, cluster


def test_simulate_trace_replay_matches_recorded_digests(tmp_path):
    edf, cluster = _write_trace_replay(tmp_path)
    out_dir = tmp_path / "out"
    # 12 iterations: every trace wraps at least once.
    assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                 "--iterations", "12", "--seed", "3", "--out-dir", str(out_dir)]) == 0
    assert {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in TRACE_REPLAY_DIGESTS} == TRACE_REPLAY_DIGESTS


def test_simulate_is_byte_deterministic(tmp_path, artifacts):
    edf, cluster = artifacts
    first, second = tmp_path / "run1", tmp_path / "run2"
    for out_dir in (first, second):
        assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                     "--iterations", "4", "--seed", "21", "--out-dir", str(out_dir)]) == 0
    for name in ("allocations.csv", "fairness.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_simulate_computes_each_fairness_series_once(tmp_path, artifacts, monkeypatch):
    calls = []
    original = metrics.jains_index

    def counting(values):
        calls.append(1)
        return original(values)

    monkeypatch.setattr(metrics, "jains_index", counting)
    edf, cluster = artifacts
    assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                 "--iterations", "5", "--seed", "21", "--out-dir", str(tmp_path / "out")]) == 0
    # The report and fairness.csv share the cost series; the count series is the other one.
    assert len(calls) == 2 * 5


def test_simulate_with_all_zero_costs_reports_even_fairness(tmp_path):
    # Every share stays 0, which is even: Jain's index is 1 throughout.
    services = tuple(replace(service, predefined_cost=0.0) for service in bench_experiment(3).services)
    experiment = replace(bench_experiment(3), services=services, dependencies=(("svc01", "svc02"),))
    edf = tmp_path / "free.edf.json"
    edf.write_text(serialize_edf(experiment), encoding="utf-8")
    cluster = tmp_path / "free.cluster.json"
    cluster.write_text(serialize_cluster(ClusterSpec(workers=balanced_cluster(4), seed=1)),
                       encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                 "--iterations", "3", "--seed", "5", "--out-dir", str(out_dir)]) == 0

    fairness = (out_dir / "fairness.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[:2] for line in fairness[1:]] == [[str(t), "1.000000"] for t in range(3)]
    rows = (out_dir / "allocations.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 3 * 3
    assert all(row.endswith(",0.000000,1.000000") for row in rows)
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["final_jain_cost"] == 1.0 and summary["feasible_iterations"] == 3


# ---------------------------------------------------------------------------
# scaling


def test_scaling_grid_rows(tmp_path, artifacts):
    _, cluster = artifacts
    out = tmp_path / "grid.csv"
    assert main(["scaling", "--cluster-template", str(cluster), "--max-workers", "3",
                 "--max-services", "4", "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "workers,services,elapsed_ms"
    assert len(lines) == 1 + 12

    single = tmp_path / "single.csv"
    assert main(["scaling", "--cluster-template", str(cluster), "--max-workers", "1",
                 "--max-services", "1", "--seed", "5", "--out", str(single)]) == 0
    assert len(single.read_text(encoding="utf-8").splitlines()) == 2


def test_scaling_service_axis_monotone(tmp_path, artifacts):
    _, cluster = artifacts
    out = tmp_path / "grid.csv"
    assert main(["scaling", "--cluster-template", str(cluster), "--max-workers", "2",
                 "--max-services", "6", "--seed", "5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    by_workers = {}
    for workers, services, elapsed in rows:
        by_workers.setdefault(workers, []).append(int(elapsed))
    for elapsed in by_workers.values():
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


@pytest.mark.parametrize("template, golden", [
    (SAMPLES / "bench.cluster.json", "bench_4x3.csv"),  # uniform workers
    (SCALING_GOLDEN / "two-workers.cluster.json", "trace_4x3.csv"),  # trace replay
])
def test_scaling_output_matches_golden(tmp_path, template, golden):
    out = tmp_path / "grid.csv"
    assert main(["scaling", "--cluster-template", str(template), "--max-workers", "4",
                 "--max-services", "3", "--seed", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == (SCALING_GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("template, size", [
    (SAMPLES / "bench.cluster.json", "12"),  # uniform workers
    (SCALING_GOLDEN / "two-workers.cluster.json", "8"),  # trace replay
])
def test_scaling_output_does_not_depend_on_the_seed(tmp_path, template, size):
    # The grid samples no workload; --seed stays required and changes nothing.
    outputs = []
    for seed in ("0", "987654321"):
        out = tmp_path / f"grid-{seed}.csv"
        assert main(["scaling", "--cluster-template", str(template), "--max-workers", size,
                     "--max-services", size, "--seed", seed, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_scaling_100x100_output_is_unchanged(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["scaling", "--cluster-template", str(SAMPLES / "bench.cluster.json"),
                 "--max-workers", "100", "--max-services", "100", "--seed", "7",
                 "--out", str(out)]) == 0
    # The digest of the output when every worker count was solved as an assignment.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "dce7f83e813fd7dcbc1a9125f1872bf84da4486b9d1db9b866f80ee58aa54949"


def test_failing_scaling_grid_writes_nothing(tmp_path, monkeypatch, capsys):
    original = swarmsim.FetchLatency.duration_ms

    def bounded(self, size_mb):  # three 100 MB images take no finite time
        if size_mb > 250:
            raise SchemaError(f"fetching {size_mb!r} MB takes no finite time", "image_size_mb")
        return original(self, size_mb)
    monkeypatch.setattr(swarmsim.FetchLatency, "duration_ms", bounded)
    out = tmp_path / "grid.csv"
    assert main(["scaling", "--cluster-template", str(SAMPLES / "bench.cluster.json"),
                 "--max-workers", "3", "--max-services", "4", "--seed", "7",
                 "--out", str(out)]) == 1
    # The largest cell's four images are refused; nothing is written, not even the header.
    assert capsys.readouterr().err == "error: image_size_mb: fetching 400.0 MB takes no finite time\n"
    assert not out.exists()


def test_scaling_grid_over_the_cell_bound_is_refused_before_loading(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.setattr(cli, "MAX_SCALING_CELLS", 6)
    template = str(SAMPLES / "bench.cluster.json")
    out = tmp_path / "grid.csv"
    assert main(["scaling", "--cluster-template", template, "--max-workers", "3",
                 "--max-services", "2", "--seed", "7", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 6
    out.unlink()

    def no_loading(path):
        raise AssertionError("the cluster is loaded")
    monkeypatch.setattr(cli, "load_cluster", no_loading)
    assert main(["scaling", "--cluster-template", template, "--max-workers", "7",
                 "--max-services", "1", "--seed", "7", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: --max-workers x --max-services must be at most 6, got 7\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# flags and exit codes


def test_unknown_flag_rejected(artifacts, capsys):
    edf, cluster = artifacts
    assert main(["allocate", "--edf", str(edf), "--cluster", str(cluster),
                 "--seed", "1", "--turbo"]) == 1


def test_missing_required_flag_rejected(capsys):
    assert main(["simulate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--iterations", "0", "--seed", "1"]),
    ("simulate", ["--seed", "-1"]),
    ("allocate", ["--seed", "-3"]),
    ("scaling", ["--seed", "-1"]),
    ("scaling", ["--max-workers", "0", "--seed", "1"]),
    ("scaling", ["--max-services", "0", "--seed", "1"]),
])
def test_bad_numeric_argument_is_one_line_validation_error(tmp_path, artifacts, capsys,
                                                           command, flags):
    edf, cluster = artifacts
    where = {
        "simulate": ["--edf", str(edf), "--cluster", str(cluster), "--out-dir", str(tmp_path / "o")],
        "allocate": ["--edf", str(edf), "--cluster", str(cluster)],
        "scaling": ["--cluster-template", str(cluster), "--out", str(tmp_path / "g.csv")],
    }[command]
    assert main([command, *where, *flags]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists() and not (tmp_path / "g.csv").exists()


# ---------------------------------------------------------------------------
# undecodable input and odd worker ids


def _with_byte(text: str, byte: bytes) -> bytes:
    """``text`` encoded as UTF-8 with ``byte`` spliced in after its second byte."""
    raw = text.encode("utf-8")
    return raw[:2] + byte + raw[2:]


@pytest.mark.parametrize("kind, byte", [
    ("edf", b"\xe9"),
    ("cluster", b"\xff"),
    ("trace", b"\xe9"),
])
def test_non_utf8_input_is_one_line_validation_error(tmp_path, artifacts, capsys, kind, byte):
    edf, cluster = artifacts
    if kind == "edf":
        bad = edf
        bad.write_bytes(_with_byte(edf.read_text(encoding="utf-8"), byte))
    elif kind == "cluster":
        bad = cluster
        bad.write_bytes(_with_byte(cluster.read_text(encoding="utf-8"), byte))
    else:
        bad = tmp_path / "load.csv"
        bad.write_bytes(_with_byte("0.1,0.2,0.3,0.4\n", byte))
        worker = ClusterWorker(id="t1", profile=HardwareProfile(), workload=TraceWorkload("load.csv"))
        cluster.write_text(serialize_cluster(ClusterSpec(workers=(worker,))), encoding="utf-8")

    argvs = [["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1"],
             ["simulate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1",
              "--iterations", "2", "--out-dir", str(tmp_path / "out")]]
    if kind != "edf":  # scaling reads no experiment; its fleet sample reads the traces
        argvs.append(["scaling", "--cluster-template", str(cluster), "--seed", "1",
                      "--out", str(tmp_path / "grid.csv")])
    # A trace names its file and line, as for any other trace fault.
    reason = f"'utf-8' codec can't decode byte 0x{byte.hex()} in position 2: invalid continuation byte"
    for argv in argvs:
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        if kind == "trace":
            assert err == f"error: {bad}:1: {reason}\n", argv[0]
    assert not (tmp_path / "grid.csv").exists()

    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out.startswith(f"{bad}: ") and captured.out.count("\n") == 1
    if kind == "trace":
        assert main(["validate", str(cluster)]) == 1
        assert capsys.readouterr() == (f"{cluster}: {bad}:1: {reason}\n", "")


def test_oversized_trace_is_one_line_validation_error(tmp_path, artifacts, capsys, monkeypatch):
    edf, cluster = artifacts
    row = "0.1,0.2,0.3,0.4\n"
    monkeypatch.setattr(swarmsim, "MAX_TRACE_BYTES", 2 * len(row))
    worker = ClusterWorker(id="t1", profile=HardwareProfile(), workload=TraceWorkload("load.csv"))
    cluster.write_text(serialize_cluster(ClusterSpec(workers=(worker,))), encoding="utf-8")
    argv = ["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1"]

    (tmp_path / "load.csv").write_text(row * 2, encoding="utf-8")  # exactly at the bound
    assert main(argv) in (0, 2)
    capsys.readouterr()
    (tmp_path / "load.csv").write_text(row * 2 + "\n", encoding="utf-8")  # one byte past it
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'load.csv'}: trace file exceeds {2 * len(row)} bytes\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_trace_is_one_line_validation_error(tmp_path, artifacts):
    # Opening a FIFO waits for a writer: each command runs in a child process under a
    # timeout, so a command that opened it fails this test instead of hanging the suite.
    edf, cluster = artifacts
    worker = ClusterWorker(id="t1", profile=HardwareProfile(), workload=TraceWorkload("load.csv"))
    cluster.write_text(serialize_cluster(ClusterSpec(workers=(worker,))), encoding="utf-8")
    fifo = tmp_path / "load.csv"
    os.mkfifo(fifo)

    src = Path(swarmlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    refused = f"{fifo}: trace file is a FIFO; expected a regular file\n"
    for argv, stdout, stderr in (
            (["validate", str(cluster)], f"{cluster}: {refused}", ""),
            (["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1"],
             "", f"error: {refused}"),
            (["simulate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1",
              "--iterations", "2", "--out-dir", str(tmp_path / "out")], "", f"error: {refused}"),
            (["scaling", "--cluster-template", str(cluster), "--seed", "1",
              "--out", str(tmp_path / "grid.csv")], "", f"error: {refused}")):
        run = subprocess.run([sys.executable, "-m", "swarmlab.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (1, stdout, stderr), argv[0]
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_document_is_one_line_validation_error(tmp_path, artifacts):
    # As for a FIFO trace: each command runs in a child process under a timeout.
    edf, cluster = artifacts
    fifo_edf, fifo_cluster, fifo_cdf = (tmp_path / "f.edf.json", tmp_path / "f.cluster.json",
                                        tmp_path / "f.cdf.json")
    for fifo in (fifo_edf, fifo_cluster, fifo_cdf):
        os.mkfifo(fifo)

    src = Path(swarmlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}

    def refused(fifo):
        return f"{fifo}: document is a FIFO; expected a regular file\n"

    for argv, stdout, stderr in (
            (["validate", str(fifo_edf)], refused(fifo_edf), ""),
            (["validate", str(fifo_cluster)], refused(fifo_cluster), ""),
            (["validate", str(fifo_cdf), str(edf)], refused(fifo_cdf), ""),
            (["allocate", "--edf", str(fifo_edf), "--cluster", str(cluster), "--seed", "1"],
             "", f"error: {refused(fifo_edf)}"),
            (["allocate", "--edf", str(edf), "--cluster", str(fifo_cluster), "--seed", "1"],
             "", f"error: {refused(fifo_cluster)}"),
            (["simulate", "--edf", str(fifo_edf), "--cluster", str(cluster), "--seed", "1",
              "--iterations", "2", "--out-dir", str(tmp_path / "out")], "",
             f"error: {refused(fifo_edf)}"),
            (["scaling", "--cluster-template", str(fifo_cluster), "--seed", "1",
              "--out", str(tmp_path / "grid.csv")], "", f"error: {refused(fifo_cluster)}")):
        run = subprocess.run([sys.executable, "-m", "swarmlab.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (1, stdout, stderr), argv
    assert not (tmp_path / "grid.csv").exists() and not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_device_is_one_line_validation_error(tmp_path, artifacts, capsys, monkeypatch):
    edf, cluster = artifacts
    monkeypatch.setattr(definitions, "MAX_DOCUMENT_BYTES", 4096)
    monkeypatch.setattr(swarmsim, "MAX_TRACE_BYTES", 100_000)
    assert main(["allocate", "--edf", "/dev/zero", "--cluster", str(cluster), "--seed", "1"]) == 1
    assert capsys.readouterr() == ("", "error: /dev/zero: document exceeds 4096 bytes\n")
    worker = ClusterWorker(id="t1", profile=HardwareProfile(), workload=TraceWorkload("/dev/zero"))
    cluster.write_text(serialize_cluster(ClusterSpec(workers=(worker,))), encoding="utf-8")
    assert main(["scaling", "--cluster-template", str(cluster), "--seed", "1",
                 "--out", str(tmp_path / "grid.csv")]) == 1
    assert capsys.readouterr() == ("", "error: /dev/zero: trace file exceeds 100000 bytes\n")
    assert main(["validate", str(cluster)]) == 1
    assert capsys.readouterr() == (f"{cluster}: /dev/zero: trace file exceeds 100000 bytes\n", "")
    assert not (tmp_path / "grid.csv").exists()


def test_oversized_document_is_one_line_validation_error(artifacts, capsys, monkeypatch):
    edf, cluster = artifacts
    size = len(edf.read_bytes())
    monkeypatch.setattr(definitions, "MAX_DOCUMENT_BYTES", max(size, len(cluster.read_bytes())))
    argv = ["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1"]
    assert main(argv) in (0, 2)
    assert main(["validate", str(edf)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(definitions, "MAX_DOCUMENT_BYTES", size - 1)  # the edf is one byte past it
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {edf}: document exceeds {size - 1} bytes\n")
    assert main(["validate", str(edf)]) == 1
    assert capsys.readouterr() == (f"{edf}: document exceeds {size - 1} bytes\n", "")


def _trace_cluster(directory: Path, trace: str = "load.csv") -> Path:
    """A one-worker cluster file in ``directory`` that replays ``trace``, a path relative to it."""
    directory.mkdir(exist_ok=True)
    cluster = directory / "fleet.cluster.json"
    worker = ClusterWorker(id="t1", profile=HardwareProfile(), workload=TraceWorkload(trace))
    cluster.write_text(serialize_cluster(ClusterSpec(workers=(worker,))), encoding="utf-8")
    return cluster


def test_validate_reads_a_clusters_trace_files_beside_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the trace resolves against the cluster's directory, not the cwd
    cluster = _trace_cluster(tmp_path / "fleet")
    (tmp_path / "fleet" / "load.csv").write_text("# cpu,vram,swap,bandwidth\n0.1,0.2,0.3,0.4\n",
                                                 encoding="utf-8")
    assert main(["validate", str(cluster)]) == 0
    assert capsys.readouterr() == ("", "")
    # The same file, malformed: one located line, as the commands report it.
    (tmp_path / "fleet" / "load.csv").write_text("0.1,0.2\n", encoding="utf-8")
    assert main(["validate", str(cluster)]) == 1
    trace = tmp_path / "fleet" / "load.csv"
    assert capsys.readouterr() == (f"{cluster}: {trace}:1: expected 4 utilization values, got 2\n", "")
    assert main(["scaling", "--cluster-template", str(cluster), "--seed", "1",
                 "--out", str(tmp_path / "grid.csv")]) == 1
    assert capsys.readouterr().err == f"error: {trace}:1: expected 4 utilization values, got 2\n"


def test_validate_of_a_missing_trace_file_is_the_commands_internal_error(tmp_path, capsys):
    cluster = _trace_cluster(tmp_path, "nope.csv")
    assert main(["validate", str(cluster)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'nope.csv'}'\n"
    assert main(["scaling", "--cluster-template", str(cluster), "--seed", "1",
                 "--out", str(tmp_path / "grid.csv")]) == 3
    assert capsys.readouterr().err == captured.err


@pytest.mark.parametrize("trace_path", ["a\u0000b.csv", "\u0000", "load.csv\u0000", ""])
def test_unusable_trace_path_is_one_line_validation_error(tmp_path, artifacts, capsys, trace_path):
    edf, cluster = artifacts
    workers = balanced_cluster(1) + (
        ClusterWorker(id="t1", profile=HardwareProfile(), workload=TraceWorkload(trace_path)),)
    cluster.write_text(serialize_cluster(ClusterSpec(workers=workers)), encoding="utf-8")

    assert main(["validate", str(cluster)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out.startswith(f"{cluster}: workers[1].workload.path: ")
    assert captured.out.count("\n") == 1

    for argv in (["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1"],
                 ["simulate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1",
                  "--iterations", "2", "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_worker_named_master_is_an_ordinary_worker(tmp_path, capsys):
    edf = tmp_path / "three.edf.json"
    edf.write_text(serialize_edf(bench_experiment(3)), encoding="utf-8")
    workers = balanced_cluster(4)
    workers = (replace(workers[0], id="master"),) + workers[1:]
    cluster = tmp_path / "master.cluster.json"
    cluster.write_text(serialize_cluster(ClusterSpec(workers=workers)), encoding="utf-8")
    allocate = main(["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "4"])
    simulate = main(["simulate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "4",
                     "--iterations", "3", "--out-dir", str(tmp_path / "out")])
    assert simulate == allocate == 0
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# numbers too large to parse or to hold as a float

TOO_BIG_FOR_A_FLOAT = "1" + "0" * 400
TOO_MANY_DIGITS = "7" * 5000  # past Python's default int-to-str digit limit (4300)
_SENTINEL = 9876.54321


def _set(document: dict, path: tuple, value):
    for key in path[:-1]:
        document = document[key]
    document[path[-1]] = value


@pytest.mark.parametrize("kind, path, literal", [
    ("edf", ("services", 0, "predefined_cost"), TOO_BIG_FOR_A_FLOAT),
    ("edf", ("services", 0, "image_size_mb"), TOO_BIG_FOR_A_FLOAT),
    ("edf", ("weights", "cpu"), TOO_BIG_FOR_A_FLOAT),
    ("edf", ("pool_discount",), TOO_BIG_FOR_A_FLOAT),
    ("edf", ("pool_discount",), TOO_MANY_DIGITS),
    ("cluster", ("workers", 0, "workload", "half_width"), TOO_BIG_FOR_A_FLOAT),
    ("cluster", ("workers", 0, "workload", "center", 2), TOO_BIG_FOR_A_FLOAT),
    ("cluster", ("workers", 0, "workload", "values", 1), TOO_BIG_FOR_A_FLOAT),
    ("cluster", ("workers", 0, "profile", "cpu_cores"), TOO_MANY_DIGITS),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else
        (f"{len(v)}digits" if isinstance(v, str) and v.isdigit() else str(v)))
def test_oversized_number_is_one_line_validation_error(tmp_path, artifacts, capsys,
                                                       kind, path, literal):
    edf, cluster = artifacts
    bad = edf if kind == "edf" else cluster
    document = json.loads(bad.read_text(encoding="utf-8"))
    if "weights" in path:
        document["weights"] = {"cpu": 0.25, "vram": 0.25, "swap": 0.25, "bandwidth": 0.25}
    if "values" in path:
        document["workers"][0]["workload"] = {"kind": "fixed", "values": [0.1, 0.2, 0.3, 0.4]}
    _set(document, path, _SENTINEL)
    bad.write_text(json.dumps(document).replace(repr(_SENTINEL), literal), encoding="utf-8")

    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out.startswith(f"{bad}: ") and captured.out.count("\n") == 1

    for argv in (["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1"],
                 ["simulate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1",
                  "--iterations", "2", "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# failures found while simulating


def test_overflowing_fetch_time_is_one_line_validation_error(tmp_path, capsys):
    edf = tmp_path / "mapping-demo.edf.json"
    document = json.loads((SAMPLES / "mapping-demo.edf.json").read_text(encoding="utf-8"))
    (bag,) = [s for s in document["services"] if s["name"] == "bag-recorder"]
    bag["image_size_mb"] = 1e308  # finite, so validate accepts it; its fetch time is not
    edf.write_text(json.dumps(document), encoding="utf-8")
    assert main(["validate", str(edf)]) == 0

    assert main(["simulate", "--edf", str(edf), "--cluster", str(SAMPLES / "bench.cluster.json"),
                 "--iterations", "2", "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "image_size_mb" in err


def test_simulate_that_places_nothing_is_infeasible(tmp_path, capsys):
    # The argv fuzz's lidar example: no worker of the shipped cluster offers lidar.
    edf = tmp_path / "lidar.edf.json"
    edf.write_bytes(MALFORMED["lidar.edf.json"])
    inputs = ["--edf", str(edf), "--cluster", str(SAMPLES / "bench.cluster.json"), "--seed", "1"]
    assert main(["allocate", *inputs]) == 2
    capsys.readouterr()

    out_dir = tmp_path / "out"
    assert main(["simulate", *inputs, "--iterations", "2", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: infeasible: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_simulate_refuses_more_placements_than_the_bound(tmp_path, monkeypatch, capsys):
    # The check runs right after the experiment is read: no cluster is read, nothing is
    # sampled and no output directory is made.
    edf = tmp_path / "one.edf.json"
    edf.write_text(serialize_edf(ExperimentSpec(name="one", services=(make_service("s"),))),
                   encoding="utf-8")

    def unreachable(*args, **kwargs):
        raise AssertionError("reached past the placement bound")
    monkeypatch.setattr(cli, "load_cluster", unreachable)
    monkeypatch.setattr(swarmsim, "sample_rounds", unreachable)
    bound = cli.MAX_SIMULATE_PLACEMENTS
    out_dir = tmp_path / "out"
    for experiment, iterations, placements in ((edf, bound + 1, bound + 1),
                                               (SAMPLES / "mapping-demo.edf.json", 10**20, 3 * 10**20)):
        assert main(["simulate", "--edf", str(experiment), "--cluster", str(SAMPLES / "bench.cluster.json"),
                     "--iterations", str(iterations), "--seed", "1", "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: --iterations x services must be at most {bound}, got {placements}\n"
        assert not out_dir.exists()


def test_simulate_runs_at_the_placement_bound(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SIMULATE_PLACEMENTS", 6)  # the demo's 3 services, 2 iterations
    inputs = ["--edf", str(SAMPLES / "mapping-demo.edf.json"), "--cluster", str(SAMPLES / "bench.cluster.json"),
              "--seed", "1"]
    assert main(["simulate", *inputs, "--iterations", "2", "--out-dir", str(tmp_path / "at")]) == 0
    assert json.loads((tmp_path / "at" / "summary.json").read_text())["iterations"] == 2
    assert main(["simulate", *inputs, "--iterations", "3", "--out-dir", str(tmp_path / "past")]) == 1
    assert capsys.readouterr().err == "error: --iterations x services must be at most 6, got 9\n"
    assert not (tmp_path / "past").exists()


def test_unexpected_exception_is_one_line_internal_error(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("injected\nfailure")

    monkeypatch.setattr("swarmlab.swarmsim.round_results", broken)
    assert main(["simulate", "--edf", str(SAMPLES / "mapping-demo.edf.json"),
                 "--cluster", str(SAMPLES / "bench.cluster.json"), "--iterations", "2",
                 "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: unexpected RuntimeError: injected failure\n"


def test_parser_is_built_once_per_process(tmp_path, artifacts):
    cli._build_parser.cache_clear()
    edf, cluster = artifacts
    for k in range(2):
        assert main(["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "3",
                     "--out", str(tmp_path / f"report{k}.txt")]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# argv fuzz: any argv ends in a documented exit code, never a traceback

# Placeholder for the example's temporary directory; every output path is under it.
TMP = "<tmp>"

MALFORMED = {
    "broken.edf.json": b'{"name": "x", "services": [',
    "empty.edf.json": b"",
    "deep.edf.json": b"[" * 100_000,
    "array.cdf.json": b"[]",
    "ghost.edf.json": b'{"name": "g", "services": [{"ref": "ghost"}]}',
    "lidar.edf.json": b'{"name": "l", "services": [{"name": "s", "entrypoint": "run", '
                      b'"predefined_cost": 10, "required_capabilities": ["lidar"]}]}',
    "weights.edf.json": b'{"name": "w", "services": [{"name": "s", "entrypoint": "run", '
                        b'"predefined_cost": 10}], "weights": {"cpu": 1, "vram": 1, '
                        b'"swap": 0, "bandwidth": 0}}',
    "latin1.cluster.json": b'{"workers": [{"id": "\xe9"}]}',
    "none.cluster.json": b'{"workers": []}',
    "nan.cluster.json": b'{"workers": [{"id": "a", "workload": {"kind": "fixed", '
                        b'"values": [NaN, 0, 0, 0]}}]}',
    "missing-trace.cluster.json": b'{"workers": [{"id": "a", "workload": {"kind": "trace", '
                                  b'"path": "absent.csv"}}]}',
    "bad-trace.cluster.json": b'{"workers": [{"id": "a", "workload": {"kind": "trace", '
                              b'"path": "rows.csv"}}]}',
    "rows.csv": b"0.1,0.2\nx,y,z,w\n",
    "notes.txt": b"not a definition",
}
SAMPLE_FILES = [str(p) for p in sorted(SAMPLES.glob("*.json"))]
INPUT_PATHS = SAMPLE_FILES + [f"{TMP}/{name}" for name in MALFORMED] + [
    TMP, f"{TMP}/absent.edf.json", f"{TMP}/dir.cluster.json"]
OUTPUT_PATHS = [f"{TMP}/out", f"{TMP}/out.csv", f"{TMP}/notes.txt", f"{TMP}/dir.cluster.json",
                f"{TMP}/no/such/dir/out.csv"]
WORDS = ["", "x", "1.5", "nan", "1e3", "0x10", " 4", "٣", "-", "--"]
INTEGERS = st.integers(-3, 8).map(str)
NUMBERS = st.one_of(INTEGERS, INTEGERS, INTEGERS, st.sampled_from(WORDS))
INPUTS = st.sampled_from(INPUT_PATHS)
OUTPUTS = st.sampled_from(OUTPUT_PATHS)
DEMO_EDF = st.just(str(SAMPLES / "mapping-demo.edf.json")) | INPUTS
DEMO_CLUSTER = st.just(str(SAMPLES / "bench.cluster.json")) | INPUTS
COMMANDS = {
    "validate": {},
    "allocate": {"--edf": DEMO_EDF, "--cluster": DEMO_CLUSTER, "--seed": NUMBERS,
                 "--out": OUTPUTS},
    "simulate": {"--edf": DEMO_EDF, "--cluster": DEMO_CLUSTER, "--iterations": NUMBERS,
                 "--seed": NUMBERS, "--out-dir": OUTPUTS},
    "scaling": {"--cluster-template": DEMO_CLUSTER, "--max-workers": NUMBERS,
                "--max-services": NUMBERS, "--seed": NUMBERS, "--out": OUTPUTS},
}
OUTPUT_FLAGS = ["--out", "--out-dir"]
LONE_FLAGS = sorted({flag for flags in COMMANDS.values() for flag in flags} - set(OUTPUT_FLAGS))

# Extra tokens: a flag with a value, a lone flag or a bare token. Bare tokens
# never start with "--" and a lone flag is never an output flag, so argparse
# can pair an output flag only with a path under the temporary directory.
NOISE = st.one_of(
    st.tuples(st.sampled_from(OUTPUT_FLAGS), OUTPUTS),
    st.tuples(st.sampled_from(LONE_FLAGS), NUMBERS | INPUTS),
    st.tuples(st.sampled_from(LONE_FLAGS + ["--help", "-h"])),
    st.tuples(INPUTS | NUMBERS.filter(lambda t: not t.startswith("--"))),
)


def _command_argv(command):
    """``command`` with each of its flags, a few paths if it takes any, and some noise."""
    flags = [st.tuples(st.just(flag), values) for flag, values in COMMANDS[command].items()]
    paths = st.lists(INPUTS.map(lambda p: (p,)), min_size=1, max_size=3) if command == "validate" \
        else st.just([])
    noise = st.just([]) | st.just([]) | st.lists(NOISE, min_size=1, max_size=2)
    tokens = st.tuples(st.tuples(*flags), paths, noise).map(
        lambda parts: [*parts[0], *parts[1], *parts[2]])
    return tokens.flatmap(st.permutations).map(
        lambda tokens: [command] + [arg for token in tokens for arg in token])


ARGV = st.one_of(
    *[_command_argv(command) for command in COMMANDS],
    st.tuples(st.sampled_from(["bogus", ""]), st.lists(NOISE, max_size=4)).map(
        lambda parts: ([parts[0]] if parts[0] else []) + [arg for token in parts[1] for arg in token]),
)


def _run_in_tmp(argv):
    """``main(argv)`` with the placeholder resolved to a fresh directory of malformed files."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in MALFORMED.items():
            (Path(tmp) / name).write_bytes(data)
        (Path(tmp) / "dir.cluster.json").mkdir()
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([arg.replace(TMP, tmp) for arg in argv])
    return code, err.getvalue()


_DEMO = ["--edf", str(SAMPLES / "mapping-demo.edf.json"), "--cluster", str(SAMPLES / "bench.cluster.json")]
_LIDAR = ["--edf", f"{TMP}/lidar.edf.json", "--cluster", str(SAMPLES / "bench.cluster.json")]


@settings(max_examples=200, deadline=None)
@given(ARGV)
@example(["simulate", *_DEMO, "--iterations", "2", "--seed", "1", "--out-dir", f"{TMP}/out"])
@example(["allocate", *_LIDAR, "--seed", "1"])  # infeasible: exit 2
@example(["simulate", *_LIDAR, "--iterations", "2", "--seed", "1", "--out-dir", f"{TMP}/out"])
@example(["scaling", "--cluster-template", f"{TMP}/bad-trace.cluster.json", "--seed", "1",
          "--out", f"{TMP}/out.csv"])
@example(["validate", f"{TMP}/deep.edf.json", f"{TMP}/latin1.cluster.json", TMP])
def test_any_argv_exits_with_a_documented_code(argv):
    code, err = _run_in_tmp(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, (argv, err)
