import json
from dataclasses import replace
from pathlib import Path

import pytest

from swarmlab.cli import main
from swarmlab.definitions import (
    ClusterSpec,
    ClusterWorker,
    ExperimentSpec,
    TraceWorkload,
    serialize_cluster,
    serialize_edf,
)
from swarmlab.model import HardwareProfile

from factories import balanced_cluster, bench_experiment, make_service

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


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


def test_simulate_is_byte_deterministic(tmp_path, artifacts):
    edf, cluster = artifacts
    first, second = tmp_path / "run1", tmp_path / "run2"
    for out_dir in (first, second):
        assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster),
                     "--iterations", "4", "--seed", "21", "--out-dir", str(out_dir)]) == 0
    for name in ("allocations.csv", "fairness.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


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

    for argv in (["allocate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1"],
                 ["simulate", "--edf", str(edf), "--cluster", str(cluster), "--seed", "1",
                  "--iterations", "2", "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out.startswith(f"{bad}: ") and captured.out.count("\n") == 1


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
