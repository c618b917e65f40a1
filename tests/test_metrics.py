import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from swarmlab.allocator import AllocationResult, AllocationUnit, Assignment
from swarmlab.errors import DomainError, EmptyHistory
from swarmlab.metrics import (
    REPORT_HEADER,
    allocation_frequency,
    build_history,
    cost_dispersion,
    emit_report,
    fairness_series,
    jains_index,
)
from swarmlab.swarmsim import SimConfig, run_experiment

from factories import balanced_cluster, bench_experiment

FIXTURES = Path(__file__).parent / "fixtures"


def _result(assignments):
    by_service = {}
    for service, worker, cost in assignments:
        unit = AllocationUnit((service,))
        by_service[service] = Assignment(service=service, worker=worker, unit=unit, cost=cost)
    total = sum(cost for _, _, cost in assignments)
    return AllocationResult(
        assignments=by_service,
        total_cost=total,
        total_cost_scaled=int(round(total * 10**6)),
        feasible=True,
        unassigned=frozenset(),
    )


def toy_history():
    first = _result([("s1", "w1", 2.0), ("s2", "w2", 1.0)])
    second = _result([("s1", "w1", 1.5), ("s2", "w3", 0.5)])
    return build_history([first, second], ["w1", "w2", "w3"], ["s1", "s2"])


# ---------------------------------------------------------------------------
# Jain's index


def test_jain_equal_shares():
    assert jains_index([3.5] * 8) == pytest.approx(1.0, abs=1e-12)


def test_jain_one_active_of_two():
    assert jains_index([1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_jain_k_active_of_n():
    for n in range(1, 33):
        for k in range(1, n + 1):
            vector = [1.0] * k + [0.0] * (n - k)
            assert jains_index(vector) == pytest.approx(k / n, abs=1e-12)


@pytest.mark.parametrize("scale", [7.875080418812185e-160 * 0.001953125, 1e-300, 5e-324])
def test_jain_of_tiny_shares_does_not_underflow(scale):
    # Squares of these shares underflow to zero or lose their precision.
    assert jains_index([scale]) == 1.0
    assert jains_index([scale, 0.0]) == pytest.approx(0.5, abs=1e-12)
    assert jains_index([scale, 3 * scale]) == pytest.approx(jains_index([1.0, 3.0]), rel=1e-9)


@pytest.mark.parametrize("bad", [[], [-1.0, 2.0], [0.0, 0.0]])
def test_jain_domain_errors(bad):
    with pytest.raises(DomainError):
        jains_index(bad)


@given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=20)
       .filter(lambda xs: sum(x * x for x in xs) > 0),
       st.floats(0.001, 1000, allow_nan=False))
def test_jain_scale_invariance_and_bounds(xs, c):
    index = jains_index(xs)
    assert 1 / len(xs) - 1e-12 <= index <= 1 + 1e-12
    assert jains_index([c * x for x in xs]) == pytest.approx(index, rel=1e-9)


@given(st.lists(st.floats(0.001, 1000, allow_nan=False), min_size=1, max_size=20))
def test_jain_is_one_iff_equal(xs):
    if len(set(xs)) == 1:
        assert jains_index(xs) == pytest.approx(1.0, abs=1e-9)
    else:
        spread = max(xs) - min(xs)
        if spread > 1e-6 * max(xs):
            assert jains_index(xs) < 1.0


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_identical_costs():
    history = build_history(
        [_result([("s1", "w1", 2.0), ("s2", "w2", 2.0)])], ["w1", "w2"], ["s1", "s2"])
    assert cost_dispersion(history) == (0.0, 0.0)


def test_dispersion_hand_computed():
    history = build_history(
        [_result([("s1", "w1", 1.0), ("s2", "w2", 3.0)])], ["w1", "w2"], ["s1", "s2"])
    std, cv = cost_dispersion(history)
    assert std == pytest.approx(1.0, abs=1e-12)
    assert cv == pytest.approx(0.5, abs=1e-12)


def test_dispersion_empty_history():
    history = build_history([], ["w1"], ["s1"])
    with pytest.raises(EmptyHistory):
        cost_dispersion(history)


def test_balanced_simulation_dispersion_is_small():
    # equal base costs and a narrow load band: per-assignment costs bunch up
    from swarmlab.definitions import ExperimentSpec
    from factories import make_service
    experiment = ExperimentSpec(
        name="bench",
        services=tuple(make_service(f"svc{j + 1:02d}", 50.0) for j in range(6)),
    )
    cfg = SimConfig(workers=balanced_cluster(12, half_width=0.02),
                    experiment=experiment, seed=123, iterations=100)
    results = [result for result, _ in run_experiment(cfg)]
    history = build_history(results, [w.id for w in cfg.workers],
                            experiment.service_names())
    _, cv = cost_dispersion(history)
    assert cv < 0.1


# ---------------------------------------------------------------------------
# frequency and fairness series


def test_allocation_frequency_counts():
    history = toy_history()
    counts = allocation_frequency(history)
    assert counts.sum() == 4
    assert counts[0, 0] == 2       # w1 hosted s1 twice
    assert counts[1, 1] == 1
    assert counts[2, 1] == 1
    assert (counts[1] + counts[2])[0] == 0  # s1 never left w1


def test_frequency_zero_row_for_idle_worker():
    history = build_history(
        [_result([("s1", "w1", 1.0)])], ["w1", "w2"], ["s1"])
    counts = allocation_frequency(history)
    assert counts[1].sum() == 0


def test_concentration_on_balanced_run():
    cfg = SimConfig(workers=balanced_cluster(12), experiment=bench_experiment(6),
                    seed=42, iterations=100)
    results = [result for result, _ in run_experiment(cfg)]
    history = build_history(results, [w.id for w in cfg.workers],
                            cfg.experiment.service_names())
    counts = allocation_frequency(history)
    used_workers = (counts.sum(axis=1) > 0).sum()
    assert counts.sum() == 600
    assert used_workers < 12      # a strict subset carries the whole load


def test_fairness_series_cumulative():
    history = toy_history()
    series = fairness_series(history)
    assert series.basis == "cost"
    assert len(series.values) == 2
    # cumulative shares: after t0 (2,1,0) then (3.5,1,0.5)
    assert series.values[0] == pytest.approx(jains_index([2.0, 1.0, 0.0]))
    assert series.values[1] == pytest.approx(jains_index([3.5, 1.0, 0.5]))
    counts = fairness_series(history, basis="count")
    assert counts.values[1] == pytest.approx(jains_index([2.0, 1.0, 1.0]))
    assert all(0.0 < value <= 1.0 for value in series.values)


def test_fairness_series_needs_results():
    with pytest.raises(EmptyHistory):
        fairness_series(build_history([], ["w1"], ["s1"]))


def test_build_history_validates_rosters():
    result = _result([("s1", "ghost", 1.0)])
    with pytest.raises(DomainError):
        build_history([result], ["w1"], ["s1"])


# ---------------------------------------------------------------------------
# reports


def test_report_header_exact():
    assert REPORT_HEADER == "iteration,worker,service,cost,jain_cumulative"
    report = emit_report(toy_history(), "csv")
    assert report.splitlines()[0] == REPORT_HEADER


def test_report_golden():
    golden = (FIXTURES / "report_toy.csv").read_text(encoding="utf-8")
    assert emit_report(toy_history(), "csv") == golden


def test_report_csv_json_numeric_identity():
    history = toy_history()
    csv_lines = emit_report(history, "csv").strip().splitlines()[1:]
    rows = json.loads(emit_report(history, "json"))["rows"]
    assert len(csv_lines) == len(rows)
    for line, row in zip(csv_lines, rows):
        iteration, worker, service, cost, jain = line.split(",")
        assert int(iteration) == row["iteration"]
        assert worker == row["worker"]
        assert service == row["service"]
        assert float(cost) == row["cost"]
        assert float(jain) == row["jain_cumulative"]


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(toy_history(), "xml")
    with pytest.raises(EmptyHistory):
        emit_report(build_history([], ["w"], ["s"]), "csv")
