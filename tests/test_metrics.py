import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from swarmlab.allocator import AllocationResult, prepare
from swarmlab import metrics
from swarmlab.cli import main
from swarmlab.definitions import load_cluster, load_edf
from swarmlab.errors import DomainError, EmptyHistory
from swarmlab.metrics import REPORT_HEADER, ReportFold, allocation_frequency, jains_index
from swarmlab.swarmsim import SimConfig, run_experiment

from factories import balanced_cluster, bench_experiment, make_experiment, make_service, make_worker

FIXTURES = Path(__file__).parent / "fixtures"
SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


TOY_WORKERS, TOY_SERVICES = ["w1", "w2", "w3"], ["s1", "s2"]


def _result(assignments, workers=TOY_WORKERS, services=TOY_SERVICES):
    """A round of an allocation prepared over ``workers`` and ``services``, in positions:
    each (service, worker, cost) placed, every other service unplaced."""
    allocation = prepare([make_worker(w) for w in workers],
                         make_experiment([make_service(s) for s in services]))
    placed = {service: (workers.index(worker), cost) for service, worker, cost in assignments}
    positions = [placed.get(s, (-1, 0.0)) for s in services]
    total = sum(cost for _, _, cost in assignments)
    return AllocationResult(allocation, 0, [w for w, _ in positions], [c for _, c in positions],
                            [(len(placed), len(placed), int(round(total * 10**6)))])


def toy_results():
    first = _result([("s1", "w1", 2.0), ("s2", "w2", 1.0)])
    second = _result([("s1", "w1", 1.5), ("s2", "w3", 0.5)])
    return [first, second]


def _fold(results, workers, services):
    """The fold over ``results``, and what each round added."""
    fold = ReportFold(workers, services)
    return fold, [fold.add(result) for result in results]


def _report(rounds):
    return REPORT_HEADER + "\n" + "".join(lines for lines, _, _ in rounds)


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


@pytest.mark.parametrize("shares, index", [([1e308, 1e308], 1.0), ([1e200, 1e-200], 0.5),
                                           ([9e153, 9e153], 1.0), ([1.7e308, 0.0, 0.0], 1 / 3)])
def test_jain_of_huge_shares_does_not_overflow(shares, index):
    # The squares, or n times their sum, overflow; the shares are divided by their peak.
    assert jains_index(shares) == index


def test_jain_sums_add_left_to_right():
    # 3.11's builtin sum adds left to right; a correctly rounded sum gives ...ep-1.
    assert jains_index([0.1] * 10).hex() == "0x1.ffffffffffffap-1"


@pytest.mark.parametrize("bad", [[], [-1.0, 2.0], [float("inf"), 1.0], [float("nan"), 1.0],
                                 [1.0, float("nan")], [1.0, float("-inf")]])
def test_jain_domain_errors(bad):
    with pytest.raises(DomainError):
        jains_index(bad)


@pytest.mark.parametrize("n", [1, 2, 12])
def test_jain_of_all_zero_shares_is_one(n):
    # Every share is equal, so the vector is even; the formula alone is 0/0.
    assert jains_index([0.0] * n) == 1.0
    assert jains_index([-0.0] * n) == 1.0


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
    workers = ["w1", "w2"]
    fold, _ = _fold([_result([("s1", "w1", 2.0), ("s2", "w2", 2.0)], workers)], workers, TOY_SERVICES)
    assert fold.dispersion() == (0.0, 0.0)


def test_dispersion_hand_computed():
    workers = ["w1", "w2"]
    fold, _ = _fold([_result([("s1", "w1", 1.0), ("s2", "w2", 3.0)], workers)], workers, TOY_SERVICES)
    std, cv = fold.dispersion()
    assert std == pytest.approx(1.0, abs=1e-12)
    assert cv == pytest.approx(0.5, abs=1e-12)


def test_dispersion_empty_history():
    fold = ReportFold(["w1"], ["s1"])
    with pytest.raises(EmptyHistory):
        fold.dispersion()


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
    results = run_experiment(cfg)
    fold, _ = _fold(results, [w.id for w in cfg.workers], experiment.service_names())
    _, cv = fold.dispersion()
    assert cv < 0.1


# ---------------------------------------------------------------------------
# frequency and fairness series


def test_allocation_frequency_counts():
    counts = allocation_frequency(toy_results(), TOY_WORKERS, TOY_SERVICES)
    assert counts.sum() == 4
    assert counts[0, 0] == 2       # w1 hosted s1 twice
    assert counts[1, 1] == 1
    assert counts[2, 1] == 1
    assert (counts[1] + counts[2])[0] == 0  # s1 never left w1


def test_frequency_zero_row_for_idle_worker():
    workers, services = ["w1", "w2"], ["s1"]
    counts = allocation_frequency([_result([("s1", "w1", 1.0)], workers, services)], workers, services)
    assert counts[1].sum() == 0


def test_concentration_on_balanced_run():
    cfg = SimConfig(workers=balanced_cluster(12), experiment=bench_experiment(6),
                    seed=42, iterations=100)
    results = run_experiment(cfg)
    counts = allocation_frequency(results, [w.id for w in cfg.workers],
                                  cfg.experiment.service_names())
    used_workers = (counts.sum(axis=1) > 0).sum()
    assert counts.sum() == 600
    assert used_workers < 12      # a strict subset carries the whole load


def test_fairness_series_cumulative():
    _, rounds = _fold(toy_results(), TOY_WORKERS, TOY_SERVICES)
    series = [jain_cost for _, jain_cost, _ in rounds]
    assert len(series) == 2
    # cumulative shares: after t0 (2,1,0) then (3.5,1,0.5)
    assert series[0] == pytest.approx(jains_index([2.0, 1.0, 0.0]))
    assert series[1] == pytest.approx(jains_index([3.5, 1.0, 0.5]))
    assert rounds[1][2] == pytest.approx(jains_index([2.0, 1.0, 1.0]))
    assert all(0.0 < value <= 1.0 for value in series)


#: A round of an allocation prepared over other rosters than the toy ones, and the message it raises.
ROSTER_FAULTS = [
    (_result([("s1", "w1", 1.0), ("s2", "ghost", 1.0)], workers=["w1", "ghost", "w3"]),
     "iteration 1: the round's worker 1 is 'ghost', the roster's is 'w2'"),
    (_result([("s1", "w1", 1.0), ("s9", "w2", 1.0)], services=["s1", "s9"]),
     "iteration 1: the round's service 1 is 's9', the roster's is 's2'"),
    # The same names in another order: a round's positions are its allocation's.
    (_result([("s1", "w1", 1.0), ("s2", "w2", 1.0)], workers=["w2", "w1", "w3"]),
     "iteration 1: the round's worker 0 is 'w2', the roster's is 'w1'"),
    (_result([("s1", "w1", 1.0)], services=["s2", "s1"]),
     "iteration 1: the round's service 0 is 's2', the roster's is 's1'"),
    (_result([("s1", "w1", 1.0), ("s2", "w2", 1.0)], workers=["w1", "w2"]),
     "iteration 1: the round's worker 2 is None, the roster's is 'w3'"),
    (_result([("s1", "w1", 1.0)], services=["s1", "s2", "s3"]),
     "iteration 1: the round's service 2 is 's3', the roster's is None"),
]


def test_fold_and_frequency_check_rosters():
    # The fold and the frequency matrix check every round, with the same messages.
    clean = toy_results()
    for bad, message in ROSTER_FAULTS:
        with pytest.raises(DomainError) as raised:
            allocation_frequency([clean[0], bad], TOY_WORKERS, TOY_SERVICES)
        assert str(raised.value) == message

        fold = ReportFold(TOY_WORKERS, TOY_SERVICES)
        first = fold.add(clean[0])
        with pytest.raises(DomainError) as raised:
            fold.add(bad)
        assert str(raised.value) == message
        # The fold is as it was: the next clean round is round 1 of the clean run.
        assert (fold.rounds, fold.feasible_rounds) == (1, 1)
        _, expected = _fold(clean, TOY_WORKERS, TOY_SERVICES)
        assert [first, fold.add(clean[1])] == expected
        assert fold.dispersion() == _fold(clean, TOY_WORKERS, TOY_SERVICES)[0].dispersion()


def test_result_positions_cannot_change_after_their_check():
    # The constructor checks a result's positions once; they are tuples, so the fold
    # reads the positions that were checked, and a changed one cannot half-update it.
    experiment, cluster = load_edf(SAMPLES / "mapping-demo.edf.json"), load_cluster(SAMPLES / "bench.cluster.json")
    [result] = run_experiment(SimConfig(workers=cluster.workers, experiment=experiment, seed=7))
    workers, services = [w.id for w in cluster.workers], experiment.service_names()
    fold = ReportFold(workers, services)
    for positions in (result.workers, result.costs, result.scores):
        assert type(positions) is tuple
        with pytest.raises(TypeError):
            positions[1] = 17
    assert (fold.rounds, fold.feasible_rounds) == (0, 0)
    fresh, [expected] = _fold([result], workers, services)
    assert fold.add(result) == expected and fold.dispersion() == fresh.dispersion()
    # A result built by hand from lists holds the same tuples, and is the same round.
    rebuilt = AllocationResult(result.allocation, result.chosen, list(result.workers), list(result.costs),
                               list(result.scores))
    assert rebuilt == result and type(rebuilt.workers) is tuple
    assert _fold([rebuilt], workers, services)[1] == [expected]


def test_fold_checks_each_allocation_once(tmp_path, monkeypatch):
    # simulate folds 20 rounds of one allocation: its rosters are compared once.
    checks = []  # the round each check ran at
    check = metrics._check_allocation

    def counting(t, *args):
        checks.append(t)
        check(t, *args)
    monkeypatch.setattr(metrics, "_check_allocation", counting)
    assert main(["simulate", "--edf", str(SAMPLES / "mapping-demo.edf.json"),
                 "--cluster", str(SAMPLES / "bench.cluster.json"), "--iterations", "20",
                 "--seed", "7", "--out-dir", str(tmp_path / "out")]) == 0
    assert checks == [0]
    # Rounds of two allocations over the same rosters are each checked where they start.
    first, second = toy_results()
    fold = ReportFold(TOY_WORKERS, TOY_SERVICES)
    for result in (first, first, second, second):
        fold.add(result)
    assert checks == [0, 0, 2]
    assert allocation_frequency([first, first, second], TOY_WORKERS, TOY_SERVICES).sum() == 6
    assert checks == [0, 0, 2, 0, 2]


@pytest.mark.parametrize("workers, services, message", [
    # Keyed by id, the fold once ran Jain's index over 2 shares of this 3-entry roster,
    # while the frequency matrix had 3 rows, the first always 0.
    (["w1", "w1", "w2"], TOY_SERVICES, "worker 'w1' appears twice in the roster"),
    (["w1", "w2", "w3", "w2"], TOY_SERVICES, "worker 'w2' appears twice in the roster"),
    # A repeated service once wrote its CSV line twice a round.
    (TOY_WORKERS, ["s1", "s2", "s1"], "service 's1' appears twice in the roster"),
])
def test_fold_and_frequency_refuse_repeated_roster_names(workers, services, message):
    with pytest.raises(DomainError) as raised:
        ReportFold(workers, services)
    assert str(raised.value) == message
    with pytest.raises(DomainError) as raised:
        allocation_frequency(toy_results(), workers, services)
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# reports


def test_report_header_exact():
    assert REPORT_HEADER == "iteration,worker,service,cost,jain_cumulative"
    _, rounds = _fold(toy_results(), TOY_WORKERS, TOY_SERVICES)
    assert _report(rounds).splitlines()[0] == REPORT_HEADER


def test_report_golden():
    golden = (FIXTURES / "report_toy.csv").read_text(encoding="utf-8")
    _, rounds = _fold(toy_results(), TOY_WORKERS, TOY_SERVICES)
    assert _report(rounds) == golden


def test_library_fold_reproduces_simulate(tmp_path):
    # The fold over run_experiment's results writes what the simulate command writes.
    edf, cluster_path = SAMPLES / "mapping-demo.edf.json", SAMPLES / "bench.cluster.json"
    out_dir = tmp_path / "out"
    assert main(["simulate", "--edf", str(edf), "--cluster", str(cluster_path),
                 "--iterations", "20", "--seed", "7", "--out-dir", str(out_dir)]) == 0
    experiment, cluster = load_edf(edf), load_cluster(cluster_path)
    cfg = SimConfig(workers=cluster.workers, experiment=experiment, seed=7, iterations=20,
                    base_dir=str(cluster_path.parent))
    fold, rounds = _fold(run_experiment(cfg), [w.id for w in cluster.workers],
                         experiment.service_names())

    assert _report(rounds) == (out_dir / "allocations.csv").read_text(encoding="utf-8")
    fairness = "iteration,jain_cost,jain_count\n" + "".join(
        f"{t},{jain_cost:.6f},{jain_count:.6f}\n" for t, (_, jain_cost, jain_count) in enumerate(rounds))
    assert fairness == (out_dir / "fairness.csv").read_text(encoding="utf-8")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    std, cv = fold.dispersion()
    assert (round(std, 6), round(cv, 6)) == (summary["cost_std"], summary["cost_cv"])
