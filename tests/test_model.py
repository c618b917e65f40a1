import pytest
from hypothesis import given, strategies as st

from swarmlab.errors import DuplicateAgent, IllegalTransition, MasterConflict, UnknownAgent
from swarmlab.model import (
    HardwareProfile,
    Role,
    WorkerStatus,
    WorkloadSample,
    join_worker,
    leave_worker,
    new_swarm,
    role_of,
)

from factories import make_worker


def test_new_swarm_is_empty():
    swarm = new_swarm("m1")
    assert swarm.master == "m1"
    assert swarm.workers == ()


def test_new_swarm_ids_are_unique():
    assert new_swarm("m1").swarm_id != new_swarm("m1").swarm_id


def test_master_cannot_join_as_worker():
    swarm = new_swarm("m1")
    with pytest.raises(MasterConflict):
        join_worker(swarm, make_worker("m1"))


def test_join_and_duplicate():
    swarm = join_worker(new_swarm("m1"), make_worker("w1"))
    assert swarm.worker_ids() == ("w1",)
    assert swarm.get_worker("w1").status is WorkerStatus.JOINED
    with pytest.raises(DuplicateAgent):
        join_worker(swarm, make_worker("w1"))


def test_join_twelve_workers():
    swarm = new_swarm("m1")
    for i in range(12):
        swarm = join_worker(swarm, make_worker(f"w{i}"))
    assert len(swarm.workers) == 12


def test_leave_marks_worker_left():
    swarm = join_worker(new_swarm("m1"), make_worker("w1"))
    swarm = leave_worker(swarm, "w1")
    assert swarm.get_worker("w1").status is WorkerStatus.LEFT
    assert swarm.active_workers() == ()
    with pytest.raises(UnknownAgent):
        leave_worker(swarm, "w1")
    with pytest.raises(UnknownAgent):
        leave_worker(swarm, "ghost")
    with pytest.raises(MasterConflict):
        leave_worker(swarm, "m1")


def test_left_worker_cannot_rejoin():
    swarm = leave_worker(join_worker(new_swarm("m1"), make_worker("w1")), "w1")
    with pytest.raises(DuplicateAgent):
        join_worker(swarm, make_worker("w1"))


def test_status_transitions():
    worker = make_worker("w1")
    allocated = worker.with_status(WorkerStatus.ALLOCATED)
    running = allocated.with_status(WorkerStatus.RUNNING)
    assert running.status is WorkerStatus.RUNNING
    assert running.with_status(WorkerStatus.LEFT).status is WorkerStatus.LEFT
    with pytest.raises(IllegalTransition):
        worker.with_status(WorkerStatus.RUNNING)
    with pytest.raises(IllegalTransition):
        running.with_status(WorkerStatus.JOINED)


def test_role_partition():
    swarm = join_worker(new_swarm("m1"), make_worker("w1"))
    assert role_of(swarm, "m1") is Role.MASTER
    assert role_of(swarm, "w1") is Role.WORKER
    assert role_of(swarm, "nobody") is None


@pytest.mark.parametrize("kwargs", [
    {"cpu_cores": 0},
    {"vram_mb": -1},
    {"swap_mb": -1},
    {"bandwidth_mbps": 0.0},
])
def test_profile_rejects_bad_numbers(kwargs):
    with pytest.raises(ValueError):
        HardwareProfile(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"cpu": -0.1}, {"vram": 1.5}, {"swap": float("nan")}, {"bandwidth": 2.0},
    {"cpu": 1.5}, {"cpu": float("nan")}, {"bandwidth": float("inf")},
])
def test_workload_rejects_out_of_range(kwargs):
    # The public constructor keeps validating; only generators use WorkloadSample.trusted.
    values = {"cpu": 0.0, "vram": 0.0, "swap": 0.0, "bandwidth": 0.0}
    values.update(kwargs)
    with pytest.raises(ValueError):
        WorkloadSample(**values)


@given(st.lists(st.tuples(st.sampled_from(["join", "leave"]), st.integers(0, 7)), max_size=40))
def test_operation_sequences_keep_invariants(ops):
    swarm = new_swarm("m1")
    present: set[str] = set()
    for op, index in ops:
        agent = f"w{index}"
        if op == "join":
            if agent in present:
                with pytest.raises(DuplicateAgent):
                    join_worker(swarm, make_worker(agent))
            else:
                swarm = join_worker(swarm, make_worker(agent))
                present.add(agent)
        else:
            if agent in present and swarm.get_worker(agent).status is not WorkerStatus.LEFT:
                swarm = leave_worker(swarm, agent)
            else:
                with pytest.raises(UnknownAgent):
                    leave_worker(swarm, agent)
        ids = swarm.worker_ids()
        assert len(ids) == len(set(ids))
        assert swarm.master not in ids
        for agent_id in ids + (swarm.master,):
            assert role_of(swarm, agent_id) in (Role.MASTER, Role.WORKER)


def test_trusted_workload_sample_equals_validated_one():
    trusted = WorkloadSample.trusted(0.1, 0.2, 0.3, 1.0, timestamp=7)
    checked = WorkloadSample(cpu=0.1, vram=0.2, swap=0.3, bandwidth=1.0, timestamp=7)
    assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
