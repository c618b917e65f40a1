import pytest

from swarmlab.model import HardwareProfile, WorkloadSample


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
    values = {"cpu": 0.0, "vram": 0.0, "swap": 0.0, "bandwidth": 0.0}
    values.update(kwargs)
    with pytest.raises(ValueError):
        WorkloadSample(**values)

