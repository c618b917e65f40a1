"""Container-style experiment orchestration for robot swarms, simulated.

Declarative service/experiment/cluster definitions, a workload-sensitive
min-cost assignment service allocator, a deterministic simulator that emits
the master-worker lifecycle as trace events, and fairness metrics folded
over a run's allocation rounds.
"""

from .allocator import (
    AllocationResult,
    AllocationUnit,
    Assignment,
    allocate_experiment,
    enumerate_unit_configurations,
    explain,
)
from .costing import (
    COST_SCALE,
    bandwidth_cost,
    build_capability_matrix,
    build_dependency_matrix,
    cpu_cost,
    edge_cost,
    pooled_capability,
    pooled_cost,
    swap_cost,
    vram_cost,
)
from .definitions import (
    ClusterSpec,
    CostWeights,
    ExperimentSpec,
    ServiceSpec,
    load_cluster,
    load_edf,
    parse_cdf,
    parse_cluster,
    parse_edf,
    serialize_cdf,
    serialize_cluster,
    serialize_edf,
)
from .metrics import (
    REPORT_HEADER,
    ReportFold,
    allocation_frequency,
    jains_index,
)
from .model import HardwareProfile, WorkerState, WorkloadSample
from .swarmsim import (
    SimConfig,
    SimTrace,
    WorkloadGenerator,
    measure_scaling,
    run_experiment,
    run_iteration,
    trace_to_jsonl,
)

__version__ = "0.9.0"
