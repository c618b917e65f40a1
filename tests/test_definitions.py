import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from swarmlab import definitions
from swarmlab.definitions import (
    DEFAULT_BASE_OS,
    DEFAULT_IMAGE_SIZE_MB,
    DEFAULT_POOL_DISCOUNT,
    ClusterSpec,
    ClusterWorker,
    CostWeights,
    ExperimentSpec,
    FixedWorkload,
    MountVolume,
    OverlayConfig,
    ServiceSpec,
    TraceWorkload,
    UniformWorkload,
    load_cdf,
    load_cluster,
    load_edf,
    parse_cdf,
    parse_cluster,
    parse_edf,
    read_bounded,
    read_document,
    serialize_cdf,
    serialize_cluster,
    serialize_edf,
)
from swarmlab.errors import (
    DefinitionSyntaxError,
    SchemaError,
    UnresolvedService,
    WeightError,
)
from swarmlab.model import HardwareProfile

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"
SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


# ---------------------------------------------------------------------------
# parsing


def test_minimal_cdf_applies_defaults():
    spec = parse_cdf('{"name": "cam", "entrypoint": "run", "predefined_cost": 50}')
    assert spec.name == "cam"
    assert spec.predefined_cost == 50.0
    assert spec.packages == ()
    assert spec.repositories == ()
    assert spec.volumes == ()
    assert spec.base_os == DEFAULT_BASE_OS
    assert spec.image_size_mb == DEFAULT_IMAGE_SIZE_MB


def test_cdf_cost_out_of_range():
    with pytest.raises(SchemaError):
        parse_cdf('{"name": "cam", "entrypoint": "run", "predefined_cost": 150}')


@pytest.mark.parametrize("document", [
    '{"entrypoint": "run", "predefined_cost": 50}',
    '{"name": "cam", "predefined_cost": 50}',
    '{"name": "", "entrypoint": "run", "predefined_cost": 50}',
    '{"name": "cam", "entrypoint": "run", "predefined_cost": "high"}',
    '{"name": "cam", "entrypoint": "run", "predefined_cost": 50, "bogus": 1}',
    '{"name": "cam", "entrypoint": "run", "predefined_cost": 50, "image_size_mb": 0}',
    '[1, 2]',
])
def test_cdf_schema_violations(document):
    with pytest.raises(SchemaError):
        parse_cdf(document)


def test_syntax_error_carries_position():
    with pytest.raises(DefinitionSyntaxError) as excinfo:
        parse_cdf('{"name": "cam",\n  "entrypoint": }')
    assert excinfo.value.line == 2
    assert excinfo.value.column > 0


def test_edf_weights_validation():
    base = {
        "name": "e",
        "services": [{"name": "a", "entrypoint": "run", "predefined_cost": 10}],
    }
    ok = dict(base, weights={"cpu": 0.25, "vram": 0.25, "swap": 0.25, "bandwidth": 0.25})
    assert parse_edf(json.dumps(ok)).weights == CostWeights()
    bad = dict(base, weights={"cpu": 0.5, "vram": 0.5, "swap": 0.5, "bandwidth": 0.5})
    with pytest.raises(WeightError):
        parse_edf(json.dumps(bad))


def test_edf_six_services_no_dependencies():
    services = [{"name": f"s{j}", "entrypoint": "run", "predefined_cost": 10} for j in range(6)]
    spec = parse_edf(json.dumps({"name": "e", "services": services}))
    assert len(spec.services) == 6
    assert spec.dependencies == ()


def _definitions(directory: Path, *services: ServiceSpec) -> Path:
    """``directory``, made, holding ``<name>.cdf.json`` for each of ``services``."""
    directory.mkdir(exist_ok=True)
    for service in services:
        (directory / f"{service.name}.cdf.json").write_text(serialize_cdf(service), encoding="utf-8")
    return directory


_REFERENCED_CAM = ServiceSpec(name="cam", entrypoint="run", predefined_cost=30.0)


@pytest.fixture
def referenced(tmp_path) -> Path:
    """A directory holding ``cam.cdf.json``, for experiments that reference ``cam``."""
    return _definitions(tmp_path / "referenced", _REFERENCED_CAM)


def test_edf_reference_resolution_and_override(tmp_path, referenced):
    document = json.dumps({
        "name": "e",
        "services": [{"ref": "cam", "predefined_cost": 55}],
    })
    spec = parse_edf(document, referenced)
    assert spec.services[0].predefined_cost == 55.0
    assert spec.services[0].entrypoint == "run"
    with pytest.raises(UnresolvedService):
        parse_edf(document, _definitions(tmp_path / "empty"))
    with pytest.raises(UnresolvedService):
        parse_edf(document)


def test_edf_rejects_bad_dependencies():
    services = [{"name": "a", "entrypoint": "run", "predefined_cost": 1},
                {"name": "b", "entrypoint": "run", "predefined_cost": 1}]
    with pytest.raises(SchemaError):
        parse_edf(json.dumps({"name": "e", "services": services,
                              "dependencies": [["a", "ghost"]]}))
    with pytest.raises(SchemaError):
        parse_edf(json.dumps({"name": "e", "services": services,
                              "dependencies": [["a", "a"]]}))


def test_edf_duplicate_service_names():
    services = [{"name": "a", "entrypoint": "run", "predefined_cost": 1},
                {"name": "a", "entrypoint": "run", "predefined_cost": 2}]
    with pytest.raises(SchemaError):
        parse_edf(json.dumps({"name": "e", "services": services}))
    # Every repeated name once, sorted.
    services = [{"name": name, "entrypoint": "run", "predefined_cost": 1}
                for name in ("c", "a", "b", "a", "c", "c")]
    with pytest.raises(SchemaError) as raised:
        parse_edf(json.dumps({"name": "e", "services": services}))
    assert str(raised.value) == "services: duplicate service names: a, c"


def test_cluster_parsing_and_duplicate_ids():
    document = {
        "workers": [
            {"id": "w1", "profile": {"cpu_cores": 2},
             "workload": {"kind": "fixed", "values": [0.1, 0.2, 0.3, 0.4]}},
            {"id": "w2", "workload": {"kind": "uniform", "center": [0.3, 0.3, 0.1, 0.3],
                                      "half_width": 0.1}},
        ],
        "seed": 9,
    }
    spec = parse_cluster(json.dumps(document))
    assert spec.seed == 9
    assert spec.workers[0].profile.cpu_cores == 2
    assert isinstance(spec.workers[1].workload, UniformWorkload)

    document["workers"][1]["id"] = "w1"
    with pytest.raises(SchemaError):
        parse_cluster(json.dumps(document))


def test_cluster_rejects_unknown_workload_kind():
    document = {"workers": [{"id": "w1", "workload": {"kind": "sine"}}]}
    with pytest.raises(SchemaError):
        parse_cluster(json.dumps(document))


_UNIFORM = {"kind": "uniform", "center": [0.3, 0.3, 0.1, 0.3], "half_width": 0.1}


def _cluster_with(worker, index=2):
    """A cluster whose worker ``index`` is ``worker``, after sound ones."""
    good = [{"id": f"ok{k}", "workload": _UNIFORM} for k in range(index)]
    return {"workers": [*good, worker]}


def _with_workload(**workload):
    return _cluster_with({"id": "w", "workload": workload})


@pytest.mark.parametrize("document, path, message", [
    ([], "", "expected an object, got list"),
    ({"workers": [], "extra": 1}, "", "unknown field(s): extra"),
    ({}, "workers", "expected a non-empty array of workers"),
    ({"workers": []}, "workers", "expected a non-empty array of workers"),
    ({"workers": {"id": "w"}}, "workers", "expected a non-empty array of workers"),
    (_cluster_with(5), "workers[2]", "expected an object, got int"),
    (_cluster_with({"id": "w", "workload": _UNIFORM, "gpu": 1}), "workers[2]",
     "unknown field(s): gpu"),
    (_cluster_with({"workload": _UNIFORM}), "workers[2]", "missing required field 'id'"),
    (_cluster_with({"id": 7, "workload": _UNIFORM}), "workers[2].id", "expected a string, got int"),
    (_cluster_with({"id": "", "workload": _UNIFORM}), "workers[2].id", "worker id must be non-empty"),
    (_cluster_with({"id": "w"}), "workers[2]", "missing required field 'workload'"),
    (_cluster_with({"id": "w", "profile": [], "workload": _UNIFORM}), "workers[2].profile",
     "expected an object, got list"),
    (_cluster_with({"id": "w", "profile": {"gpus": 1}, "workload": _UNIFORM}),
     "workers[2].profile", "unknown field(s): gpus"),
    (_cluster_with({"id": "w", "profile": {"cpu_cores": 0}, "workload": _UNIFORM}),
     "workers[2].profile", "cpu_cores must be positive"),
    (_cluster_with({"id": "w", "profile": {"cpu_cores": "2"}, "workload": _UNIFORM}),
     "workers[2].profile.cpu_cores", "expected an integer, got str"),
    (_cluster_with({"id": "w", "profile": {"bandwidth_mbps": True}, "workload": _UNIFORM}),
     "workers[2].profile.bandwidth_mbps", "expected a number, got bool"),
    (_cluster_with({"id": "w", "profile": {"capabilities": "cam"}, "workload": _UNIFORM}),
     "workers[2].profile.capabilities", "expected an array, got str"),
    (_cluster_with({"id": "w", "profile": {"capabilities": ["cam", 1]}, "workload": _UNIFORM}),
     "workers[2].profile.capabilities[1]", "expected a string, got int"),
    (_cluster_with({"id": "w", "workload": "uniform"}), "workers[2].workload",
     "expected an object, got str"),
    (_with_workload(center=[0.1, 0.1, 0.1, 0.1]), "workers[2].workload",
     "missing required field 'kind'"),
    (_with_workload(kind=3), "workers[2].workload.kind", "expected a string, got int"),
    (_with_workload(kind="sine"), "workers[2].workload.kind", "unknown workload kind 'sine'"),
    (_with_workload(kind="fixed", values=[0.1] * 4, half_width=0.1), "workers[2].workload",
     "unknown field(s): half_width"),
    (_with_workload(kind="fixed"), "workers[2].workload.values",
     "expected an array of 4 utilization values"),
    (_with_workload(kind="fixed", values=[0.1] * 3), "workers[2].workload.values",
     "expected an array of 4 utilization values"),
    (_with_workload(kind="fixed", values="0.1"), "workers[2].workload.values",
     "expected an array of 4 utilization values"),
    (_with_workload(kind="fixed", values=[0.1, "0.2", 0.3, 0.4]), "workers[2].workload.values[1]",
     "expected a finite number"),
    (_with_workload(kind="fixed", values=[0.1, 0.2, True, 0.4]), "workers[2].workload.values[2]",
     "expected a finite number"),
    (_with_workload(kind="fixed", values=[0.1, 0.2, 0.3, None]), "workers[2].workload.values[3]",
     "expected a finite number"),
    (_with_workload(kind="fixed", values=[0.1, 0.2, 0.3, 1.5]), "workers[2].workload.values[3]",
     "utilization must be within [0, 1], got 1.5"),
    (_with_workload(kind="fixed", values=[-1, 0.2, 0.3, 0.4]), "workers[2].workload.values[0]",
     "utilization must be within [0, 1], got -1"),
    (_with_workload(kind="fixed", values=[2, 0.2, 0.3, 0.4]), "workers[2].workload.values[0]",
     "utilization must be within [0, 1], got 2"),
    (_with_workload(kind="fixed", values=[-1e-300, 0.2, 0.3, 0.4]), "workers[2].workload.values[0]",
     "utilization must be within [0, 1], got -1e-300"),
    (_with_workload(kind="uniform", center=[0.1] * 4), "workers[2].workload",
     "missing required field 'half_width'"),
    (_with_workload(kind="uniform", center=[0.1] * 4, half_width="0.1"),
     "workers[2].workload.half_width", "expected a number, got str"),
    (_with_workload(kind="uniform", center=[0.1] * 4, half_width=1.5),
     "workers[2].workload.half_width", "half_width must be within [0, 1], got 1.5"),
    (_with_workload(kind="uniform", half_width=0.1), "workers[2].workload.center",
     "expected an array of 4 utilization values"),
    (_with_workload(kind="uniform", center=[0.1, 0.1, 1.01, 0.1], half_width=0.1),
     "workers[2].workload.center[2]", "utilization must be within [0, 1], got 1.01"),
    (_with_workload(kind="trace"), "workers[2].workload", "missing required field 'path'"),
    (_with_workload(kind="trace", path=5), "workers[2].workload.path", "expected a string, got int"),
    (_with_workload(kind="trace", path=""), "workers[2].workload.path",
     "trace path must be non-empty and contain no NUL character"),
    (_with_workload(kind="trace", path="a\0b"), "workers[2].workload.path",
     "trace path must be non-empty and contain no NUL character"),
    (_with_workload(kind="trace", path="t.csv", values=[]), "workers[2].workload",
     "unknown field(s): values"),
    ({"workers": [{"id": "w", "workload": _UNIFORM}] * 2}, "workers",
     "cluster worker ids must be distinct; 'w' appears twice"),
    ({"workers": [{"id": "w", "workload": _UNIFORM}], "seed": -1}, "seed",
     "seed must be a non-negative integer"),
    ({"workers": [{"id": "w", "workload": _UNIFORM}], "seed": "1"}, "seed",
     "expected an integer, got str"),
])
def test_bad_cluster_documents_name_their_field(document, path, message):
    with pytest.raises(SchemaError) as raised:
        parse_cluster(json.dumps(document))
    assert raised.value.path == path
    assert str(raised.value) == (f"{path}: {message}" if path else message)


_CAM = {"name": "cam", "entrypoint": "run", "predefined_cost": 50}


def _cam(**changes):
    """The ``cam`` service object with ``changes`` applied; a None value deletes its key."""
    changed = {**_CAM, **changes}
    return {key: value for key, value in changed.items() if value is not None}


@pytest.mark.parametrize("document, path, message", [
    ([], "", "expected an object, got list"),
    (_cam(bogus=1, extra=2), "", "unknown field(s): bogus, extra"),
    (_cam(name=None), "", "missing required field 'name'"),
    (_cam(entrypoint=None), "", "missing required field 'entrypoint'"),
    (_cam(predefined_cost=None), "", "missing required field 'predefined_cost'"),
    (_cam(name=7), "name", "expected a string, got int"),
    (_cam(entrypoint=[]), "entrypoint", "expected a string, got list"),
    (_cam(predefined_cost="high"), "predefined_cost", "expected a number, got str"),
    (_cam(predefined_cost=True), "predefined_cost", "expected a number, got bool"),
    (_cam(predefined_cost=10**400), "predefined_cost", "number must be finite"),
    (_cam(base_os=1), "base_os", "expected a string, got int"),
    (_cam(packages="x"), "packages", "expected an array, got str"),
    (_cam(packages=["a", 1]), "packages[1]", "expected a string, got int"),
    (_cam(repositories={}), "repositories", "expected an array, got dict"),
    (_cam(required_capabilities=[False]), "required_capabilities[0]", "expected a string, got bool"),
    (_cam(image_size_mb="big"), "image_size_mb", "expected a number, got str"),
    (_cam(image_size_mb=0), "image_size_mb", "image_size_mb must be positive"),
    (_cam(volumes={}), "volumes", "expected an array, got dict"),
    (_cam(volumes=[3]), "volumes[0]", "expected an object, got int"),
    (_cam(volumes=[{"host_path": "/a", "container_path": "/b", "mode": "ro"}]), "volumes[0]",
     "unknown field(s): mode"),
    (_cam(volumes=[{"container_path": "/b"}]), "volumes[0]", "missing required field 'host_path'"),
    (_cam(volumes=[{"host_path": "/a"}]), "volumes[0]", "missing required field 'container_path'"),
    (_cam(volumes=[{"host_path": "/a", "container_path": 1}]), "volumes[0].container_path",
     "expected a string, got int"),
    (_cam(name=""), "name", "service name must be non-empty"),
    (_cam(entrypoint=""), "entrypoint", "entrypoint must be non-empty"),
    (_cam(predefined_cost=150), "predefined_cost", "predefined_cost must be within [0, 100], got 150.0"),
    (_cam(predefined_cost=-1), "predefined_cost", "predefined_cost must be within [0, 100], got -1.0"),
    (_cam(volumes=[{"host_path": "", "container_path": "/b"}]), "volumes[0]",
     "volume paths must be non-empty"),
    # volumes are read before the name, and every field before the constructor's checks
    (_cam(name=None, volumes=5), "volumes", "expected an array, got int"),
    (_cam(name="", image_size_mb="big"), "image_size_mb", "expected a number, got str"),
])
def test_bad_service_documents_name_their_field(document, path, message):
    with pytest.raises(SchemaError) as raised:
        parse_cdf(json.dumps(document))
    assert type(raised.value) is SchemaError
    assert raised.value.path == path
    assert str(raised.value) == (f"{path}: {message}" if path else message)


_PAIR = [{"name": "a", "entrypoint": "run", "predefined_cost": 1},
         {"name": "b", "entrypoint": "run", "predefined_cost": 2}]


def _edf(**changes):
    """A two-service experiment with ``changes`` applied; a None value deletes its key."""
    changed = {"name": "e", "services": _PAIR, **changes}
    return {key: value for key, value in changed.items() if value is not None}


def _second_service(**changes):
    return _edf(services=[_PAIR[0], {**_PAIR[1], **changes}])


def _ref(**entry):
    return _edf(services=[_PAIR[0], entry])


@pytest.mark.parametrize("document, path, message, error", [
    ([], "", "expected an object, got list", SchemaError),
    (_edf(owner="x"), "", "unknown field(s): owner", SchemaError),
    (_edf(name=None), "", "missing required field 'name'", SchemaError),
    (_edf(name=1), "name", "expected a string, got int", SchemaError),
    (_edf(name=""), "name", "experiment name must be non-empty", SchemaError),
    (_edf(services=None), "services", "expected a non-empty array of services", SchemaError),
    (_edf(services=[]), "services", "expected a non-empty array of services", SchemaError),
    (_edf(services={"name": "a"}), "services", "expected a non-empty array of services", SchemaError),
    (_edf(services=[_PAIR[0], 1]), "services[1]", "expected an object, got int", SchemaError),
    (_second_service(bogus=1), "services[1]", "unknown field(s): bogus", SchemaError),
    (_edf(services=[_PAIR[0], {"name": "b", "predefined_cost": 2}]), "services[1]",
     "missing required field 'entrypoint'", SchemaError),
    (_second_service(predefined_cost="x"), "services[1].predefined_cost", "expected a number, got str",
     SchemaError),
    (_second_service(packages=["p", 1]), "services[1].packages[1]", "expected a string, got int",
     SchemaError),
    (_second_service(volumes=[{"host_path": "/a"}]), "services[1].volumes[0]",
     "missing required field 'container_path'", SchemaError),
    (_edf(services=[_PAIR[0], _PAIR[0]]), "services", "duplicate service names: a", SchemaError),
    # service references and their overrides
    (_ref(ref="cam", name="x"), "services[1]", "unknown field(s): name", SchemaError),
    (_ref(ref=5), "services[1].ref", "expected a string, got int", SchemaError),
    (_ref(ref="cam", predefined_cost="x"), "services[1].predefined_cost", "expected a number, got str",
     SchemaError),
    (_ref(ref="cam", predefined_cost=False), "services[1].predefined_cost", "expected a number, got bool",
     SchemaError),
    (_ref(ref="cam", required_capabilities="gpu"), "services[1].required_capabilities",
     "expected an array, got str", SchemaError),
    (_ref(ref="cam", required_capabilities=["gpu", 1]), "services[1].required_capabilities[1]",
     "expected a string, got int", SchemaError),
    # dependencies
    (_edf(dependencies="a"), "dependencies", "expected an array, got str", SchemaError),
    (_edf(dependencies=[["a", "b"], ["a"]]), "dependencies[1]",
     "expected a [dependent, dependency] name pair", SchemaError),
    (_edf(dependencies=[["a", 1]]), "dependencies[0]", "expected a [dependent, dependency] name pair",
     SchemaError),
    (_edf(dependencies=[["a", "b", "a"]]), "dependencies[0]",
     "expected a [dependent, dependency] name pair", SchemaError),
    (_edf(dependencies=[["a", "ghost"]]), "dependencies",
     "dependency references undeclared service 'ghost'", SchemaError),
    (_edf(dependencies=[["a", "a"]]), "dependencies", "service 'a' cannot depend on itself", SchemaError),
    # network
    (_edf(network=[]), "network", "expected an object, got list", SchemaError),
    (_edf(network={"vlan": 1}), "network", "unknown field(s): vlan", SchemaError),
    (_edf(network={"ports": "80"}), "network.ports", "expected an array, got str", SchemaError),
    (_edf(network={"ports": [80, "81"]}), "network.ports[1]", "expected an integer, got str",
     SchemaError),
    (_edf(network={"ports": [True]}), "network.ports[0]", "expected an integer, got bool", SchemaError),
    (_edf(network={"ports": [0]}), "network.ports", "invalid port 0", SchemaError),
    (_edf(network={"ports": [80, 65536]}), "network.ports", "invalid port 65536", SchemaError),
    (_edf(network={"subnet": 5}), "network.subnet", "expected a string, got int", SchemaError),
    (_edf(network={"subnet": "10.0.0.0/33"}), "network.subnet",
     "invalid subnet CIDR: '10.0.0.0/33' does not appear to be an IPv4 or IPv6 network", SchemaError),
    (_edf(network={"subnet": 5, "ports": "80"}), "network.ports", "expected an array, got str",
     SchemaError),
    # weights
    (_edf(weights=[]), "weights", "expected an object, got list", SchemaError),
    (_edf(weights={"cpu": 1}), "weights", "missing required field 'vram'", SchemaError),
    (_edf(weights={"cpu": 0.25, "vram": 0.25, "swap": 0.25, "bandwidth": 0.25, "gpu": 0}), "weights",
     "unknown field(s): gpu", SchemaError),
    (_edf(weights={"cpu": "x", "vram": 0.25, "swap": 0.25, "bandwidth": 0.25}), "weights.cpu",
     "expected a number, got str", SchemaError),
    # pool discount
    (_edf(pool_discount="x"), "pool_discount", "expected a number, got str", SchemaError),
    (_edf(pool_discount=0), "pool_discount", "pool_discount must be within (0, 1], got 0.0", SchemaError),
    (_edf(pool_discount=1.5), "pool_discount", "pool_discount must be within (0, 1], got 1.5",
     SchemaError),
    # a constructor's fault is located at the object it builds
    (_second_service(name=""), "services[1].name", "service name must be non-empty", SchemaError),
    (_second_service(entrypoint=""), "services[1].entrypoint", "entrypoint must be non-empty",
     SchemaError),
    (_second_service(predefined_cost=150), "services[1].predefined_cost",
     "predefined_cost must be within [0, 100], got 150.0", SchemaError),
    (_second_service(image_size_mb=0), "services[1].image_size_mb", "image_size_mb must be positive",
     SchemaError),
    (_edf(services=[{**_PAIR[0], "volumes": [{"host_path": "", "container_path": "/b"}]}, _PAIR[1]]),
     "services[0].volumes[0]", "volume paths must be non-empty", SchemaError),
    (_ref(ref="cam", predefined_cost=150), "services[1].predefined_cost",
     "predefined_cost must be within [0, 100], got 150.0", SchemaError),
    # a reference's overrides are applied one at a time, as each is read
    (_ref(ref="cam", predefined_cost=150, required_capabilities="gpu"), "services[1].predefined_cost",
     "predefined_cost must be within [0, 100], got 150.0", SchemaError),
    (_edf(weights={"cpu": 1.5, "vram": 0, "swap": 0, "bandwidth": -0.5}), "weights.cpu",
     "weight must be within [0, 1], got 1.5", WeightError),
    (_edf(weights={"cpu": 0.25, "vram": 0.25, "swap": 0.25, "bandwidth": -0.5}), "weights.bandwidth",
     "weight must be within [0, 1], got -0.5", WeightError),
    (_edf(weights={"cpu": 0.5, "vram": 0.5, "swap": 0.5, "bandwidth": 0.5}), "weights",
     "weights must sum to 1, got 2.0", WeightError),
    # faults are reported in read order: name, services, dependencies, network, weights, discount
    (_edf(name=None, services=None), "", "missing required field 'name'", SchemaError),
    (_edf(services=None, dependencies="a"), "services", "expected a non-empty array of services",
     SchemaError),
    (_edf(dependencies="a", network=[]), "dependencies", "expected an array, got str", SchemaError),
    (_edf(network=[], weights=[]), "network", "expected an object, got list", SchemaError),
    (_edf(weights=[], pool_discount="x"), "weights", "expected an object, got list", SchemaError),
    (_edf(name="", pool_discount="x"), "pool_discount", "expected a number, got str", SchemaError),
])
def test_bad_experiment_documents_name_their_field(referenced, document, path, message, error):
    with pytest.raises(error) as raised:
        parse_edf(json.dumps(document), referenced)
    assert type(raised.value) is error
    assert raised.value.path == path
    assert str(raised.value) == (f"{path}: {message}" if path else message)


@pytest.mark.parametrize("entry", [
    {"ref": "ghost"},
    {"ref": "ghost", "predefined_cost": "x"},  # the reference is resolved before its overrides
])
def test_unresolved_reference_names_its_entry(referenced, entry):
    with pytest.raises(UnresolvedService) as raised:
        parse_edf(json.dumps(_ref(**entry)), referenced)
    assert str(raised.value) == "services[1]: no service definition found for 'ghost'"


@pytest.mark.parametrize("literal, index", [("NaN", 0), ("Infinity", 1), ("-Infinity", 2),
                                            ("1e400", 3), ("1" + "0" * 400, 0)])
def test_cluster_utilization_values_must_be_finite(literal, index):
    values = ["0.5"] * 4
    values[index] = literal
    document = ('{"workers": [{"id": "w", "workload": {"kind": "fixed", "values": [%s]}}]}'
                % ", ".join(values))
    with pytest.raises(SchemaError) as raised:
        parse_cluster(document)
    assert str(raised.value) == f"workers[0].workload.values[{index}]: expected a finite number"


def test_cluster_utilization_values_keep_their_float_value():
    document = _cluster_with({"id": "w", "workload": {"kind": "fixed", "values": [0, 1, -0.0, 0.25]}})
    [*_, worker] = parse_cluster(json.dumps(document)).workers
    assert [(type(v), v.hex()) for v in worker.workload.values] == \
        [(float, v.hex()) for v in (0.0, 1.0, -0.0, 0.25)]
    assert worker.workload == FixedWorkload((0.0, 1.0, -0.0, 0.25))


# ---------------------------------------------------------------------------
# canonical serialization


def test_golden_samples_are_canonical():
    for name, parse, serialize in [
        ("camera-driver.cdf.json", parse_cdf, serialize_cdf),
        ("grid-mapper.cdf.json", parse_cdf, serialize_cdf),
        ("bench.cluster.json", parse_cluster, serialize_cluster),
    ]:
        text = (SAMPLES / name).read_text(encoding="utf-8")
        assert serialize(parse(text)) == text, name
    text = (SAMPLES / "mapping-demo.edf.json").read_text(encoding="utf-8")
    assert serialize_edf(parse_edf(text)) == text


def test_empty_packages_are_elided():
    spec = ServiceSpec(name="cam", entrypoint="run", predefined_cost=50.0)
    assert "packages" not in json.loads(serialize_cdf(spec))


def test_dependency_pairs_survive_reordering():
    services = tuple(ServiceSpec(name=f"s{j}", entrypoint="run", predefined_cost=1.0)
                     for j in range(3))
    forward = ExperimentSpec(name="e", services=services,
                             dependencies=(("s0", "s1"), ("s2", "s1")))
    backward = ExperimentSpec(name="e", services=services,
                              dependencies=(("s2", "s1"), ("s0", "s1")))
    assert forward == backward
    reparsed = parse_edf(serialize_edf(forward))
    assert set(reparsed.dependencies) == {("s0", "s1"), ("s2", "s1")}


def test_references_resolve_beside_the_experiment(tmp_path):
    # cam.cdf.json sits both in the experiment's directory and in its parent.
    directory = _definitions(_definitions(tmp_path, _REFERENCED_CAM) / "experiment", _REFERENCED_CAM)
    (directory / "dir.cdf.json").mkdir()  # not a regular file

    def resolved(name, where=directory):
        return parse_edf(json.dumps({"name": "e", "services": [{"ref": name}]}), where)

    assert resolved("cam").services == (_REFERENCED_CAM,)
    assert resolved("cam", str(directory)).services == (_REFERENCED_CAM,)
    (directory / "e.edf.json").write_text(json.dumps({"name": "e", "services": [{"ref": "cam"}]}),
                                          encoding="utf-8")
    assert load_edf(directory / "e.edf.json").services == (_REFERENCED_CAM,)
    # Only a regular file directly in the directory: not one above it or below it.
    for name, where in (("ghost", directory), ("../cam", directory), ("dir", directory),
                        ("experiment/cam", tmp_path), ("cam", None)):
        with pytest.raises(UnresolvedService) as raised:
            resolved(name, where)
        assert str(raised.value) == f"services[0]: no service definition found for {name!r}"


def test_each_referenced_definition_is_read_once(tmp_path, monkeypatch):
    services = [ServiceSpec(name=name, entrypoint="run", predefined_cost=cost)
                for name, cost in (("a", 1.0), ("b", 2.0), ("c", 3.0))]
    directory = _definitions(tmp_path, *services)
    reads = []

    def counted(path):
        reads.append(Path(path).name)
        return load_cdf(path)
    monkeypatch.setattr(definitions, "load_cdf", counted)

    def parsed(*entries):
        return parse_edf(json.dumps({"name": "e", "services": list(entries)}), directory)

    spec = parsed({"ref": "a"}, {"ref": "b", "predefined_cost": 20}, {"ref": "c"})
    assert reads == ["a.cdf.json", "b.cdf.json", "c.cdf.json"]
    assert spec.services == (services[0], replace(services[1], predefined_cost=20.0), services[2])
    # One name referenced three times is read once, and each entry's overrides still apply:
    # the second entry's is refused, after the one read.
    reads.clear()
    with pytest.raises(SchemaError) as raised:
        parsed({"ref": "a"}, {"ref": "a", "predefined_cost": 150}, {"ref": "a"})
    assert str(raised.value) == "services[1].predefined_cost: predefined_cost must be within [0, 100], got 150.0"
    assert reads == ["a.cdf.json"]
    reads.clear()
    with pytest.raises(SchemaError, match="duplicate service names: a"):
        parsed({"ref": "a"}, {"ref": "a", "required_capabilities": ["gpu"]}, {"ref": "a"})
    assert reads == ["a.cdf.json"]
    # Each document reads its definitions anew.
    reads.clear()
    parsed({"ref": "a"})
    parsed({"ref": "a"})
    assert reads == ["a.cdf.json"] * 2


# ---------------------------------------------------------------------------
# round-trip properties

_names = st.text(min_size=1, max_size=12)


@st.composite
def service_specs(draw, name=None):
    return ServiceSpec(
        name=name if name is not None else draw(_names),
        entrypoint=draw(st.text(min_size=1, max_size=20)),
        predefined_cost=draw(st.floats(0, 100, allow_nan=False)),
        base_os=draw(st.one_of(st.just(DEFAULT_BASE_OS), st.text(min_size=1, max_size=10))),
        packages=tuple(draw(st.lists(st.text(max_size=8), max_size=3))),
        repositories=tuple(draw(st.lists(st.text(max_size=8), max_size=2))),
        volumes=tuple(MountVolume(host, container) for host, container in draw(
            st.lists(st.tuples(st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8)),
                     max_size=2))),
        required_capabilities=frozenset(draw(st.lists(st.text(max_size=6), max_size=3))),
        image_size_mb=draw(st.floats(0.001, 100000, allow_nan=False)),
    )


@st.composite
def experiment_specs(draw):
    names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    services = tuple(draw(service_specs(name=name)) for name in names)
    dependencies = []
    if len(names) >= 2:
        index_pairs = draw(st.lists(
            st.tuples(st.integers(0, len(names) - 1), st.integers(0, len(names) - 1)),
            max_size=3))
        dependencies = [(names[a], names[b]) for a, b in index_pairs if a != b]
    raw = draw(st.lists(st.integers(0, 50), min_size=4, max_size=4).filter(lambda v: sum(v) > 0))
    total = sum(raw)
    weights = CostWeights(*[value / total for value in raw])
    network = OverlayConfig(
        subnet=draw(st.sampled_from(["10.0.0.0/24", "10.32.0.0/16", "192.168.7.0/28", "fd00::/64"])),
        ports=tuple(draw(st.lists(st.integers(1, 65535), max_size=3))),
    )
    return ExperimentSpec(
        name=draw(_names),
        services=services,
        dependencies=tuple(dependencies),
        network=network,
        weights=weights,
        pool_discount=draw(st.floats(0.01, 1.0, allow_nan=False)),
    )


@settings(max_examples=150)
@given(service_specs())
def test_cdf_round_trip(spec):
    assert parse_cdf(serialize_cdf(spec)) == spec


@settings(max_examples=150)
@given(experiment_specs())
def test_edf_round_trip(spec):
    assert parse_edf(serialize_edf(spec)) == spec


# ---------------------------------------------------------------------------
# parsing is total

_ALLOWED = (DefinitionSyntaxError, SchemaError, UnresolvedService)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(st.text(max_size=200))
def test_parse_never_crashes_on_text(text):
    for parse in (parse_cdf, parse_edf, parse_cluster):
        try:
            parse(text)
        except _ALLOWED:
            pass


@given(_json_values)
def test_parse_never_crashes_on_json(value):
    document = json.dumps(value)
    for parse in (parse_cdf, parse_edf, parse_cluster):
        try:
            parse(document)
        except _ALLOWED:
            pass


def test_parse_survives_deep_nesting():
    with pytest.raises(DefinitionSyntaxError):
        parse_cdf("[" * 200000)


def test_pool_discount_range():
    services = (ServiceSpec(name="a", entrypoint="run", predefined_cost=1.0),)
    assert ExperimentSpec(name="e", services=services).pool_discount == DEFAULT_POOL_DISCOUNT
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(SchemaError):
            ExperimentSpec(name="e", services=services, pool_discount=bad)


# ---------------------------------------------------------------------------
# the JSON schemas in docs/schemas agree with the parser


def _schema(kind: str) -> dict:
    return json.loads((SCHEMAS / f"{kind}.schema.json").read_text(encoding="utf-8"))


_CDF, _EDF, _CLUSTER = _schema("cdf"), _schema("edf"), _schema("cluster")
_WORKER = _CLUSTER["properties"]["workers"]["items"]
_WORKLOAD = {entry["properties"]["kind"]["const"]: entry
             for entry in _WORKER["properties"]["workload"]["oneOf"]}
_MINIMAL_SERVICE = {"name": "cam", "entrypoint": "./cam", "predefined_cost": 30}
_MINIMAL_EXPERIMENT = {"name": "exp", "services": [_MINIMAL_SERVICE]}
_MINIMAL_WORKER = {"id": "w1", "workload": {"kind": "fixed", "values": [0.1, 0.2, 0.3, 0.4]}}


def _in_service(key):
    return lambda obj: parse_cdf(json.dumps({**_MINIMAL_SERVICE, key: [obj]}))


def _in_experiment(key):
    return lambda obj: parse_edf(json.dumps({**_MINIMAL_EXPERIMENT, key: obj}))


def _in_worker(key):
    return lambda obj: parse_cluster(json.dumps({"workers": [{**_MINIMAL_WORKER, key: obj}]}))


#: Each object kind the schemas describe: its schema, its dataclass, an object holding
#: its required keys alone, and the parse of a document that holds the object.
SCHEMA_OBJECTS = {
    "service": (_CDF, ServiceSpec, _MINIMAL_SERVICE, lambda obj: parse_cdf(json.dumps(obj))),
    "volume": (_CDF["properties"]["volumes"]["items"], MountVolume,
               {"host_path": "/data", "container_path": "/mnt"}, _in_service("volumes")),
    "experiment": (_EDF, ExperimentSpec, _MINIMAL_EXPERIMENT, lambda obj: parse_edf(json.dumps(obj))),
    "network": (_EDF["properties"]["network"], OverlayConfig, {}, _in_experiment("network")),
    "weights": (_EDF["properties"]["weights"], CostWeights,
                {"cpu": 0.4, "vram": 0.1, "swap": 0.2, "bandwidth": 0.3}, _in_experiment("weights")),
    "cluster": (_CLUSTER, ClusterSpec, {"workers": [_MINIMAL_WORKER]},
                lambda obj: parse_cluster(json.dumps(obj))),
    "worker": (_WORKER, ClusterWorker, _MINIMAL_WORKER,
               lambda obj: parse_cluster(json.dumps({"workers": [obj]}))),
    "profile": (_WORKER["properties"]["profile"], HardwareProfile, {}, _in_worker("profile")),
    "fixed workload": (_WORKLOAD["fixed"], FixedWorkload, _MINIMAL_WORKER["workload"],
                       _in_worker("workload")),
    "uniform workload": (_WORKLOAD["uniform"], UniformWorkload,
                         {"kind": "uniform", "center": [0.2, 0.3, 0.1, 0.2], "half_width": 0.1},
                         _in_worker("workload")),
    "trace workload": (_WORKLOAD["trace"], TraceWorkload, {"kind": "trace", "path": "load.csv"},
                       _in_worker("workload")),
}
#: The required arrays that must hold items: their reader's message stands for a missing key.
_ARRAY_MESSAGES = {"services": "expected a non-empty array of services",
                   "workers": "expected a non-empty array of workers",
                   "values": "expected an array of 4 utilization values",
                   "center": "expected an array of 4 utilization values"}


def test_every_object_kind_of_the_schemas_is_checked():
    assert set(_WORKLOAD) == {"fixed", "uniform", "trace"}
    assert all(schema.get("additionalProperties") is False
               for schema, *_ in SCHEMA_OBJECTS.values())


@pytest.mark.parametrize("kind", SCHEMA_OBJECTS)
def test_schema_properties_are_the_dataclass_fields(kind):
    schema, spec, _, _ = SCHEMA_OBJECTS[kind]
    # A workload object also names its kind, which selects the dataclass.
    assert set(schema["properties"]) - {"kind"} == {f.name for f in fields(spec)}


@pytest.mark.parametrize("kind", SCHEMA_OBJECTS)
def test_schema_defaults_are_the_parsers(kind):
    schema, _, minimal, parse = SCHEMA_OBJECTS[kind]
    defaults = {key: prop["default"] for key, prop in schema["properties"].items() if "default" in prop}
    assert parse({**minimal, **defaults}) == parse(minimal)


@pytest.mark.parametrize("kind", SCHEMA_OBJECTS)
def test_schema_required_keys_are_the_parsers(kind):
    schema, _, minimal, parse = SCHEMA_OBJECTS[kind]
    assert set(minimal) == set(schema.get("required", ()))
    parse(minimal)
    for key in schema.get("required", ()):
        message = _ARRAY_MESSAGES.get(key, f"missing required field {key!r}")
        with pytest.raises(SchemaError, match=f"(^|: ){re.escape(message)}$"):
            parse({name: value for name, value in minimal.items() if name != key})


@pytest.mark.parametrize("kind", SCHEMA_OBJECTS)
def test_keys_outside_the_schema_properties_are_unknown(kind):
    _, _, minimal, parse = SCHEMA_OBJECTS[kind]
    with pytest.raises(SchemaError, match=r"(^|: )unknown field\(s\): extra$"):
        parse({**minimal, "extra": 1})


# ---------------------------------------------------------------------------
# the bounded reader


def _read_text_outcome(path: Path) -> str:
    """What ``Path.read_text(encoding="utf-8")`` gives for ``path``: its text, or its error's message."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return f"UnicodeDecodeError: {exc}"


def _read_document_outcome(path: Path) -> str:
    try:
        return read_document(path)
    except UnicodeDecodeError as exc:
        return f"UnicodeDecodeError: {exc}"


@pytest.mark.parametrize("data", [
    b'{"a": 1}\n[2,\n3]\n',  # LF
    b'{"a": 1}\r\n[2,\r\n3]\r\n',  # CR LF
    b'{"a": 1}\r[2,\r3]\r',  # lone CR
    b'{"a":\r\r\n\n\r1}',  # the three mixed, a CR before a CR LF
    b"\xef\xbb\xbf{}\r\n",  # a BOM stays in the text
    b"",
    b'{"a": "\xe9"}',  # invalid UTF-8: a lone Latin-1 byte
    b'{"a":\r\n "\xff"}',  # after a CR LF, which the position counts as two bytes
    b'{"a": "\xe2\x82"}',  # a truncated sequence at the end of the file
    b'{"a": "\xed\xa0\x80"}',  # an encoded surrogate
    "{\"caf\u00e9\": \"\u2028\"}\r".encode("utf-8"),
])
def test_read_document_is_read_text(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert _read_document_outcome(path) == _read_text_outcome(path)


@settings(max_examples=300, deadline=None)
@given(data=st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"a", b"\xef\xbb\xbf", b"\xc3\xa9",
                                      b"\xe9", b"\xc3", b"\x85", b"\xe2\x80\xa8"]),
                     max_size=12).map(b"".join))
def test_read_document_is_read_text_on_mixed_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_bytes(data)
    assert _read_document_outcome(path) == _read_text_outcome(path)


@pytest.fixture
def read_sizes(monkeypatch):
    """The sizes that reads of files Path.open opens for reading ask for while the test runs."""
    sizes = []
    original = Path.open

    class Recording:
        def __init__(self, stream):
            self.stream = stream

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.stream.close()
            return False

        def read(self, size=-1):
            sizes.append(size)
            return self.stream.read(size)

    def recording(self, mode="r", *args, **kwargs):
        stream = original(self, mode, *args, **kwargs)
        return Recording(stream) if "r" in mode else stream

    monkeypatch.setattr(Path, "open", recording)
    return sizes


def test_read_bounded_reads_in_chunks_and_stops_at_the_first_short_read(tmp_path, read_sizes):
    path = tmp_path / "big.bin"
    data = bytes(range(256)) * 800  # 204,800 bytes: three full chunks and a short one
    path.write_bytes(data)
    assert read_bounded(path, 2**24, "file") == data
    assert read_sizes == [2**16] * 4
    # A file of whole chunks ends at the empty read after them.
    read_sizes.clear()
    path.write_bytes(data[:2**17])
    assert read_bounded(path, 2**24, "file") == data[:2**17]
    assert read_sizes == [2**16] * 3


def test_read_bounded_asks_for_no_more_than_one_byte_past_the_bound(tmp_path, read_sizes):
    path = tmp_path / "big.bin"
    path.write_bytes(b"x" * 204_800)
    with pytest.raises(SchemaError) as raised:
        read_bounded(path, 100_000, "file")
    assert str(raised.value) == f"{path}: file exceeds 100000 bytes"
    assert read_sizes == [2**16, 100_001 - 2**16]
    # Exactly at the bound the file is read whole.
    read_sizes.clear()
    assert read_bounded(path, 204_800, "file") == b"x" * 204_800
    assert read_sizes == [2**16] * 3 + [204_801 - 3 * 2**16]


@pytest.mark.parametrize("load, text", [
    (load_cdf, serialize_cdf(ServiceSpec(name="cam", entrypoint="run", predefined_cost=10.0))),
    (load_edf, serialize_edf(ExperimentSpec(name="e", services=(
        ServiceSpec(name="cam", entrypoint="run", predefined_cost=10.0),)))),
    (load_cluster, serialize_cluster(ClusterSpec(workers=(ClusterWorker(
        id="w", profile=HardwareProfile(), workload=FixedWorkload((0.1, 0.2, 0.3, 0.4))),)))),
])
def test_documents_past_the_bound_are_refused(tmp_path, monkeypatch, load, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    size = len(text.encode("utf-8"))
    monkeypatch.setattr(definitions, "MAX_DOCUMENT_BYTES", size)
    load(path)  # exactly at the bound
    monkeypatch.setattr(definitions, "MAX_DOCUMENT_BYTES", size - 1)
    with pytest.raises(SchemaError) as raised:
        load(path)
    assert str(raised.value) == f"{path}: document exceeds {size - 1} bytes"
