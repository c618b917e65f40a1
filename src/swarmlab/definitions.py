"""Declarative artifact formats: service, experiment and cluster files.

Three JSON document kinds are supported, conventionally named
``*.cdf.json`` (one service), ``*.edf.json`` (one experiment composed of
services) and ``*.cluster.json`` (a simulated worker fleet). Parsing is
total: any input text yields either a spec or a diagnostic that names the
position (syntax) or field path (schema) of the problem. Serialization is
canonical, so ``parse(serialize(x)) == x`` and equal specs produce
byte-identical documents; fields holding their default value are elided.
"""

from __future__ import annotations

import ipaddress
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Union

from .errors import (
    DefinitionSyntaxError,
    SchemaError,
    UnresolvedService,
    WeightError,
)
from .model import HardwareProfile

DEFAULT_BASE_OS = "scratch"
DEFAULT_IMAGE_SIZE_MB = 100.0
DEFAULT_POOL_DISCOUNT = 0.9
DEFAULT_SUBNET = "10.0.0.0/24"

RESOURCE_NAMES = ("cpu", "vram", "swap", "bandwidth")


@dataclass(frozen=True)
class MountVolume:
    host_path: str
    container_path: str

    def __post_init__(self):
        if not self.host_path or not self.container_path:
            raise SchemaError("volume paths must be non-empty")


@dataclass(frozen=True)
class ServiceSpec:
    """One containerized service: how to build it and what it needs to run.

    ``predefined_cost`` is the service's base cost in [0, 100]; the
    allocator scales it by the hosting worker's measured workload.
    ``image_size_mb`` drives the simulated fetch duration.
    """

    name: str
    entrypoint: str
    predefined_cost: float
    base_os: str = DEFAULT_BASE_OS
    packages: tuple[str, ...] = ()
    repositories: tuple[str, ...] = ()
    volumes: tuple[MountVolume, ...] = ()
    required_capabilities: frozenset[str] = frozenset()
    image_size_mb: float = DEFAULT_IMAGE_SIZE_MB

    def __post_init__(self):
        object.__setattr__(self, "packages", tuple(self.packages))
        object.__setattr__(self, "repositories", tuple(self.repositories))
        object.__setattr__(self, "volumes", tuple(self.volumes))
        object.__setattr__(self, "required_capabilities", frozenset(self.required_capabilities))
        object.__setattr__(self, "predefined_cost", float(self.predefined_cost))
        object.__setattr__(self, "image_size_mb", float(self.image_size_mb))
        if not self.name:
            raise SchemaError("service name must be non-empty", "name")
        if not self.entrypoint:
            raise SchemaError("entrypoint must be non-empty", "entrypoint")
        if not (math.isfinite(self.predefined_cost) and 0.0 <= self.predefined_cost <= 100.0):
            raise SchemaError(
                f"predefined_cost must be within [0, 100], got {self.predefined_cost!r}",
                "predefined_cost",
            )
        if not (math.isfinite(self.image_size_mb) and self.image_size_mb > 0.0):
            raise SchemaError("image_size_mb must be positive", "image_size_mb")


@dataclass(frozen=True)
class CostWeights:
    """Relative importance of the four resource costs; must sum to one."""

    cpu: float = 0.25
    vram: float = 0.25
    swap: float = 0.25
    bandwidth: float = 0.25

    def __post_init__(self):
        for name in RESOURCE_NAMES:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and math.isfinite(value) and 0.0 <= value <= 1.0):
                raise WeightError(f"weight must be within [0, 1], got {value!r}", name)
        total = self.cpu + self.vram + self.swap + self.bandwidth
        if abs(total - 1.0) > 1e-9:
            raise WeightError(f"weights must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.cpu, self.vram, self.swap, self.bandwidth)


DEFAULT_WEIGHTS = CostWeights()


@dataclass(frozen=True)
class OverlayConfig:
    """Overlay network parameters shared by an experiment's services."""

    subnet: str = DEFAULT_SUBNET
    ports: tuple[int, ...] = ()

    def __post_init__(self):
        try:
            ipaddress.ip_network(self.subnet)
        except ValueError as exc:
            raise SchemaError(f"invalid subnet CIDR: {exc}", "network.subnet") from None
        for port in self.ports:
            if not (isinstance(port, int) and not isinstance(port, bool) and 0 < port < 65536):
                raise SchemaError(f"invalid port {port!r}", "network.ports")
        object.__setattr__(self, "ports", tuple(sorted(set(self.ports))))


DEFAULT_NETWORK = OverlayConfig()


@dataclass(frozen=True)
class ExperimentSpec:
    """A named composition of services with dependencies and cost weights.

    ``dependencies`` holds directed (dependent, dependency) name pairs; the
    allocator treats them undirected when forming pools. ``pool_discount``
    is the factor applied to the summed cost of co-located services.
    """

    name: str
    services: tuple[ServiceSpec, ...]
    dependencies: tuple[tuple[str, str], ...] = ()
    network: OverlayConfig = DEFAULT_NETWORK
    weights: CostWeights = DEFAULT_WEIGHTS
    pool_discount: float = DEFAULT_POOL_DISCOUNT

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "pool_discount", float(self.pool_discount))
        if not self.name:
            raise SchemaError("experiment name must be non-empty", "name")
        if not self.services:
            raise SchemaError("an experiment needs at least one service", "services")
        names = [s.name for s in self.services]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate service names: {', '.join(dupes)}", "services")
        declared = set(names)
        for pair in self.dependencies:
            if len(pair) != 2:
                raise SchemaError(f"dependency must be a pair, got {pair!r}", "dependencies")
            left, right = pair
            for endpoint in (left, right):
                if endpoint not in declared:
                    raise SchemaError(f"dependency references undeclared service {endpoint!r}", "dependencies")
            if left == right:
                raise SchemaError(f"service {left!r} cannot depend on itself", "dependencies")
        normalized = tuple(sorted({(str(a), str(b)) for a, b in self.dependencies}))
        object.__setattr__(self, "dependencies", normalized)
        if not (math.isfinite(self.pool_discount) and 0.0 < self.pool_discount <= 1.0):
            raise SchemaError(
                f"pool_discount must be within (0, 1], got {self.pool_discount!r}", "pool_discount"
            )

    def service_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.services)


@dataclass(frozen=True)
class FixedWorkload:
    """Constant utilization vector (cpu, vram, swap, bandwidth)."""

    values: tuple[float, float, float, float]


@dataclass(frozen=True)
class UniformWorkload:
    """A worker-specific load level near ``center``, re-sampled with jitter.

    Each worker draws a persistent level uniformly from
    ``center +/- half_width`` (per resource, from its own seeded stream),
    then every iteration re-samples around that level with jitter of a
    quarter half-width. This mirrors fleets whose machines carry steady but
    unequal background load.
    """

    center: tuple[float, float, float, float]
    half_width: float


@dataclass(frozen=True)
class TraceWorkload:
    """Utilization vectors replayed row by row from a CSV file."""

    path: str


WorkloadModel = Union[FixedWorkload, UniformWorkload, TraceWorkload]


@dataclass(frozen=True)
class ClusterWorker:
    id: str
    profile: HardwareProfile
    workload: WorkloadModel


@dataclass(frozen=True)
class ClusterSpec:
    """A simulated fleet: worker hardware plus workload generators.

    No command reads ``seed``; each takes ``--seed``. It is only checked and serialized.
    """

    workers: tuple[ClusterWorker, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "workers", tuple(self.workers))
        ids = [w.id for w in self.workers]
        if len(ids) != len(set(ids)):
            raise SchemaError("cluster worker ids must be distinct", "workers")
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise SchemaError("seed must be a non-negative integer", "seed")


Resolver = Union[Mapping[str, ServiceSpec], Callable[[str], "ServiceSpec | None"], None]


# ---------------------------------------------------------------------------
# validated JSON access


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DefinitionSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise DefinitionSyntaxError("document nested too deeply") from None
    except ValueError:  # an integer literal past sys.get_int_max_str_digits()
        raise DefinitionSyntaxError("integer literal has too many digits") from None


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {type(value).__name__}", path)
    return value


def _check_keys(obj: dict, allowed: set[str], path: str):
    if obj.keys() <= allowed:
        return
    unknown = sorted(set(obj) - allowed)
    raise SchemaError(f"unknown field(s): {', '.join(map(str, unknown))}", path)


def _field(path: str, key: str) -> str:
    """The path of ``key`` in the object at ``path``; formatted only for an error."""
    return f"{path}.{key}" if path else key


def _get_str(obj: dict, key: str, path: str, *, required: bool = False, default: str = "") -> str:
    if key not in obj:
        if required:
            raise SchemaError(f"missing required field {key!r}", path)
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise SchemaError(f"expected a string, got {type(value).__name__}", _field(path, key))
    return value


def _as_float(value: "int | float") -> float:
    """``float(value)``, with an int too large for a float mapped to infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _get_number(obj: dict, key: str, path: str, *, required: bool = False, default: float = 0.0) -> float:
    if key not in obj:
        if required:
            raise SchemaError(f"missing required field {key!r}", path)
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {type(value).__name__}", _field(path, key))
    value = _as_float(value)
    if not math.isfinite(value):
        raise SchemaError("number must be finite", _field(path, key))
    return value


def _get_int(obj: dict, key: str, path: str, *, required: bool = False, default: int = 0) -> int:
    if key not in obj:
        if required:
            raise SchemaError(f"missing required field {key!r}", path)
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {type(value).__name__}", _field(path, key))
    return value


def _get_str_list(obj: dict, key: str, path: str) -> tuple[str, ...]:
    if key not in obj:
        return ()
    value = obj[key]
    if not isinstance(value, list):
        raise SchemaError(f"expected an array, got {type(value).__name__}", _field(path, key))
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise SchemaError(f"expected a string, got {type(item).__name__}",
                              f"{_field(path, key)}[{i}]")
    return tuple(value)


def _get_float_vector(obj: dict, key: str, path: str) -> tuple[float, float, float, float]:
    value = obj.get(key)
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError("expected an array of 4 utilization values", _field(path, key))
    if all(type(item) is float and 0.0 <= item <= 1.0 for item in value):  # NaN fails the range
        return tuple(value)  # type: ignore[return-value]
    for i, item in enumerate(value):
        number = not isinstance(item, bool) and isinstance(item, (int, float))
        if not (number and math.isfinite(_as_float(item))):
            raise SchemaError("expected a finite number", f"{_field(path, key)}[{i}]")
        if not 0.0 <= item <= 1.0:
            raise SchemaError(f"utilization must be within [0, 1], got {item!r}",
                              f"{_field(path, key)}[{i}]")
    return tuple(float(item) for item in value)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# service documents

_SERVICE_KEYS = {
    "name", "base_os", "packages", "repositories", "volumes",
    "entrypoint", "predefined_cost", "required_capabilities", "image_size_mb",
}


def parse_cdf(document: str) -> ServiceSpec:
    """Parse a single service definition document."""
    return _service_from_obj(_as_object(_loads(document), ""), "")


def _service_from_obj(obj: dict, path: str) -> ServiceSpec:
    _check_keys(obj, _SERVICE_KEYS, path)
    volumes = []
    raw_volumes = obj.get("volumes", [])
    vol_path = f"{path}.volumes" if path else "volumes"
    if not isinstance(raw_volumes, list):
        raise SchemaError(f"expected an array, got {type(raw_volumes).__name__}", vol_path)
    for i, raw in enumerate(raw_volumes):
        entry = _as_object(raw, f"{vol_path}[{i}]")
        _check_keys(entry, {"host_path", "container_path"}, f"{vol_path}[{i}]")
        volumes.append(MountVolume(
            host_path=_get_str(entry, "host_path", f"{vol_path}[{i}]", required=True),
            container_path=_get_str(entry, "container_path", f"{vol_path}[{i}]", required=True),
        ))
    spec = ServiceSpec(
        name=_get_str(obj, "name", path, required=True),
        entrypoint=_get_str(obj, "entrypoint", path, required=True),
        predefined_cost=_get_number(obj, "predefined_cost", path, required=True),
        base_os=_get_str(obj, "base_os", path, default=DEFAULT_BASE_OS),
        packages=_get_str_list(obj, "packages", path),
        repositories=_get_str_list(obj, "repositories", path),
        volumes=tuple(volumes),
        required_capabilities=frozenset(_get_str_list(obj, "required_capabilities", path)),
        image_size_mb=_get_number(obj, "image_size_mb", path, default=DEFAULT_IMAGE_SIZE_MB),
    )
    return spec


def _service_to_obj(spec: ServiceSpec) -> dict:
    obj: dict = {"name": spec.name}
    if spec.base_os != DEFAULT_BASE_OS:
        obj["base_os"] = spec.base_os
    if spec.packages:
        obj["packages"] = list(spec.packages)
    if spec.repositories:
        obj["repositories"] = list(spec.repositories)
    if spec.volumes:
        obj["volumes"] = [
            {"host_path": v.host_path, "container_path": v.container_path} for v in spec.volumes
        ]
    obj["entrypoint"] = spec.entrypoint
    obj["predefined_cost"] = spec.predefined_cost
    if spec.required_capabilities:
        obj["required_capabilities"] = sorted(spec.required_capabilities)
    if spec.image_size_mb != DEFAULT_IMAGE_SIZE_MB:
        obj["image_size_mb"] = spec.image_size_mb
    return obj


def serialize_cdf(spec: ServiceSpec) -> str:
    """Render a service definition in canonical form."""
    return json.dumps(_service_to_obj(spec), indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# experiment documents

_EDF_KEYS = {"name", "services", "dependencies", "network", "weights", "pool_discount"}
_REF_KEYS = {"ref", "predefined_cost", "required_capabilities"}


def _resolve(resolver: Resolver, name: str, path: str) -> ServiceSpec:
    found = None
    if isinstance(resolver, Mapping):
        found = resolver.get(name)
    elif callable(resolver):
        found = resolver(name)
    if found is None:
        raise UnresolvedService(f"{path}: no service definition found for {name!r}")
    return found


def parse_edf(document: str, resolver: Resolver = None) -> ExperimentSpec:
    """Parse an experiment definition document.

    Service entries are either inline service objects or ``{"ref": name}``
    references resolved through ``resolver`` (a mapping or a callable);
    references may override ``predefined_cost`` and
    ``required_capabilities`` per experiment.
    """
    obj = _as_object(_loads(document), "")
    _check_keys(obj, _EDF_KEYS, "")
    name = _get_str(obj, "name", "", required=True)

    raw_services = obj.get("services")
    if not isinstance(raw_services, list) or not raw_services:
        raise SchemaError("expected a non-empty array of services", "services")
    services = []
    for i, raw in enumerate(raw_services):
        entry = _as_object(raw, f"services[{i}]")
        if "ref" in entry:
            _check_keys(entry, _REF_KEYS, f"services[{i}]")
            ref = _get_str(entry, "ref", f"services[{i}]", required=True)
            spec = _resolve(resolver, ref, f"services[{i}]")
            if "predefined_cost" in entry:
                spec = replace(spec, predefined_cost=_get_number(
                    entry, "predefined_cost", f"services[{i}]", required=True))
            if "required_capabilities" in entry:
                spec = replace(spec, required_capabilities=frozenset(
                    _get_str_list(entry, "required_capabilities", f"services[{i}]")))
            services.append(spec)
        else:
            services.append(_service_from_obj(entry, f"services[{i}]"))

    dependencies = []
    raw_deps = obj.get("dependencies", [])
    if not isinstance(raw_deps, list):
        raise SchemaError(f"expected an array, got {type(raw_deps).__name__}", "dependencies")
    for i, raw in enumerate(raw_deps):
        if not (isinstance(raw, list) and len(raw) == 2
                and all(isinstance(endpoint, str) for endpoint in raw)):
            raise SchemaError("expected a [dependent, dependency] name pair", f"dependencies[{i}]")
        dependencies.append((raw[0], raw[1]))

    network = DEFAULT_NETWORK
    if "network" in obj:
        net = _as_object(obj["network"], "network")
        _check_keys(net, {"subnet", "ports"}, "network")
        ports = net.get("ports", [])
        if not isinstance(ports, list):
            raise SchemaError(f"expected an array, got {type(ports).__name__}", "network.ports")
        for i, port in enumerate(ports):
            if isinstance(port, bool) or not isinstance(port, int):
                raise SchemaError(f"expected an integer, got {type(port).__name__}", f"network.ports[{i}]")
        network = OverlayConfig(
            subnet=_get_str(net, "subnet", "network", default=DEFAULT_SUBNET),
            ports=tuple(ports),
        )

    weights = DEFAULT_WEIGHTS
    if "weights" in obj:
        w = _as_object(obj["weights"], "weights")
        _check_keys(w, set(RESOURCE_NAMES), "weights")
        weights = CostWeights(**{
            r: _get_number(w, r, "weights", required=True) for r in RESOURCE_NAMES
        })

    return ExperimentSpec(
        name=name,
        services=tuple(services),
        dependencies=tuple(dependencies),
        network=network,
        weights=weights,
        pool_discount=_get_number(obj, "pool_discount", "", default=DEFAULT_POOL_DISCOUNT),
    )


def serialize_edf(spec: ExperimentSpec) -> str:
    """Render an experiment in canonical form with all services inline."""
    obj: dict = {"name": spec.name}
    obj["services"] = [_service_to_obj(s) for s in spec.services]
    if spec.dependencies:
        obj["dependencies"] = [list(pair) for pair in spec.dependencies]
    if spec.network != DEFAULT_NETWORK:
        obj["network"] = {"subnet": spec.network.subnet, "ports": list(spec.network.ports)}
    if spec.weights != DEFAULT_WEIGHTS:
        obj["weights"] = {r: getattr(spec.weights, r) for r in RESOURCE_NAMES}
    if spec.pool_discount != DEFAULT_POOL_DISCOUNT:
        obj["pool_discount"] = spec.pool_discount
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# cluster documents

_PROFILE_KEYS = {"capabilities", "cpu_cores", "vram_mb", "swap_mb", "bandwidth_mbps"}
_WORKER_KEYS = {"id", "profile", "workload"}


def _profile_from_obj(obj: dict, path: str) -> HardwareProfile:
    _check_keys(obj, _PROFILE_KEYS, path)
    try:
        return HardwareProfile(
            capabilities=frozenset(_get_str_list(obj, "capabilities", path)),
            cpu_cores=_get_int(obj, "cpu_cores", path, default=1),
            vram_mb=_get_int(obj, "vram_mb", path, default=0),
            swap_mb=_get_int(obj, "swap_mb", path, default=0),
            bandwidth_mbps=_get_number(obj, "bandwidth_mbps", path, default=100.0),
        )
    except ValueError as exc:
        raise SchemaError(str(exc), path) from None


def _profile_to_obj(profile: HardwareProfile) -> dict:
    obj: dict = {}
    if profile.capabilities:
        obj["capabilities"] = sorted(profile.capabilities)
    if profile.cpu_cores != 1:
        obj["cpu_cores"] = profile.cpu_cores
    if profile.vram_mb:
        obj["vram_mb"] = profile.vram_mb
    if profile.swap_mb:
        obj["swap_mb"] = profile.swap_mb
    if profile.bandwidth_mbps != 100.0:
        obj["bandwidth_mbps"] = profile.bandwidth_mbps
    return obj


def _workload_from_obj(obj: dict, path: str) -> WorkloadModel:
    kind = _get_str(obj, "kind", path, required=True)
    if kind == "fixed":
        _check_keys(obj, {"kind", "values"}, path)
        return FixedWorkload(values=_get_float_vector(obj, "values", path))
    if kind == "uniform":
        _check_keys(obj, {"kind", "center", "half_width"}, path)
        half_width = _get_number(obj, "half_width", path, required=True)
        if not 0.0 <= half_width <= 1.0:
            raise SchemaError(f"half_width must be within [0, 1], got {half_width!r}",
                              f"{path}.half_width" if path else "half_width")
        return UniformWorkload(center=_get_float_vector(obj, "center", path), half_width=half_width)
    if kind == "trace":
        _check_keys(obj, {"kind", "path"}, path)
        trace_path = _get_str(obj, "path", path, required=True)
        if not trace_path or "\0" in trace_path:  # "" names the directory; open() rejects NUL
            raise SchemaError("trace path must be non-empty and contain no NUL character",
                              f"{path}.path" if path else "path")
        return TraceWorkload(path=trace_path)
    raise SchemaError(f"unknown workload kind {kind!r}", f"{path}.kind" if path else "kind")


def _workload_to_obj(model: WorkloadModel) -> dict:
    if isinstance(model, FixedWorkload):
        return {"kind": "fixed", "values": list(model.values)}
    if isinstance(model, UniformWorkload):
        return {"kind": "uniform", "center": list(model.center), "half_width": model.half_width}
    return {"kind": "trace", "path": model.path}


def parse_cluster(document: str) -> ClusterSpec:
    """Parse a cluster description used to drive simulations."""
    obj = _as_object(_loads(document), "")
    _check_keys(obj, {"workers", "seed"}, "")
    raw_workers = obj.get("workers")
    if not isinstance(raw_workers, list) or not raw_workers:
        raise SchemaError("expected a non-empty array of workers", "workers")
    workers = []
    for i, raw in enumerate(raw_workers):
        where = f"workers[{i}]"
        entry = _as_object(raw, where)
        _check_keys(entry, _WORKER_KEYS, where)
        worker_id = _get_str(entry, "id", where, required=True)
        if not worker_id:
            raise SchemaError("worker id must be non-empty", f"{where}.id")
        if "profile" in entry:
            profile_path = f"{where}.profile"
            profile = _profile_from_obj(_as_object(entry["profile"], profile_path), profile_path)
        else:
            profile = HardwareProfile()
        if "workload" not in entry:
            raise SchemaError("missing required field 'workload'", where)
        workload_path = f"{where}.workload"
        workload = _workload_from_obj(_as_object(entry["workload"], workload_path), workload_path)
        workers.append(ClusterWorker(id=worker_id, profile=profile, workload=workload))
    return ClusterSpec(workers=tuple(workers), seed=_get_int(obj, "seed", "", default=0))


def serialize_cluster(spec: ClusterSpec) -> str:
    """Render a cluster description in canonical form."""
    workers = []
    for w in spec.workers:
        entry: dict = {"id": w.id}
        profile = _profile_to_obj(w.profile)
        if profile:
            entry["profile"] = profile
        entry["workload"] = _workload_to_obj(w.workload)
        workers.append(entry)
    return json.dumps({"workers": workers, "seed": spec.seed}, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# file helpers


def load_cdf(path: "str | Path") -> ServiceSpec:
    return parse_cdf(Path(path).read_text(encoding="utf-8"))


def directory_resolver(directory: "str | Path") -> Callable[[str], "ServiceSpec | None"]:
    """Resolve service references against ``<directory>/<name>.cdf.json``."""
    base = Path(directory)

    def resolve(name: str) -> "ServiceSpec | None":
        candidate = base / f"{name}.cdf.json"
        if candidate.parent != base or not candidate.is_file():
            return None
        return load_cdf(candidate)

    return resolve


def load_edf(path: "str | Path", resolver: Resolver = None) -> ExperimentSpec:
    """Load an experiment; references default to CDFs beside the file."""
    location = Path(path)
    if resolver is None:
        resolver = directory_resolver(location.parent)
    return parse_edf(location.read_text(encoding="utf-8"), resolver)


def load_cluster(path: "str | Path") -> ClusterSpec:
    return parse_cluster(Path(path).read_text(encoding="utf-8"))
