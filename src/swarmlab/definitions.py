"""Declarative artifact formats: service, experiment and cluster files.

Three JSON document kinds are supported, conventionally named
``*.cdf.json`` (one service), ``*.edf.json`` (one experiment composed of
services) and ``*.cluster.json`` (a simulated worker fleet). Parsing is
total: any input text yields either a spec or a diagnostic that names the
position (syntax) or field path (schema) of the problem. Serialization is
canonical, so ``parse(serialize(x)) == x`` and equal specs produce
byte-identical documents; fields holding their default value are elided.

Each field default is declared once, on its dataclass. An object kind is a
table of field readers in read order (``_reader``): one loop reads the keys
an object holds, refuses a required key it lacks at that key's place in the
order, and builds the dataclass, whose own defaults fill the rest. A check
made by a dataclass's constructor is located at the object being built, so
it names ``services[1].predefined_cost`` or ``weights``, not a bare field.
Serializing compares each field with its dataclass default (``_elided``);
a cluster's ``seed``, both ``network`` keys and all four ``weights`` are
always written. The file helpers read a document through ``read_bounded``,
which trace files share: at most ``MAX_DOCUMENT_BYTES``, no FIFO, and a
buffer the size of the file; it is decoded as ``Path.read_text`` decodes.
An experiment's ``{"ref": name}`` entries resolve beside the experiment, to
``<name>.cdf.json`` in its directory, and each named definition is read at
most once per document, however many entries name it.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import math
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Union

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


def first_repeat(names: Iterable[str]) -> "str | None":
    """The first of ``names`` that repeats an earlier one, or ``None``."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, with the same bits on every Python: from 3.12
    the builtin ``sum`` compensates float rounding, so a sum behind an output bit
    uses this instead."""
    total = 0.0
    for value in values:
        total += value
    return total


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
            raise SchemaError(f"invalid subnet CIDR: {exc}", "subnet") from None
        for port in self.ports:
            if not (isinstance(port, int) and not isinstance(port, bool) and 0 < port < 65536):
                raise SchemaError(f"invalid port {port!r}", "ports")
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
            dupes = sorted(n for n, count in Counter(names).items() if count > 1)
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
        if (repeated := first_repeat(w.id for w in self.workers)) is not None:
            raise SchemaError(f"cluster worker ids must be distinct; {repeated!r} appears twice", "workers")
        if not (isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0):
            raise SchemaError("seed must be a non-negative integer", "seed")


# ---------------------------------------------------------------------------
# validated JSON access
#
# A reader takes a value, the path of the object holding it and its key there
# (empty for a document or an array item), and returns the value checked; a
# scalar's reader formats its path only for an error. A required key that a
# document lacks reaches its reader as ``_ABSENT``, which every reader refuses.

_Reader = Callable[[object, str, str], object]
_ABSENT = object()


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DefinitionSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise DefinitionSyntaxError("document nested too deeply") from None
    except ValueError:  # an integer literal past sys.get_int_max_str_digits()
        raise DefinitionSyntaxError("integer literal has too many digits") from None


def _field(path: str, key: str) -> str:
    """The path of ``key`` in the object at ``path``; either may be empty."""
    return f"{path}.{key}" if path and key else path or key


def _expected(what: str, value, path: str, key: str) -> SchemaError:
    """The error for ``value``, at ``key`` of ``path``, not being ``what``."""
    if value is _ABSENT:
        return SchemaError(f"missing required field {key!r}", path)
    return SchemaError(f"expected {what}, got {type(value).__name__}", _field(path, key))


def _check_keys(obj: dict, allowed: AbstractSet[str], path: str):
    if obj.keys() <= allowed:
        return
    unknown = sorted(obj.keys() - allowed)
    raise SchemaError(f"unknown field(s): {', '.join(map(str, unknown))}", path)


def _object(value, path: str, key: str = "") -> dict:
    if not isinstance(value, dict):
        raise _expected("an object", value, path, key)
    return value


def _str(value, path: str, key: str = "") -> str:
    if not isinstance(value, str):
        raise _expected("a string", value, path, key)
    return value


def _as_float(value: "int | float") -> float:
    """``float(value)``, with an int too large for a float mapped to infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(value, path: str, key: str = "") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _expected("a number", value, path, key)
    number = _as_float(value)
    if not math.isfinite(number):
        raise SchemaError("number must be finite", _field(path, key))
    return number


def _int(value, path: str, key: str = "") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _expected("an integer", value, path, key)
    return value


def _array_of(read: _Reader, nonempty: str = "") -> _Reader:
    """A reader of an array whose every item ``read`` accepts, as a tuple.

    ``nonempty`` names the items of an array that must hold at least one.
    """
    def read_array(value, path: str, key: str = "") -> tuple:
        if nonempty and not (isinstance(value, list) and value):
            raise SchemaError(f"expected a non-empty array of {nonempty}", _field(path, key))
        if not isinstance(value, list):
            raise _expected("an array", value, path, key)
        where = _field(path, key)
        return tuple(read(item, f"{where}[{i}]") for i, item in enumerate(value))
    return read_array


def _strings(value, path: str, key: str = "") -> tuple[str, ...]:
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return tuple(value)  # the common case, with no item's path formatted
    return _array_of(_str)(value, path, key)


def _utilizations(value, path: str, key: str = "") -> tuple[float, float, float, float]:
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


def _built(build: Callable, values: dict, path: str):
    """``build(**values)``, its errors re-rooted at ``path``, the object being built."""
    try:
        return build(**values)
    except SchemaError as exc:  # a constructor names a field of its own object, if any
        message = str(exc)[len(exc.path) + 2:] if exc.path else str(exc)
        raise type(exc)(message, _field(path, exc.path)) from None
    except ValueError as exc:  # HardwareProfile's checks name no field
        raise SchemaError(str(exc), path) from None


def _reader(build: Callable, readers: "dict[str, _Reader | None]", required=()) -> _Reader:
    """A reader of objects whose fields ``readers`` read, in its order, into ``build``.

    Only the keys an object holds are read, so ``build``'s own defaults fill
    the rest; a key in ``required`` that it lacks is refused at its place in
    the order, and a key outside ``readers`` before any is read. A key whose
    reader is None is allowed, and left to the caller.
    """
    allowed, required = readers.keys(), frozenset(required)
    items = tuple((name, read) for name, read in readers.items() if read is not None)

    def read_object(value, path: str, key: str = ""):
        obj = _object(value, path, key)
        where = _field(path, key)
        _check_keys(obj, allowed, where)
        values = {}
        for name, read in items:
            found = obj.get(name, _ABSENT)
            if found is not _ABSENT or name in required:
                values[name] = read(found, where, name)
        return _built(build, values, where)
    return read_object


# ---------------------------------------------------------------------------
# service documents

_service = _reader(ServiceSpec, {
    "volumes": _array_of(_reader(MountVolume, {"host_path": _str, "container_path": _str},
                                 required=("host_path", "container_path"))),
    "name": _str,
    "entrypoint": _str,
    "predefined_cost": _number,
    "base_os": _str,
    "packages": _strings,
    "repositories": _strings,
    "required_capabilities": _strings,
    "image_size_mb": _number,
}, required=("name", "entrypoint", "predefined_cost"))
#: The key order of a serialized service.
_SERVICE_KEYS = ("name", "base_os", "packages", "repositories", "volumes", "entrypoint",
                 "predefined_cost", "required_capabilities", "image_size_mb")


def parse_cdf(document: str) -> ServiceSpec:
    """Parse a single service definition document."""
    return _service(_loads(document), "")


def _plain(value):
    """``value`` as JSON data: a set sorted, a spec as an object of all its fields."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _elided(spec, keys=None) -> dict:
    """``spec``'s fields as JSON data in ``keys`` order (its field order by
    default), less each that equals its dataclass default."""
    defaults = {f.name: f.default for f in fields(spec)}
    return {key: _plain(getattr(spec, key)) for key in keys or defaults
            if getattr(spec, key) != defaults[key]}


def _dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def serialize_cdf(spec: ServiceSpec) -> str:
    """Render a service definition in canonical form."""
    return _dumps(_elided(spec, _SERVICE_KEYS))


# ---------------------------------------------------------------------------
# experiment documents

#: What a ``{"ref": name}`` service entry may override, applied one at a time as each is read.
_OVERRIDES = {"predefined_cost": _number, "required_capabilities": _strings}


def _service_entry(directory: "Path | None") -> _Reader:
    """A reader of an experiment's service entries: inline services, or references to
    ``<directory>/<name>.cdf.json`` with their overrides applied after. Each named
    definition is read at most once per reader, and so once per document."""
    loaded: dict[str, ServiceSpec] = {}

    def resolve(name: str, path: str) -> ServiceSpec:
        if name not in loaded:
            candidate = None if directory is None else directory / f"{name}.cdf.json"
            # Only a regular file directly in the directory: not "../cam".
            if candidate is None or candidate.parent != directory or not candidate.is_file():
                raise UnresolvedService(f"{path}: no service definition found for {name!r}")
            loaded[name] = load_cdf(candidate)
        return loaded[name]

    def read_entry(value, path: str, key: str = "") -> ServiceSpec:
        entry = _object(value, path, key)
        if "ref" not in entry:
            return _service(entry, path)
        _check_keys(entry, {"ref", *_OVERRIDES}, path)
        spec = resolve(_str(entry["ref"], path, "ref"), path)
        for name, read in _OVERRIDES.items():
            if name in entry:
                spec = _built(functools.partial(replace, spec), {name: read(entry[name], path, name)}, path)
        return spec
    return read_entry


def _dependency(value, path: str, key: str = "") -> tuple[str, str]:
    if not (isinstance(value, list) and len(value) == 2 and all(isinstance(name, str) for name in value)):
        raise SchemaError("expected a [dependent, dependency] name pair", _field(path, key))
    return tuple(value)  # type: ignore[return-value]


def parse_edf(document: str, directory: "str | Path | None" = None) -> ExperimentSpec:
    """Parse an experiment definition document.

    Service entries are either inline service objects or ``{"ref": name}``
    references, which resolve beside the experiment: to the service of
    ``<directory>/<name>.cdf.json``, a regular file directly in
    ``directory``, read at most once per document however many entries
    name it. A reference that names no such file, or any reference when
    ``directory`` is None, raises ``UnresolvedService``. A reference may
    override ``predefined_cost`` and ``required_capabilities`` per entry,
    after it is resolved.
    """
    read = _reader(ExperimentSpec, {
        "name": _str,
        "services": _array_of(_service_entry(None if directory is None else Path(directory)),
                              nonempty="services"),
        "dependencies": _array_of(_dependency),
        "network": _reader(OverlayConfig, {"ports": _array_of(_int), "subnet": _str}),
        "weights": _reader(CostWeights, dict.fromkeys(RESOURCE_NAMES, _number), required=RESOURCE_NAMES),
        "pool_discount": _number,
    }, required=("name", "services"))
    return read(_loads(document), "")


def serialize_edf(spec: ExperimentSpec) -> str:
    """Render an experiment in canonical form with all services inline."""
    obj = _elided(spec)
    obj["services"] = [_elided(s, _SERVICE_KEYS) for s in spec.services]
    return _dumps(obj)


# ---------------------------------------------------------------------------
# cluster documents


def _worker_id(value, path: str, key: str) -> str:
    if not _str(value, path, key):
        raise SchemaError("worker id must be non-empty", _field(path, key))
    return value


def _half_width(value, path: str, key: str) -> float:
    half_width = _number(value, path, key)
    if not 0.0 <= half_width <= 1.0:
        raise SchemaError(f"half_width must be within [0, 1], got {half_width!r}", _field(path, key))
    return half_width


def _trace_path(value, path: str, key: str) -> str:
    if not _str(value, path, key) or "\0" in value:  # "" names the directory; open() rejects NUL
        raise SchemaError("trace path must be non-empty and contain no NUL character", _field(path, key))
    return value


_WORKLOADS = {  # by the kind that ``_workload`` reads
    "fixed": _reader(FixedWorkload, {"kind": None, "values": _utilizations}, required=("values",)),
    "uniform": _reader(UniformWorkload, {"kind": None, "half_width": _half_width, "center": _utilizations},
                       required=("half_width", "center")),
    "trace": _reader(TraceWorkload, {"kind": None, "path": _trace_path}, required=("path",)),
}
_KINDS = {FixedWorkload: "fixed", UniformWorkload: "uniform", TraceWorkload: "trace"}


def _workload(value, path: str, key: str) -> WorkloadModel:
    obj = _object(value, path, key)
    where = _field(path, key)
    kind = _str(obj.get("kind", _ABSENT), where, "kind")
    if kind not in _WORKLOADS:
        raise SchemaError(f"unknown workload kind {kind!r}", _field(where, "kind"))
    return _WORKLOADS[kind](obj, where)


_profile = _reader(HardwareProfile, {
    "capabilities": _strings,
    "cpu_cores": _int,
    "vram_mb": _int,
    "swap_mb": _int,
    "bandwidth_mbps": _number,
})
_worker = _reader(functools.partial(ClusterWorker, profile=HardwareProfile()),
                  {"id": _worker_id, "profile": _profile, "workload": _workload},
                  required=("id", "workload"))
_cluster = _reader(ClusterSpec, {"workers": _array_of(_worker, nonempty="workers"), "seed": _int},
                   required=("workers",))


def parse_cluster(document: str) -> ClusterSpec:
    """Parse a cluster description used to drive simulations."""
    return _cluster(_loads(document), "")


def serialize_cluster(spec: ClusterSpec) -> str:
    """Render a cluster description in canonical form."""
    workers = []
    for w in spec.workers:
        entry: dict = {"id": w.id}
        profile = _elided(w.profile)
        if profile:
            entry["profile"] = profile
        entry["workload"] = {"kind": _KINDS[type(w.workload)], **_plain(w.workload)}
        workers.append(entry)
    return _dumps({"workers": workers, "seed": spec.seed})


# ---------------------------------------------------------------------------
# file helpers

#: The largest definitions document read, in bytes: 16 MiB, about fifty times a
#: 1000-worker cluster. Reading stops one byte past it (``read_bounded``).
MAX_DOCUMENT_BYTES = 16 * 2**20
#: The most bytes that one read of ``read_bounded`` asks for.
_READ_CHUNK = 64 * 2**10


def read_bounded(location: Path, bound: int, what: str) -> bytes:
    """The bytes of the file at ``location``, read no further than one byte past ``bound``.

    This is the one read rule of every input file a command reads. A FIFO is
    refused unopened, since opening one waits for a writer; a file of more
    than ``bound`` bytes, or an endless one such as a device, is refused
    once ``bound + 1`` bytes are in. Both raise ``SchemaError`` at
    ``location``, with ``what`` naming the kind of file. A missing file
    raises ``Path.open``'s ``OSError``. Each read asks for at most
    ``_READ_CHUNK`` bytes and the first short one ends the file, so the
    buffer is the size of what the file holds, not of the bound.
    """
    if location.is_fifo():  # false for a missing file, which open() reports
        raise SchemaError(f"{what} is a FIFO; expected a regular file", str(location))
    # One growing buffer, each chunk freed once appended: a 16 MiB trace peaks
    # at 69 MB for the whole process, as one read of it did, where a list of
    # chunks joined at the end peaked at 81 MB (2-core Linux host, Python 3.11).
    data = bytearray()
    left = bound + 1
    with location.open("rb") as stream:
        while left:
            asked = min(_READ_CHUNK, left)
            chunk = stream.read(asked)
            data += chunk
            left -= len(chunk)
            if len(chunk) < asked:
                break
    if not left:
        raise SchemaError(f"{what} exceeds {bound} bytes", str(location))
    return bytes(data)


def read_document(location: Path) -> str:
    """The text of a definitions file, as ``Path.read_text(encoding="utf-8")`` gives it.

    The bytes come from ``read_bounded`` under ``MAX_DOCUMENT_BYTES``. They
    are decoded as strict UTF-8 (a BOM stays; a bad byte raises
    ``UnicodeDecodeError`` with its position in the file) with universal
    newlines: CR LF and a lone CR each read as LF.
    """
    text = read_bounded(location, MAX_DOCUMENT_BYTES, "document").decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_cdf(path: "str | Path") -> ServiceSpec:
    return parse_cdf(read_document(Path(path)))


def load_edf(path: "str | Path") -> ExperimentSpec:
    """Load an experiment; its references resolve to CDFs beside the file (``parse_edf``)."""
    location = Path(path)
    return parse_edf(read_document(location), location.parent)


def load_cluster(path: "str | Path") -> ClusterSpec:
    return parse_cluster(read_document(Path(path)))
