"""Exception hierarchy shared by all swarmlab modules."""

from __future__ import annotations


class SwarmLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SwarmLabError):
    """A numeric argument is outside its admissible range."""


class DuplicateAgent(SwarmLabError):
    """An agent id appears twice in a fleet."""


class DefinitionSyntaxError(SwarmLabError):
    """A definition document is not well-formed JSON.

    Carries the 1-based line and column of the first offending character;
    0 for both when the parser does not report a position.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})" if line else message)
        self.line = line
        self.column = column


class SchemaError(SwarmLabError):
    """A well-formed document violates the artifact schema.

    ``path`` names the offending field as a dotted path with ``[i]``
    indices, such as ``workers[0].workload.kind``; a trace file's errors
    name the file instead, with its line where one is at fault.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class WeightError(SchemaError):
    """Cost weights are out of range or do not sum to one."""


class UnresolvedService(SwarmLabError):
    """An experiment references a service definition that cannot be found."""


class PoolTooSmall(SwarmLabError):
    """A pooled service needs at least two members."""


class MalformedNetwork(SwarmLabError):
    """A flow network has dangling vertices or negative capacity/cost."""


class EmptyProblem(SwarmLabError):
    """An allocation was requested with no workers or no services."""


class TooManyComponents(SwarmLabError):
    """Pool enumeration would exceed the configuration bound."""


class EmptyHistory(SwarmLabError):
    """A metric was requested over a run with no rounds, or no placements."""
