"""Shared outcome record for the Wiener index engines, and its one constructor.

Every route hands `make_report` its counts; the status and which of the
Wiener index and the diameter a report holds are decided here only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from math import comb

STATUS_VALUE = "value"
STATUS_EMPTY = "empty_graph"
STATUS_DISCONNECTED = "disconnected"


def graph_status(vertex_count: int, component_count: int) -> str:
    """Status of a graph from its size: empty, connected (a value), or disconnected."""
    if vertex_count == 0:
        return STATUS_EMPTY
    return STATUS_VALUE if component_count == 1 else STATUS_DISCONNECTED


@dataclass(frozen=True)
class WienerReport:
    """Result of one Wiener computation, by whichever method produced it.

    `status` is `graph_status(vertex_count, component_count)`.  `wiener`
    is present exactly when status is "value"; a disconnected
    graph deliberately carries no value because shortest paths between
    components do not exist.  `diameter` is present exactly for connected
    graphs with two or more vertices.  All integers are exact.  Every route
    builds its report through `make_report`, which applies these rules to
    its counts, and fills every field; two routes agree on a ring exactly
    when their `OUTCOME_FIELDS`, all but `method` and `elapsed`, are equal.
    """

    status: str
    method: str
    vertex_count: int
    class_count: int
    component_count: int
    wiener: int | None = None
    edge_count: int | None = None
    diameter: int | None = None
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in (STATUS_VALUE, STATUS_EMPTY, STATUS_DISCONNECTED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status != graph_status(self.vertex_count, self.component_count):
            raise ValueError(
                f"status {self.status!r} contradicts {self.vertex_count} vertices in {self.component_count} components"
            )
        if (self.wiener is not None) != (self.status == STATUS_VALUE):
            raise ValueError("wiener value must be present exactly when status is 'value'")
        if self.wiener is not None and self.wiener < 0:
            raise ValueError("wiener value cannot be negative")
        if self.status == STATUS_VALUE and self.vertex_count == 1 and self.wiener != 0:
            raise ValueError("a single-vertex graph has Wiener index 0")
        if (self.diameter is not None) != (self.status == STATUS_VALUE and self.vertex_count >= 2):
            raise ValueError("diameter must be present exactly for connected graphs with >= 2 vertices")
        if self.edge_count is not None and not 0 <= self.edge_count <= comb(self.vertex_count, 2):
            raise ValueError(f"edge count {self.edge_count} is outside 0..C({self.vertex_count}, 2)")


OUTCOME_FIELDS = tuple(f.name for f in fields(WienerReport) if f.name not in ("method", "elapsed"))


def make_report(method: str, vertex_count: int, class_count: int, component_count: int,
                wiener: int, edge_count: int, diameter: int, t0: float) -> WienerReport:
    """The `method` route's report on a graph of these counts, timed from `t0`.

    The status is `graph_status`'s; `wiener` is kept only when it is
    "value", and `diameter` only then and with two or more vertices.
    """
    status = graph_status(vertex_count, component_count)
    connected = status == STATUS_VALUE
    return WienerReport(
        status, method, vertex_count, class_count, component_count,
        wiener=wiener if connected else None,
        edge_count=edge_count,
        diameter=diameter if connected and vertex_count >= 2 else None,
        elapsed=time.perf_counter() - t0,
    )
