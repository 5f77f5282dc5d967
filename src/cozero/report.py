"""Shared outcome record for the Wiener index engines, and its one constructor.

Every route hands `make_report` its counts; the Wiener index, the
diameter, the status and which fields a report holds are decided here only.
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
    and `excess`, the sum of d - 2 over the vertex pairs at distance
    d >= 3, are present exactly when status is "value"; a disconnected
    graph deliberately carries no value because shortest paths between
    components do not exist.  `diameter` is present exactly for connected
    graphs with two or more vertices.  All integers are exact.  Every route
    builds its report through `make_report`, which applies these rules to
    its counts, and fills every field; the record checks the rules in both
    directions when it is built.  Two routes agree on a ring exactly when
    their `OUTCOME_FIELDS`, all but `method` and `elapsed`, are equal.
    """

    status: str
    method: str
    vertex_count: int
    class_count: int
    component_count: int
    wiener: int | None = None
    edge_count: int | None = None
    diameter: int | None = None
    excess: int | None = None
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in (STATUS_VALUE, STATUS_EMPTY, STATUS_DISCONNECTED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status != graph_status(self.vertex_count, self.component_count):
            raise ValueError(
                f"status {self.status!r} contradicts {self.vertex_count} vertices in {self.component_count} components"
            )
        if (self.wiener is not None) != (self.status == STATUS_VALUE) or (self.excess is None) != (self.wiener is None):
            raise ValueError("wiener value and excess must be present exactly when status is 'value'")
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
                edge_count: int, excess: int, deepest: int, t0: float) -> WienerReport:
    """The `method` route's report on a graph of these counts, timed from `t0`.

    `excess` is the sum of d - 2 over the vertex pairs at distance d >= 3,
    and `deepest` the largest such d, or 0 if there is none.  In a connected
    graph on V vertices every pair counts 1, every non-adjacent pair 1 more,
    and a pair at distance d >= 3 another d - 2, so the Wiener index is
    V(V - 1) - |E| + excess (Plesník, "On the sum of all distances in a
    graph or digraph", 1984), and the diameter is `deepest`, or else 2 if
    some pair is not adjacent and 1 if none is.  On every supported ring the
    diameter is at most 3, so the excess counts the pairs at distance 3,
    the paper's chain pattern.  The status and the fields kept follow
    `WienerReport`'s rules.
    """
    status = graph_status(vertex_count, component_count)
    connected = status == STATUS_VALUE
    ordered_pairs = vertex_count * (vertex_count - 1)
    return WienerReport(
        status, method, vertex_count, class_count, component_count,
        wiener=ordered_pairs - edge_count + excess if connected else None,
        edge_count=edge_count,
        diameter=max(deepest, 2 if 2 * edge_count < ordered_pairs else 1) if connected and vertex_count >= 2 else None,
        excess=excess if connected else None,
        elapsed=time.perf_counter() - t0,
    )
