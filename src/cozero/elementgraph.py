"""Element-level construction of the cozero-divisor graph, plus its Wiener index.

The graph of a ring has one vertex per element that is neither zero nor a
unit; two distinct vertices are adjacent exactly when neither one's
principal ideal contains the other's.  This module materializes that graph
from the actual elements and computes all pairwise distances by BFS from
every single vertex, making it the ground-truth oracle the arithmetic
routes are checked against.

Because adjacency between two elements depends only on their ideal labels,
vertices sharing a label have identical neighbor sets, so the graph is
kept as label groups rather than as explicit adjacency lists.
`compute_wiener` searches from every vertex in one multi-source pass over
those groups, `groupbfs.all_sources`, where each vertex keeps a bitmask of
the sources that have not reached it.  `bfs_distances` and `adjacent` read
one neighbour row per vertex, built on first use with one row per group
shared by its members; `bfs_distances` runs `groupbfs.sweep` on them, the
one-source-at-a-time search of the quotient route's class graph.  Brute
still performs a genuine breadth-first search from every vertex and
assumes nothing about distances, diameter, or connectivity.
"""

from __future__ import annotations

import itertools
import os
import time
from math import gcd

from .groupbfs import all_sources, members, sweep
from .report import STATUS_VALUE, WienerReport, graph_status
from .ringspec import FAMILY_Z, IdealLabel, RingSpec, ideal_contains

BRUTE_LIMIT_ENV = "COZERO_BRUTE_LIMIT"
DEFAULT_BRUTE_LIMIT = 100_000


class BruteForceLimitError(ValueError):
    """Raised when a ring has more `elements` than the brute-force `limit` allows."""

    def __init__(self, spec: RingSpec, elements: int, limit: int) -> None:
        super().__init__(f"ring {spec} has {elements} elements, above the brute-force limit of {limit}")
        self.elements = elements
        self.limit = limit


def resolve_brute_limit(limit: int | None = None) -> int:
    """Effective element cap: explicit argument, else env var, else default."""
    if limit is not None:
        if limit < 0:
            raise ValueError(f"brute-force limit must be a non-negative integer, got {limit!r}")
        return limit
    env = os.environ.get(BRUTE_LIMIT_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{BRUTE_LIMIT_ENV} must be an integer, got {env!r}") from None
        if cap < 0:
            raise ValueError(f"{BRUTE_LIMIT_ENV} must be a non-negative integer, got {env!r}")
        return cap
    return DEFAULT_BRUTE_LIMIT


class ElementGraph:
    """The graph on all non-zero non-unit elements of a ring.

    Vertices are element tuples in lexicographic order.  Adjacency is kept
    per label group: `group_keys[g]` lists the distinct ideal labels,
    `group_members[g]` the vertex indices carrying each label, and
    `group_adjacency[g]` the groups whose labels are mutually
    non-containing with it.  Two vertices are adjacent exactly when their
    groups are, and never within one group.
    """

    def __init__(
        self,
        spec: RingSpec,
        vertices: list[tuple[int, ...]],
        labels: list[IdealLabel],
        group_keys: list[IdealLabel],
        group_members: list[list[int]],
        group_adjacency: list[list[int]],
    ) -> None:
        self.spec = spec
        self.vertices = vertices
        self.labels = labels
        self.group_keys = group_keys
        self.group_members = group_members
        self.group_adjacency = group_adjacency
        self._rows: list[int] | None = None

    def __repr__(self) -> str:
        return (
            f"ElementGraph({self.spec}, vertices={len(self.vertices)}, "
            f"groups={len(self.group_keys)}, edges={self.edge_count()})"
        )

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def adjacent(self, i: int, j: int) -> bool:
        """True when vertices i and j share an edge (never when i == j)."""
        return self._vertex_rows()[i] >> j & 1 == 1

    def edge_count(self) -> int:
        total = 0
        for g, neigh in enumerate(self.group_adjacency):
            for h in neigh:
                if h > g:
                    total += len(self.group_members[g]) * len(self.group_members[h])
        return total

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) index pairs with i < j, lexicographic."""
        out: list[tuple[int, int]] = []
        for g, neigh in enumerate(self.group_adjacency):
            for h in neigh:
                if h > g:
                    for i in self.group_members[g]:
                        for j in self.group_members[h]:
                            out.append((i, j) if i < j else (j, i))
        out.sort()
        return out

    def _vertex_rows(self) -> list[int]:
        """Each vertex's neighbour bitmask, built on first use; a group's members share one row."""
        if self._rows is None:
            nbytes = (len(self.vertices) + 7) // 8
            bits = []
            for group in self.group_members:
                buf = bytearray(nbytes)
                for i in group:
                    buf[i >> 3] |= 1 << (i & 7)
                bits.append(int.from_bytes(buf, "little"))
            rows = [0] * len(self.vertices)
            for group, neigh in zip(self.group_members, self.group_adjacency):
                # Member masks are disjoint, so their sum is their union.
                row = sum(bits[h] for h in neigh)
                for i in group:
                    rows[i] = row
            self._rows = rows
        return self._rows

    def bfs_distances(self, source: int) -> list[int | None]:
        """Shortest-path distances from one vertex; None where unreachable."""
        dist: list[int | None] = [None] * len(self.vertices)
        dist[source] = 0
        for _, d, frontier in sweep(self._vertex_rows(), (source,)):
            for v in members(frontier):
                dist[v] = d
        return dist


def build_graph(spec: RingSpec, limit: int | None = None) -> ElementGraph:
    """Enumerate all elements of the ring and assemble its cozero-divisor graph.

    Each component gets a label table indexed by residue: gcd(x, c) for
    Z(c), and c at zero, 1 elsewhere for a field.  The product of the
    tables is zipped with the product of the residue ranges, so every
    element meets its label in the same lexicographic step; zero (label
    `spec.components`) and the units (label all ones) are skipped.

    Refuses rings with more elements than the brute-force limit (argument,
    COZERO_BRUTE_LIMIT environment variable, or the built-in default).
    """
    cap = resolve_brute_limit(limit)
    if spec.cardinality > cap:
        raise BruteForceLimitError(spec, spec.cardinality, cap)

    comps = spec.components
    if spec.is_field_product:
        tables = [[c] + [1] * (c - 1) for c in comps]
    else:
        tables = [[c] + [gcd(x, c) for x in range(1, c)] for c in comps]
    zero_key = comps
    unit_key = (1,) * len(comps)

    vertices: list[tuple[int, ...]] = []
    labels: list[IdealLabel] = []
    members: dict[IdealLabel, list[int]] = {}
    elements = itertools.product(*(range(c) for c in comps))
    for element, label in zip(elements, itertools.product(*tables)):
        if label == zero_key or label == unit_key:
            continue
        members.setdefault(label, []).append(len(vertices))
        vertices.append(element)
        labels.append(label)

    group_keys = sorted(members)
    group_members = [members[k] for k in group_keys]
    group_adjacency: list[list[int]] = [[] for _ in group_keys]
    for g, a in enumerate(group_keys):
        for h in range(g + 1, len(group_keys)):
            b = group_keys[h]
            if not ideal_contains(a, b) and not ideal_contains(b, a):
                group_adjacency[g].append(h)
                group_adjacency[h].append(g)
    return ElementGraph(spec, vertices, labels, group_keys, group_members, group_adjacency)


def compute_wiener(graph: ElementGraph) -> WienerReport:
    """Run BFS from every vertex of a built graph and aggregate the results.

    One `groupbfs.all_sources` pass over the label groups gives the distance
    total, the diameter and the component count together; its source blocks
    keep the per-vertex masks within `groupbfs.MASK_BUDGET`.
    """
    t0 = time.perf_counter()
    n = graph.vertex_count
    total, diameter, components = all_sources(graph.group_members, graph.group_adjacency)
    status = graph_status(n, components)
    connected = status == STATUS_VALUE
    return WienerReport(
        status=status,
        method="brute",
        vertex_count=n,
        class_count=len(graph.group_keys),
        component_count=components,
        wiener=total // 2 if connected else None,
        edge_count=graph.edge_count(),
        diameter=diameter if connected and diameter else None,
        elapsed=time.perf_counter() - t0,
    )


def wiener_brute(spec: RingSpec, limit: int | None = None) -> WienerReport:
    """Wiener index by exhaustive element enumeration and all-sources BFS."""
    return compute_wiener(build_graph(spec, limit))


def vertex_name(spec: RingSpec, element: tuple[int, ...]) -> str:
    """Stable display name of an element: bare integer for Z(n), tuple otherwise."""
    if spec.family == FAMILY_Z:
        return str(element[0])
    return "(" + ",".join(str(x) for x in element) + ")"


def graph_export(graph: ElementGraph, fmt: str) -> str:
    """Serialize a graph as Graphviz DOT or a plain edge list.

    Output is byte-stable for a given spec: vertices appear in lexicographic
    element order and each edge once, lexicographically.
    """
    names = [vertex_name(graph.spec, v) for v in graph.vertices]
    if fmt == "dot":
        lines = ["graph {"]
        lines.extend(f'  "{name}";' for name in names)
        lines.extend(f'  "{names[i]}" -- "{names[j]}";' for i, j in graph.edges())
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "edgelist":
        return "".join(f"{names[i]} {names[j]}\n" for i, j in graph.edges())
    raise ValueError(f"unknown export format {fmt!r}: expected 'dot' or 'edgelist'")
