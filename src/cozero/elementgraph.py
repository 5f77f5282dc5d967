"""Element-level construction of the cozero-divisor graph: the brute route.

The graph of a ring has one vertex per element that is neither zero nor a
unit; two distinct vertices are adjacent exactly when neither one's
principal ideal contains the other's.  This module builds that graph from
per-component residue tables, independently of the quotient route's class
enumeration, making it the ground-truth oracle the arithmetic routes are
checked against.

* `build_graph` splits the elements into label groups and builds each
  group's neighbour row (`_group_rows`), within the element cap of
  `resolve_brute_limit`;
* `ElementGraph` holds the groups, and builds what is per element on first
  read;
* `compute_wiener` and `wiener_brute` hand the group sizes and rows to
  `groupbfs.group_report`;
* `graph_export` writes the graph as DOT or an edge list.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_right
from collections import Counter
from functools import cached_property, reduce
from itertools import chain, compress, islice, product, repeat
from math import gcd, prod
from operator import and_, mod, not_

from .groupbfs import group_report, members
from .report import WienerReport
from .ringspec import FAMILY_Z, IdealLabel, RingSpec

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
    per label group (see `build_graph`): `group_keys[g]` lists the distinct
    ideal labels, `group_sizes[g]` the number of vertices carrying each
    label, and bit h of `group_rows[g]` is set when groups g and h have
    mutually non-containing labels.  The group rows are the one graph: two
    vertices are adjacent exactly when their groups are, and never within
    one group, so every distance and every edge between vertices follows
    from the groups, and the search reads only the group sizes and rows.

    What is per element is built from the per-component label tables on
    first read, and the Wiener search reads none of it: `keep`, whose byte
    r is 1 when the element of lexicographic rank r is a vertex (its label
    is a group key), `vertices` and `labels`, `group_of[i]`, the group of
    vertex i, and `group_members[g]`, the vertex indices of group g.
    Vertices i and j are adjacent exactly when bit `group_of[j]` of
    `group_rows[group_of[i]]` is set, and `edges` reads the group rows
    through `group_of` and `group_members`; no row is built per vertex.
    """

    def __init__(
        self,
        spec: RingSpec,
        group_keys: list[IdealLabel],
        group_sizes: list[int],
        group_rows: list[int],
    ) -> None:
        self.spec = spec
        self.vertex_count = sum(group_sizes)
        self.group_keys = group_keys
        self.group_sizes = group_sizes
        self.group_rows = group_rows

    def __repr__(self) -> str:
        # Counting edges decodes every row: seconds on F(2)^12, minutes past it.
        return f"ElementGraph({self.spec}, vertices={self.vertex_count}, groups={len(self.group_keys)})"

    @cached_property
    def keep(self) -> bytes:
        """Byte r is 1 when the element of lexicographic rank r is a vertex, neither zero nor a unit."""
        # Every label is a group key but the unit key and the zero key, which `build_graph` cuts.
        return bytes(map(set(self.group_keys).__contains__, product(*_label_tables(self.spec))))

    @cached_property
    def vertices(self) -> list[tuple[int, ...]]:
        return list(compress(product(*map(range, self.spec.components)), self.keep))

    @cached_property
    def labels(self) -> list[IdealLabel]:
        return list(compress(product(*_label_tables(self.spec)), self.keep))

    @cached_property
    def group_of(self) -> list[int]:
        """Vertex i's label group: the index of its label in `group_keys`."""
        return list(map({key: g for g, key in enumerate(self.group_keys)}.__getitem__, self.labels))

    @cached_property
    def group_members(self) -> list[list[int]]:
        """Each label group's vertex indices, ascending."""
        groups: list[list[int]] = [[] for _ in self.group_keys]
        for i, g in enumerate(self.group_of):
            groups[g].append(i)
        return groups

    def edge_count(self) -> int:
        sizes = self.group_sizes
        pairs = sum(size * sum(map(sizes.__getitem__, members(row))) for size, row in zip(sizes, self.group_rows))
        return pairs // 2  # each edge from both ends

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) index pairs with i < j, lexicographic.

        A group's members share one neighbour list, the sorted members of
        the groups in its row; vertex i takes the part of it past i.
        """
        members_of = self.group_members
        neighbours = [sorted(chain.from_iterable(map(members_of.__getitem__, members(row)))) for row in self.group_rows]
        return [(i, j) for i, g in enumerate(self.group_of) for j in neighbours[g][bisect_right(neighbours[g], i) :]]


def _label_tables(spec: RingSpec) -> list[list[int]]:
    """Each component's ideal label by residue: gcd(x, c) for Z(c); c at zero and 1 elsewhere for a field."""
    if spec.is_field_product:
        return [[c] + [1] * (c - 1) for c in spec.components]
    return [list(map(gcd, range(c), repeat(c))) for c in spec.components]


def build_graph(spec: RingSpec, limit: int | None = None) -> ElementGraph:
    """Split the ring's elements into label groups and assemble its cozero-divisor graph.

    Adjacency between two elements depends only on their ideal labels, so
    vertices sharing a label have identical neighbour sets and are never
    adjacent: the graph is kept as label groups, which are the quotient
    route's classes, in the same order.  Each component's label table
    (`_label_tables`) is counted by label: its distinct labels ascending,
    each with the number of residues carrying it.  A label group takes one
    label per component, so the product of the label lists gives
    `group_keys` in sorted order, with the unit key first and the zero key
    last (both skipped), and the product of the count lists gives each
    group's size.  `_group_rows` gives each group's neighbour row, in the
    shape of `QuotientGraph.rows`; the acceptance sweep checks that both
    routes build the same rows.  Python steps run per component, per
    label or per group, and only the tables and their C-level counts take
    a step per residue; nothing is built per element of the ring or per
    pair of groups, and what is per element is left to `ElementGraph`.

    Refuses rings with more elements than the brute-force limit (argument,
    COZERO_BRUTE_LIMIT environment variable, or the built-in default).
    """
    cap = resolve_brute_limit(limit)
    if spec.cardinality > cap:
        raise BruteForceLimitError(spec, spec.cardinality, cap)

    labels_by_component, counts_by_component = [], []
    for table in _label_tables(spec):
        labels, counts = zip(*sorted(Counter(table).items()))
        labels_by_component.append(labels)
        counts_by_component.append(counts)

    group_keys = list(product(*labels_by_component))[1:-1]
    group_sizes = list(map(prod, product(*counts_by_component)))[1:-1]
    group_rows = _group_rows(labels_by_component)
    return ElementGraph(spec, group_keys, group_sizes, group_rows)


def _group_rows(labels_by_component: list[tuple[int, ...]]) -> list[int]:
    """Each label group's neighbour bitmask over the groups, from per-component divisibility masks.

    Label combinations are numbered in product order, and position p is
    group p - 1.  The positions whose label index at component i is j form
    runs of `block` ones every `width` bits, which one multiplication by
    `copies` lays down.  For each component and label, one mask holds the
    groups whose label there is a multiple of it and one those whose label
    divides it; ANDed over the components they give the groups a group's
    ideal contains (`inside`) and those containing it (`outside`), itself
    among both, and its row is every group in neither.
    """
    positions = prod(map(len, labels_by_component))
    n = positions - 2
    full = (1 << n) - 1
    multiples_by_component, divisors_by_component = [], []
    width = positions
    for labels in labels_by_component:
        block = width // len(labels)
        copies = ((1 << positions) - 1) // ((1 << width) - 1)
        cells = [((1 << block) - 1) << (j * block) for j in range(len(labels))]

        def groups(selected) -> int:
            return (sum(compress(cells, selected)) * copies >> 1) & full

        multiples_by_component.append([groups(map(not_, map(mod, labels, repeat(a)))) for a in labels])
        divisors_by_component.append([groups(map(not_, map(a.__mod__, labels))) for a in labels])
        width = block
    masks = islice(zip(product(*multiples_by_component), product(*divisors_by_component)), 1, n + 1)
    return [full ^ (reduce(and_, inside) | reduce(and_, outside)) for inside, outside in masks]


def compute_wiener(graph: ElementGraph) -> WienerReport:
    """Wiener index, diameter, components and edges of a built graph, by `groupbfs.group_report`.

    Reads only the groups' sizes and rows, nothing per element, and runs no search per vertex;
    `elapsed` times this search alone.
    """
    return group_report("brute", graph.group_sizes, graph.group_rows, time.perf_counter())


def wiener_brute(spec: RingSpec, limit: int | None = None) -> WienerReport:
    """Wiener index of the graph built from the ring's enumerated elements, timed with the build."""
    t0 = time.perf_counter()
    graph = build_graph(spec, limit)
    return group_report("brute", graph.group_sizes, graph.group_rows, t0)


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
