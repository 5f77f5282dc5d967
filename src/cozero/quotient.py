"""Quotient route: class enumeration, the class graph, and its Wiener aggregate.

Elements generating the same principal ideal form an equivalence class, so
the class is identified by its ideal label and its size follows from the
totient alone; no element is ever enumerated here.  Distinct classes are
adjacent exactly when their labelled ideals are mutually non-containing,
and all element-level distance information lives in that class graph: two
classmates sit at distance 2 through any neighboring class, while vertices
of different classes inherit the class-graph distance.  The Wiener index
is therefore

    2 * sum_i C(size_i, 2)  +  sum_{i<j} size_i * size_j * d(i, j)

whenever the element graph is connected.  The class graph is searched by
`groupbfs.sweep`, the BFS the brute route runs on its label groups, here
with one bit per class.  The status follows from the vertex and component
counts alone; a class without neighbours scatters into `size` isolated
vertices, and any other class component is one element-level component.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb

from .groupbfs import members, sweep
from .numtheory import euler_phi, proper_divisors
from .report import STATUS_VALUE, WienerReport, graph_status
from .ringspec import FAMILY_Z, IdealLabel, RingSpec, labels_comparable


@dataclass(frozen=True)
class ClassInfo:
    """One equivalence class: its ideal label and exact element count."""

    key: IdealLabel
    size: int


@dataclass
class QuotientGraph:
    """Classes of a ring plus adjacency between them, indexed positionally."""

    spec: RingSpec
    classes: list[ClassInfo]
    adjacency: list[list[int]]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, neigh in enumerate(self.adjacency) for j in neigh if j > i]


def enumerate_classes(spec: RingSpec) -> list[ClassInfo]:
    """All vertex classes with arithmetic sizes, ordered lexicographically by key.

    For Z(n) this is one class per proper divisor d with size phi(n/d).  For
    products, keys run over the Cartesian product of per-component label
    sets minus the all-zero and all-unit tuples, and sizes multiply
    componentwise (phi(m/d) for an integers-mod component, q - 1 or 1 for
    the nonzero/zero label of a field component).
    """
    if spec.family == FAMILY_Z:
        n = spec.components[0]
        return [ClassInfo((d,), euler_phi(n // d)) for d in proper_divisors(n)]
    label_sets = [spec.component_labels(i) for i in range(len(spec.components))]
    zero_key = spec.components
    unit_key = tuple(1 for _ in spec.components)
    out = []
    for key in itertools.product(*label_sets):
        if key == zero_key or key == unit_key:
            continue
        size = 1
        for i, d in enumerate(key):
            size *= spec.label_class_size(i, d)
        out.append(ClassInfo(key, size))
    return out


def class_adjacent(a: IdealLabel, b: IdealLabel) -> bool:
    """True when classes with these labels are adjacent (mutual non-containment)."""
    if a == b:
        raise ValueError(f"class_adjacent needs two distinct labels, got {a} twice")
    return not labels_comparable(a, b)


def build_quotient_graph(spec: RingSpec) -> QuotientGraph:
    classes = enumerate_classes(spec)
    adjacency: list[list[int]] = [[] for _ in classes]
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            if class_adjacent(a.key, classes[j].key):
                adjacency[i].append(j)
                adjacency[j].append(i)
    return QuotientGraph(spec, classes, adjacency)


def quotient_distances(qg: QuotientGraph) -> tuple[list[list[int | None]], bool]:
    """BFS distance table over class pairs, plus whether the class graph is connected."""
    k = qg.class_count
    groups = [(1 << i, sum(1 << j for j in neigh)) for i, neigh in enumerate(qg.adjacency)]
    table: list[list[int | None]] = [[None] * k for _ in range(k)]
    for s in range(k):
        table[s][s] = 0
    for s, d, frontier in sweep(groups, range(k), range(k)):
        row = table[s]
        for j in members(frontier):
            row[j] = d
    return table, k == 0 or None not in table[0]


def wiener_quotient(spec: RingSpec) -> WienerReport:
    """Wiener index from class sizes and class-graph BFS distances."""
    t0 = time.perf_counter()
    qg = build_quotient_graph(spec)
    sizes = [c.size for c in qg.classes]
    k = len(sizes)
    vertex_count = sum(sizes)
    table, _ = quotient_distances(qg)
    # Count each class component at its first class, the one reaching no lower
    # class: once, or `size` times for a class without neighbours.
    components = sum(
        1 if qg.adjacency[i] else sizes[i]
        for i, row in enumerate(table)
        if all(d is None for d in itertools.islice(row, i))
    )
    status = graph_status(vertex_count, components)
    total = diameter = 0
    if status == STATUS_VALUE:
        total = 2 * sum(comb(s, 2) for s in sizes)
        for i in range(k):
            row = table[i]
            for j in range(i + 1, k):
                d = row[j]
                total += sizes[i] * sizes[j] * d
                if d > diameter:
                    diameter = d
        if any(s >= 2 for s in sizes):
            diameter = max(diameter, 2)
    return WienerReport(
        status=status,
        method="quotient",
        vertex_count=vertex_count,
        class_count=k,
        component_count=components,
        wiener=total if status == STATUS_VALUE else None,
        diameter=diameter or None,
        elapsed=time.perf_counter() - t0,
    )
