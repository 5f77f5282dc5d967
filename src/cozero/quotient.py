"""Quotient route: class enumeration, the class graph, and its Wiener aggregate.

Elements generating the same principal ideal form an equivalence class, so
the class is identified by its ideal label and its size is a product of
chain sizes (`ringspec.chain_sizes`); no element is ever enumerated here.
Distinct classes are adjacent exactly when their labelled ideals are
mutually non-containing, and all element-level distance information lives
in that class graph: two classmates sit at distance 2 through any
neighboring class, while vertices of different classes inherit the
class-graph distance.  The Wiener index is therefore

    2 * sum_i C(size_i, 2)  +  sum_{i<j} size_i * size_j * d(i, j)

whenever the element graph is connected.  The class graph is held as one
bitmask row per class.  The rows come from per-chain order masks: a class
carries an exponent vector with one coordinate per chain of
`RingSpec.local_factors`, and one ANDs, per coordinate, the masks of the
classes at most and at least as large, so no class pair is visited to
build them.  The sum over class pairs builds no distance table: every
pair counts once, from the sizes alone; each non-adjacent pair is visited
once, counts once more, and is at distance 2 when the two rows meet.  A
class with a later non-neighbour whose row it does not meet is *deep*,
and `groupbfs.sweep` searches the rows from the deep classes only, for
the pairs at distance 3 or more.  The status follows from the vertex and
component counts alone; a class without neighbours scatters into `size`
isolated vertices, and any other class component is one element-level
component.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass
from math import comb

from .groupbfs import component_roots, members, sweep, upper_edges
from .report import STATUS_VALUE, WienerReport, graph_status
from .ringspec import IdealLabel, RingSpec, chain_sizes, labels_comparable


@dataclass(frozen=True)
class ClassInfo:
    """One equivalence class: its ideal label, exact element count, and the
    ideal exponent on each chain of `RingSpec.local_factors`."""

    key: IdealLabel
    size: int
    exponents: tuple[int, ...]


@dataclass
class QuotientGraph:
    """Classes of a ring plus adjacency between them, indexed positionally.

    `rows[i]` is the bitmask of the classes adjacent to class i.
    """

    spec: RingSpec
    classes: list[ClassInfo]
    rows: list[int]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def adjacency(self) -> list[list[int]]:
        """Neighbour lists, ascending, decoded from the rows."""
        return [list(members(row)) for row in self.rows]

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return upper_edges(self.rows)


def enumerate_classes(spec: RingSpec) -> list[ClassInfo]:
    """All vertex classes with arithmetic sizes, ordered lexicographically by key.

    Keys run over the Cartesian product of the components' ideals (see
    `_component_ideals`) minus the all-zero and all-unit tuples, and sizes
    multiply componentwise.  For Z(n) that is one class per proper divisor
    d, with size phi(n/d).
    """
    classes = [((), 1, ())]
    for i in range(len(spec.components)):
        ideals = _component_ideals(spec.chains(i))
        classes = [(key + (label,), size * s, xs + ys) for key, size, xs in classes for label, s, ys in ideals]
    zero_key = spec.components
    unit_key = (1,) * len(zero_key)
    return [ClassInfo(*c) for c in classes if c[0] != zero_key and c[0] != unit_key]


def _component_ideals(chains) -> list[tuple[int, int, tuple[int, ...]]]:
    """(label, size, exponents) of each ideal of a component, ascending by label.

    An ideal has one exponent x in 0..a per chain (q, a); its label is
    prod(q**x) and its size prod(chain_sizes(q, a)[x]).
    """
    ideals = [(1, 1, ())]
    for q, a in chains:
        steps = [(q**x, s, (x,)) for x, s in enumerate(chain_sizes(q, a))]
        ideals = [(label * qx, size * s, xs + x) for label, size, xs in ideals for qx, s, x in steps]
    return sorted(ideals)


def class_adjacent(a: IdealLabel, b: IdealLabel) -> bool:
    """True when classes with these labels are adjacent (mutual non-containment)."""
    if a == b:
        raise ValueError(f"class_adjacent needs two distinct labels, got {a} twice")
    return not labels_comparable(a, b)


def _comparability_rows(spec: RingSpec, exponents: list[tuple[int, ...]]) -> list[int]:
    """Bitmask rows of the incomparable (adjacent) classes, one per exponent vector.

    Each chain of `spec.local_factors()` is one coordinate; one ideal
    contains another exactly when its exponent is no larger in every
    coordinate.  Per coordinate, `le[x]` (`ge[x]`) is the mask of classes
    with exponent at most (at least) x, so ANDing them over all coordinates
    gives the classes below (above) a class.
    """
    full = (1 << len(exponents)) - 1
    below = [full] * len(exponents)
    above = [full] * len(exponents)
    for i, (_, a) in enumerate(spec.local_factors()):
        at = [0] * (a + 1)
        for j, xs in enumerate(exponents):
            at[xs[i]] |= 1 << j
        le = list(itertools.accumulate(at, operator.or_))
        ge = list(itertools.accumulate(reversed(at), operator.or_))[::-1]
        for j, xs in enumerate(exponents):
            below[j] &= le[xs[i]]
            above[j] &= ge[xs[i]]
    return [full & ~(b | a) for b, a in zip(below, above)]


def build_quotient_graph(spec: RingSpec) -> QuotientGraph:
    classes = enumerate_classes(spec)
    return QuotientGraph(spec, classes, _comparability_rows(spec, [c.exponents for c in classes]))


def quotient_distances(qg: QuotientGraph) -> tuple[list[list[int | None]], bool]:
    """BFS distance table over class pairs, plus whether the class graph is connected."""
    k = qg.class_count
    table: list[list[int | None]] = [[None] * k for _ in range(k)]
    for s in range(k):
        table[s][s] = 0
    for s, d, frontier in sweep(qg.rows, range(k)):
        row = table[s]
        for j in members(frontier):
            row[j] = d
    return table, k == 0 or None not in table[0]


def wiener_quotient(spec: RingSpec) -> WienerReport:
    """Wiener index from class sizes and the class graph's pair distances.

    Classmates sit at distance 2, which gives `2 * sum_i C(size_i, 2)`; the
    pairs of distinct classes come from `_pair_distance_sum`, and a class
    of two or more elements makes the diameter at least 2.
    """
    t0 = time.perf_counter()
    qg = build_quotient_graph(spec)
    sizes = [c.size for c in qg.classes]
    vertex_count = sum(sizes)
    # A class without neighbours scatters into `size` isolated vertices; any
    # other class component is one element-level component.
    components = sum(1 if qg.rows[r] else sizes[r] for r in component_roots(qg.rows))
    status = graph_status(vertex_count, components)
    total = diameter = 0
    if status == STATUS_VALUE:
        total, diameter = _pair_distance_sum(qg.rows, sizes)
        total += 2 * sum(comb(s, 2) for s in sizes)
        if any(s >= 2 for s in sizes):
            diameter = max(diameter, 2)
    return WienerReport(
        status=status,
        method="quotient",
        vertex_count=vertex_count,
        class_count=len(sizes),
        component_count=components,
        wiener=total if status == STATUS_VALUE else None,
        diameter=diameter or None,
        elapsed=time.perf_counter() - t0,
    )


def _pair_distance_sum(rows: list[int], sizes: list[int]) -> tuple[int, int]:
    """`(sum_{i<j} sizes[i] * sizes[j] * d(i, j), max_{i<j} d(i, j))` over a connected graph.

    `rows[i]` is vertex i's neighbour bitmask.  The sum splits along
    d = 1 + [d >= 2] + sum_{t >= 3} [d >= t]:

    * every pair counts once, `(V^2 - sum s^2) / 2` for V = sum s;
    * every non-adjacent pair i < j counts once more; it is at distance 2
      when the rows of i and j meet, and at 3 or more otherwise, which
      makes i *deep*;
    * each pair at distance d >= 3 counts d - 2 more.  Its lower vertex is
      deep, so `sweep` runs from the deep vertices only, and level d of
      the search from s weighs the frontier above s.
    """
    k = len(rows)
    vertex_count = sum(sizes)
    total = (vertex_count * vertex_count - sum(s * s for s in sizes)) // 2
    diameter = 1 if k > 1 else 0
    everyone = (1 << k) - 1
    deep = []
    for i, row in enumerate(rows):
        apart = list(members(everyone >> i + 1 << i + 1 & ~row))
        if apart:
            total += sizes[i] * sum(map(sizes.__getitem__, apart))
            diameter = 2
            if 0 in map(operator.and_, itertools.repeat(row), map(rows.__getitem__, apart)):
                deep.append(i)
    for s, d, frontier in sweep(rows, deep):
        if d >= 3:
            total += (d - 2) * sizes[s] * sum(map(sizes.__getitem__, members(frontier >> s + 1 << s + 1)))
            diameter = max(diameter, d)
    return total, diameter
