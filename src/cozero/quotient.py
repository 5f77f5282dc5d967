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
build them.  The classes are groups of twins, as brute's label groups
are, so `groupbfs.group_wiener` takes the sizes and rows to the Wiener
index, the diameter and the component and edge counts: it builds no distance
table, weighs each class's later non-neighbours as one bitmask, tests for
distance 3 only the class pairs that no hub row covers, and searches only
from the classes with a pair at distance 3 or more.  `groupbfs.group_report`
makes the report, as it does for brute.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass

from .groupbfs import group_report, members, sweep, upper_edges
from .report import WienerReport
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
    """Wiener index from the class sizes and the class graph, by `groupbfs.group_report`."""
    t0 = time.perf_counter()
    qg = build_quotient_graph(spec)
    return group_report("quotient", [c.size for c in qg.classes], qg.rows, t0)
