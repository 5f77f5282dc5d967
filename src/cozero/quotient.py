"""Quotient route: the class graph of a ring, with no element enumerated.

Elements generating the same principal ideal form an equivalence class,
identified by its ideal label; its size is a product of chain sizes
(`ringspec.chain_sizes`).  Distinct classes are adjacent exactly when their
ideals are mutually non-containing, and the classes are groups of twins,
as brute's label groups are.

* `build_quotient_graph` builds the class sizes and neighbour rows, a
  `QuotientGraph`;
* `enumerate_classes` lists the `ClassInfo` records, which
  `QuotientGraph.classes` builds on first read, as the `classes` CLI and
  the tests do;
* `wiener_quotient` hands the sizes and rows to `groupbfs.group_report`;
* `quotient_distances` is a BFS distance table over class pairs, which no
  route reads.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, islice, product, repeat
from math import prod
from operator import and_, or_, xor

from .groupbfs import group_report, members, sweep, upper_edges
from .report import WienerReport
from .ringspec import IdealLabel, RingSpec, chain_sizes


@dataclass(frozen=True)
class ClassInfo:
    """One equivalence class: its ideal label, exact element count, and the
    ideal exponent on each chain of `RingSpec.local_factors`."""

    key: IdealLabel
    size: int
    exponents: tuple[int, ...]


@dataclass
class QuotientGraph:
    """Class sizes of a ring plus adjacency between the classes, indexed positionally.

    `sizes[i]` is the element count of class i, and `rows[i]` the bitmask
    of the classes adjacent to class i; `adjacency`, `degree` and `edges`
    are read off the rows.  `classes`, the `ClassInfo` records in the same
    order, is built on first read.
    """

    spec: RingSpec
    sizes: list[int]
    rows: list[int]

    @property
    def class_count(self) -> int:
        return len(self.sizes)

    @cached_property
    def classes(self) -> list[ClassInfo]:
        return enumerate_classes(self.spec)

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


def build_quotient_graph(spec: RingSpec) -> QuotientGraph:
    """The class sizes and neighbour rows of a ring, in `enumerate_classes`' order, built per chain.

    Position p of the product of the components' `_component_ideals` is
    class p - 1; the unit (first) and zero (last) positions are cut.  One
    ideal contains another exactly when its exponent is no larger on every
    chain of `spec.local_factors()`.  A chain's exponent column is its
    per-ideal exponents, each repeated `block` times and the whole list
    tiled.  The classes at exponent x are runs of `block` ones every
    `width` bits, which one multiplication by `copies` lays down, and their
    prefix ORs `le[x]` (`ge[x]`) hold the classes with exponent at most (at
    least) x.  The columns of those masks, ANDed over the chains, give the
    classes below (above) each class, itself among both, and its row is
    every class in neither.  Python steps run per chain and per ideal of a
    component; what runs per class is `map` over whole columns, and no
    class pair is visited.
    """
    chains = [spec.chains(i) for i in range(len(spec.components))]
    # Each component's ideal labels, sizes and exponent vectors, as three columns.
    ideals = [list(zip(*_component_ideals(c))) for c in chains]
    positions = prod(len(ideal_sizes) for _, ideal_sizes, _ in ideals)
    n = positions - 2
    full = (1 << n) - 1
    below, above = [], []
    width = positions
    for (_, ideal_sizes, exponents), component_chains in zip(ideals, chains):
        block = width // len(ideal_sizes)
        copies = ((1 << positions) - 1) // ((1 << width) - 1)
        run = (1 << block) - 1
        for column, (_, a) in zip(zip(*exponents), component_chains):
            at = [0] * (a + 1)
            for j, x in enumerate(column):
                at[x] |= run << j * block
            at = [(mask * copies >> 1) & full for mask in at]
            le = list(accumulate(at, or_))
            ge = list(accumulate(reversed(at), or_))[::-1]
            below.append(_tiled(le, column, block, positions // width, n))
            above.append(_tiled(ge, column, block, positions // width, n))
        width = block
    meet = partial(map, and_)
    rows = list(map(xor, repeat(full), map(or_, reduce(meet, below), reduce(meet, above))))
    sizes = list(islice(map(prod, product(*(ideal_sizes for _, ideal_sizes, _ in ideals))), 1, n + 1))
    return QuotientGraph(spec, sizes, rows)


def _tiled(masks: list[int], column: tuple[int, ...], block: int, tiles: int, n: int) -> Iterator[int]:
    """`masks[x]` for each class, x being the class's entry of an exponent column.

    The column's entries are each repeated `block` times and the whole list
    `tiles` times; positions 1..n are the classes.
    """
    entries = list(map(masks.__getitem__, column))
    if block > 1:  # at block 1 this would copy `entries` unchanged
        entries = list(chain.from_iterable(map(repeat, entries, repeat(block))))
    return islice(entries * tiles, 1, n + 1)


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
    return group_report("quotient", qg.sizes, qg.rows, t0)
