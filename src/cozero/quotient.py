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
from itertools import accumulate
from operator import and_, or_

from .groupbfs import group_report, members, product_rows, sweep, upper_edges
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
    return [ClassInfo(*c) for c in classes[1:-1]]  # the unit key is first and the zero key last


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
    """The class sizes and neighbour rows of a ring, in `enumerate_classes`' order, by `groupbfs.product_rows`."""
    ideals = [list(zip(*_component_ideals(spec.chains(i)))) for i in range(len(spec.components))]
    columns = [list(zip(*exponents)) for _, _, exponents in ideals]
    return QuotientGraph(spec, *product_rows([sizes for _, sizes, _ in ideals], _exponent_order, columns))


def _exponent_order(columns: list[tuple[int, ...]], cells: list[int], lay) -> Iterator[tuple[int, int]]:
    """The quotient's rule for `groupbfs.product_rows`: the exponent order, chain by chain.

    One ideal contains another exactly when its exponent is no larger on
    every chain.  `columns` holds each chain's exponent by ideal, and `at[x]`
    the tile of the ideals at x there.  Laid down, its prefix ORs `le[x]` are
    the classes at most x, and `ge[x]`, at least x, all but `le[x - 1]`; ANDed
    over the chains, an ideal's `ge` gives the classes it contains, and its
    `le` those that contain it.
    """
    below, above = [], []
    for column in columns:
        at = [0] * (max(column) + 1)
        for cell, x in zip(cells, column):
            at[x] |= cell
        le = list(accumulate(map(lay, at), or_))
        ge = [le[-1] ^ mask for mask in [0, *le[:-1]]]
        below.append(map(le.__getitem__, column))
        above.append(map(ge.__getitem__, column))
    meet = partial(map, and_)
    return zip(reduce(meet, above), reduce(meet, below))


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
