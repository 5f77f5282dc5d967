"""Breadth-first search and the Wiener index's pair counts over a graph held as bitmask rows.

Both graph routes hold their graph as groups of twins, brute's label groups
or the quotient's classes, with one neighbour bitmask row per group, the
shape of `QuotientGraph.rows`.

* `product_rows` builds the sizes and rows from a route's containment rule;
* `sweep` is the one search, and `component_roots` finds the components
  with it;
* `group_wiener` is the one pair sum: the edges, the components and the
  pairs at distance 3 or more, which `group_report` takes to a report;
* `rank_groups` ranks the groups by degree for `group_wiener`'s hubs and
  degree bound;
* `size_planes`, `bit_planes` and `weigh` sum the sizes of a set of groups
  without decoding it;
* `upper_edges` and `members` decode rows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from itertools import islice, product, repeat
from math import prod
from operator import mul

from .report import WienerReport, make_report

HUBS = 16
"""How many groups of highest degree `group_wiener` takes as hubs.

On the hub curve over 4, 8, 16 and 32, 16 leads on oracle_sweep's small
rings (level with 32) and on Z(963761198400); 8 beat it by 0.6-3.5% on
class_graph, whose slow tail, the field products, the degree bound clears
before any hub is read (BENCH_degree_cover.json).
"""


def sweep(rows: Sequence[int], sources: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """Run a BFS from each source in turn, yielding `(source, distance, frontier_bits)`.

    `rows[v]` is the neighbour bitmask of vertex v.  For each source, every
    level at distance d >= 1 is yielded in order, as the bitmask of the
    vertices first reached at d; a source with no neighbours yields nothing.
    `sources` is read lazily: the next source is taken only after the
    consumer has resumed past the last level of the one before.

    A level steps bottom-up, testing each unseen vertex's row against the
    frontier, when fewer vertices are unseen than are in the frontier, and
    top-down, ORing the rows of the frontier's vertices, otherwise
    (direction-optimizing BFS, Beamer, Asanovic and Patterson, SC 2012), and
    the search stops once no vertex is unseen.  Dense class graphs step
    bottom-up after the first level.
    """
    everyone = (1 << len(rows)) - 1
    for s in sources:
        unseen = everyone & ~(1 << s)
        frontier = rows[s] & unseen
        d = 0
        while frontier:
            d += 1
            yield s, d, frontier
            unseen &= ~frontier
            if not unseen:
                break
            if unseen.bit_count() < frontier.bit_count():
                # Bottom-up: every unseen vertex with a neighbour in the
                # frontier is reached; collect the few that are not.
                missed = 0
                for v in members(unseen):
                    if not rows[v] & frontier:
                        missed |= 1 << v
                frontier = unseen & ~missed
            else:
                reached = 0
                for v in members(frontier):
                    reached |= rows[v]
                frontier = reached & unseen


def component_roots(rows: Sequence[int]) -> list[int]:
    """The lowest vertex of each connected component, ascending."""
    unreached = (1 << len(rows)) - 1
    roots: list[int] = []
    while unreached:
        root = (unreached & -unreached).bit_length() - 1
        roots.append(root)
        unreached ^= 1 << root
        for _, _, frontier in sweep(rows, (root,)):
            unreached &= ~frontier
    return roots


def group_wiener(sizes: Sequence[int], rows: Sequence[int]) -> tuple[int, int, int, int]:
    """`(excess, deepest, components, edges)` of a graph given as groups of twins.

    Group i has `sizes[i]` vertices, and `rows[i]` is the bitmask of its
    neighbour groups, the shape of `QuotientGraph.rows`: a vertex is
    adjacent to every vertex of the groups in its group's row, and to none
    of its own group, so no row holds its own bit.  No vertex number is
    read.  A group without neighbours scatters into `sizes[i]` isolated
    vertices, and any other component of the group graph is one component
    of the vertices; `component_roots` runs one `sweep` per component.
    `excess` is the sum of d - 2 over the vertex pairs at distance d >= 3,
    and `deepest` the largest such d; both are 0 unless there is exactly
    one component.  `report.make_report` takes these counts to the Wiener
    index and the diameter.  No distance table is built.

    Two members of one group are at distance 2 through any neighbour, and
    vertices in distinct groups i and j are at the groups' distance
    d(i, j), so the Wiener index of a connected graph is
    2 * sum_i C(size_i, 2) + sum_{i<j} size_i * size_j * d(i, j).  The
    `sizes[i] * sizes[j]` pairs of i and j are edges exactly when i and j
    are adjacent.  Each pair of groups is counted from its heavier group:
    the larger, or the lower of two of one size.  So group i counts its
    *lighter* groups, `smaller | same >> i + 1 << i + 1` from the `classes`
    of `size_planes`, and weighs its lighter non-neighbours by `weigh` with
    the planes of its own size, and one pass over the rows gives the edge
    count.  A non-adjacent pair is at distance 2 when the rows of i and j
    meet, and at 3 or more otherwise, which makes j a *far* partner of i.

    The far partners are found in three steps, each on what the one before
    leaves of i's lighter non-neighbours:

    * the degree bound: the rows of non-adjacent groups i and j lie within
      the other k - 2 groups, so they meet when deg(i) + deg(j) > k - 2,
      and only the groups in `partners[deg(i)]` (degree at most
      k - 2 - deg(i)) are kept;
    * the hubs: the `HUBS` groups of highest degree are hubs, and a hub in
      i's row meets the row of every group in its own, so those groups are
      at distance 2 from i and drop out, hub by hub until none is left;
    * the pair AND: each group still left is tested by ANDing its row with
      i's, and those whose rows miss are the far partners.  These few are
      the only set of groups decoded to sum its sizes.

    On F(2)^14 the degree bound alone clears all 4.73 M non-adjacent pairs,
    where the hubs alone would leave 108 k, and on products of 7 or 8
    fields it clears every row (CHANGES.md).

    The hubs in i's row then certify the far partners: when every far
    partner's row meets the OR of those hubs' rows, each is at distance 3
    through a hub, and i adds `sizes[i]` times their sizes to the excess.
    Otherwise `sweep` runs from i, and level d >= 3 of its search adds
    d - 2 for each pair of i with a lighter group on that level, and the
    deepest such level is `deepest`.  On Z(963761198400), Z(95760),
    ZxZ(8,9,16) and ZxZ(36,60,14) the hubs certify every far pair, so
    `sweep` runs only in `component_roots`.

    `rank_groups` gives the hubs and `partners` from one ranking by degree;
    a graph of at most `HUBS` groups skips it, since with every group a hub
    the second step alone leaves exactly the pairs whose rows do not meet,
    and the certificate decides distance 3 exactly.
    """
    components = sum(1 if rows[r] else sizes[r] for r in component_roots(rows))
    connected = components == 1
    vertex_count = sum(sizes)
    pairs = (vertex_count * vertex_count - sum(map(mul, sizes, sizes))) // 2
    k = len(rows)
    everyone = (1 << k) - 1
    classes = size_planes(sizes)
    if k <= HUBS:
        # Every group is a hub, and with no `partners` the degree bound keeps
        # every group; on such small graphs ranking the groups and summing
        # the hub bits cost more than the rest of this set-up.
        top, hub_mask, partners = range(k), everyone, {}
    else:
        top, partners = rank_groups(rows)
        hub_mask = sum(1 << h for h in top)
    # Each hub's bit and the groups outside its row.
    hubs = [(1 << h, everyone ^ rows[h]) for h in top]
    apart_pairs = excess = deepest = 0
    deep: dict[int, int] = {}
    for i, (row, size) in enumerate(zip(rows, sizes)):
        smaller, same, planes = classes[size]
        lighter = smaller | same >> i + 1 << i + 1
        apart = lighter & ~row
        if not apart:
            continue
        apart_pairs += size * weigh(apart, planes)
        need = apart & partners.get(row.bit_count(), everyone) if connected else 0
        if not need:
            continue
        held = row & hub_mask
        for bit, outside in hubs:
            if held & bit:
                need &= outside
                if not need:
                    break
        far = [j for j in members(need) if not rows[j] & row] if need else None
        if far:
            # Each far group is at distance 3 when its row meets the row of
            # a hub in i's row.
            reach = 0
            for h in members(held):
                reach |= rows[h]
            if all(rows[j] & reach for j in far):
                excess += size * sum(map(sizes.__getitem__, far))
                deepest = 3
            else:
                deep[i] = lighter
    for s, d, frontier in sweep(rows, deep):
        if d >= 3:
            size = sizes[s]
            excess += (d - 2) * size * weigh(frontier & deep[s], classes[size][2])
            deepest = max(deepest, d)
    return excess, deepest, components, pairs - apart_pairs


def rank_groups(rows: Sequence[int]) -> tuple[list[int], dict[int, int]]:
    """The `HUBS` groups of highest degree, and each degree's `partners` mask.

    Groups are ranked by the popcounts of their rows, with ties to the lower
    group.  `partners[d]` holds the groups of degree at most k - 2 - d, one
    mask per distinct degree d, for `group_wiener`'s degree bound.
    """
    by_degree: dict[int, int] = {}
    for i, row in enumerate(rows):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << i
    degrees = sorted(by_degree)
    top: list[int] = []
    for d in reversed(degrees):
        mask = by_degree[d]
        while mask and len(top) < HUBS:
            low = mask & -mask
            top.append(low.bit_length() - 1)
            mask ^= low
    # Walk the degrees down while the bound k - 2 - d walks up, ORing in
    # the groups whose degree the bound has passed.
    bound = len(rows) - 2
    partners: dict[int, int] = {}
    below = taken = 0
    for d in reversed(degrees):
        while taken < len(degrees) and degrees[taken] <= bound - d:
            below |= by_degree[degrees[taken]]
            taken += 1
        partners[d] = below
    return top, partners


def group_report(method: str, sizes: Sequence[int], rows: Sequence[int], t0: float) -> WienerReport:
    """The `method` route's report on the graph of `group_wiener(sizes, rows)`, timed from `t0`.

    `report.make_report` derives the Wiener index and the diameter from
    these counts, and sets the status and which fields are present.
    """
    excess, deepest, components, edges = group_wiener(sizes, rows)
    return make_report(method, sum(sizes), len(sizes), components, edges, excess, deepest, t0)


def size_planes(sizes: Sequence[int]) -> dict[int, tuple[int, int, list[tuple[int, int]]]]:
    """`{size: (smaller, same, planes)}` for each distinct size, ascending.

    `smaller` and `same` are the masks of the groups of smaller size and of
    that size.  All sizes are weighed by one list of `(weight, mask)`
    pairs, ascending in weight, such that `sizes[i]` is the sum of the
    weights whose mask holds bit i: one mask per distinct size when there
    are fewer than twice as many distinct sizes as bit planes, as on small
    graphs, and otherwise the `bit_planes` of the sizes.  `planes` is the
    slice of that list of weight at most the size, cut in the same
    ascending pass as `smaller`.  A group no larger than the size is in no
    heavier mask, so `weigh` with the size's planes is exact on any set of
    such groups, as a group's lighter groups are, and reads no mask that
    could only add 0: about half the masks of the sizes, but nearly every
    bit plane of a heavy group, and the size masks cost no set-up
    (BENCH_heavier_side.json).
    """
    by_size: dict[int, int] = {}
    for i, size in enumerate(sizes):
        by_size[size] = by_size.get(size, 0) | 1 << i
    distinct = sorted(by_size.items())
    width = distinct[-1][0].bit_length() if distinct else 0
    planes = distinct if len(distinct) < 2 * width else bit_planes(sizes, width)
    classes = {}
    smaller = n = 0
    count = len(planes)
    for size, same in distinct:
        while n < count and planes[n][0] <= size:
            n += 1
        classes[size] = smaller, same, planes[:n]
        smaller |= same
    return classes


def bit_planes(sizes: Sequence[int], width: int) -> list[tuple[int, int]]:
    """`(2^b, mask)` for each b below `width`: mask b holds the groups whose size has bit b set.

    `width` is the bit length of the largest size.  The sizes are packed
    into one integer, group i in the i-th slot of ceil(width / 8) bytes, by
    one `int.to_bytes` per size, of any length, and one `int.from_bytes`.
    That integer is written once in binary, the last group's slot first, so
    that every 8 * slot-th digit is one plane, top group first.
    """
    slot = (width + 7) // 8
    bits = 8 * slot
    packed = int.from_bytes(b"".join(map(int.to_bytes, sizes, repeat(slot), repeat("little"))), "little")
    digits = f"{packed:0{bits * len(sizes)}b}"
    return [(1 << b, int(digits[bits - 1 - b :: bits], 2)) for b in range(width)]


def weigh(mask: int, planes: Sequence[tuple[int, int]]) -> int:
    """The sum of the sizes of the groups in `mask`, given a size's plane list from `size_planes`.

    Exact when no group in `mask` is larger than that size.  A plain loop:
    it runs once per row of `group_wiener`, over a few planes, where a
    generator's set-up costs as much as its steps.
    """
    total = 0
    for weight, plane in planes:
        total += (mask & plane).bit_count() * weight
    return total


def product_rows(sizes: Sequence[Sequence[int]], rule: Callable, entries: Sequence) -> tuple[list[int], list[int]]:
    """The group sizes and neighbour rows of a product ring, from a route's containment rule.

    Component i has one entry per ideal: `sizes[i]` holds their element
    counts and `entries[i]` what `rule` reads of them.  A group takes one
    entry per component, its size the product of theirs, and position p of
    the product order is group p - 1; the unit (first) and zero (last)
    positions are cut.  An entry's positions form runs of `block` ones every
    `width` bits: `cells[j]` is entry j's run in one tile, and `lay` lays a
    tile down by one multiplication with `copies`.  `rule(entries[i], cells,
    lay)` gives each entry's pair of masks, of the groups whose entry there
    it contains (`inside`) and of those containing it (`outside`), itself
    among both.  An ideal of the product contains another exactly when it
    does at every component, so `_meet` ANDs those pairs over the
    components, and a group's row is every group in neither.  No pair of
    groups is visited.
    """
    positions = prod(map(len, sizes))
    n = positions - 2
    full = (1 << n) - 1
    masks = []
    width = positions
    for count, component in zip(map(len, sizes), entries):
        block = width // count
        copies = ((1 << positions) - 1) // ((1 << width) - 1)
        cells = list(map(((1 << block) - 1).__lshift__, range(0, width, block)))

        def lay(tile: int) -> int:
            return (tile * copies >> 1) & full

        masks.append(rule(component, cells, lay))
        width = block
    rows = [full ^ (inside | outside) for inside, outside in islice(reduce(_meet, masks), 1, n + 1)]
    return list(islice(map(prod, product(*sizes)), 1, n + 1)), rows


def _meet(column: Iterable[tuple[int, int]], entries: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Each pair of `column` ANDed with each pair of `entries` in turn, the order of the positions."""
    entries = tuple(entries)
    return ((inside & inner, outside & outer) for inside, outside in column for inner, outer in entries)


def upper_edges(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Every edge `(i, j)` with i < j of the graph with neighbour rows `rows`, lexicographic."""
    return [(i, j) for i, row in enumerate(rows) for j in members(row >> i + 1 << i + 1)]


def members(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    # One C-level scan of the binary digits per mask, rather than three
    # big-int operations per set bit.
    digits = f"{mask:b}"[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)
