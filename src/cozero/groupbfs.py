"""Breadth-first search and the Wiener index's pair counts over a graph held as bitmask rows.

Both graph routes hold their graph as groups of twins, brute's label groups
or the quotient's classes, with one neighbour bitmask row per group, the
shape of `QuotientGraph.rows`.

* `product_rows` builds the sizes, the rows and the edge count from a
  route's containment rule;
* `sweep` is the one search, and `component_roots` finds the components
  with it;
* `group_wiener` is the one pair sum: the components and the pairs at
  distance 3 or more, which `group_report` takes, with `product_rows`'
  edge count, to a report;
* `rank_groups` ranks the groups by degree for `group_wiener`'s hubs and
  degree bound;
* `upper_edges` and `members` decode rows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from itertools import islice, product
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


def group_wiener(sizes: Sequence[int], rows: Sequence[int]) -> tuple[int, int, int]:
    """`(excess, deepest, components)` of a graph given as groups of twins.

    Group i has `sizes[i]` vertices, and `rows[i]` is the bitmask of its
    neighbour groups, the shape of `QuotientGraph.rows`: a vertex is
    adjacent to every vertex of the groups in its group's row, and to none
    of its own group, so no row holds its own bit.  No vertex number is
    read.  A group without neighbours scatters into `sizes[i]` isolated
    vertices, and any other component of the group graph is one component
    of the vertices; `component_roots` runs one `sweep` per component.
    `excess` is the sum of d - 2 over the vertex pairs at distance d >= 3,
    and `deepest` the largest such d; both are 0 unless there is exactly
    one component.  `report.make_report` takes these counts, with the edge
    count of `product_rows`, to the Wiener index and the diameter.

    Two members of one group are at distance 2, and vertices in distinct
    groups i and j at the groups' distance, so only non-adjacent groups
    hold pairs at distance 3 or more.  Each such pair is taken once, from
    its lower group i among its *later* non-neighbours, and j is a *far*
    partner of i when their rows do not meet.

    The far partners are found in three steps, each on what the one before
    leaves of i's later non-neighbours:

    * the degree bound: the rows of non-adjacent groups i and j lie within
      the other k - 2 groups, so they meet when deg(i) + deg(j) > k - 2,
      and only the groups in `partners[deg(i)]` (degree at most
      k - 2 - deg(i)) are kept;
    * the hubs: the `HUBS` groups of highest degree are hubs, and a hub in
      i's row meets the row of every group in its own, so those groups are
      at distance 2 from i and drop out, hub by hub until none is left;
    * the pair AND: each group still left is tested by ANDing its row with
      i's, and those whose rows miss are the far partners.

    On F(2)^14 the degree bound alone clears all 4.73 M non-adjacent pairs,
    where the hubs alone would leave 108 k, and on products of 7 or 8
    fields it clears every row (CHANGES.md).

    The hubs in i's row then certify the far partners: when every far
    partner's row meets the OR of those hubs' rows, each is at distance 3
    through a hub, and i adds `sizes[i]` times their sizes to the excess.
    Otherwise `sweep` runs from i, and level d >= 3 of its search adds
    d - 2 for each pair of i with a later group on that level, and the
    deepest such level is `deepest`.  These few groups alone are decoded
    to sum their sizes.  On Z(963761198400), Z(95760), ZxZ(8,9,16) and
    ZxZ(36,60,14) the hubs certify every far pair, so `sweep` runs only in
    `component_roots`.

    `rank_groups` gives the hubs and `partners` from one ranking by degree;
    a graph of at most `HUBS` groups skips it, since with every group a hub
    the second step alone leaves exactly the pairs whose rows do not meet,
    and the certificate decides distance 3 exactly.
    """
    components = sum(1 if rows[r] else sizes[r] for r in component_roots(rows))
    if components != 1:
        return 0, 0, components
    k = len(rows)
    everyone = (1 << k) - 1
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
    excess = deepest = 0
    deep: list[int] = []
    for i, row in enumerate(rows):
        later = everyone >> i + 1 << i + 1
        need = later & ~row & partners.get(row.bit_count(), everyone)
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
                excess += sizes[i] * sum(map(sizes.__getitem__, far))
                deepest = 3
            else:
                deep.append(i)
    for s, d, frontier in sweep(rows, deep):
        if d >= 3:
            excess += (d - 2) * sizes[s] * sum(map(sizes.__getitem__, members(frontier >> s + 1 << s + 1)))
            deepest = max(deepest, d)
    return excess, deepest, components


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


def group_report(method: str, sizes: Sequence[int], rows: Sequence[int], edge_count: int, t0: float) -> WienerReport:
    """The `method` route's report on the graph of `group_wiener(sizes, rows)` with `edge_count` edges, timed from `t0`.

    `report.make_report` derives the Wiener index and the diameter from
    these counts, and sets the status and which fields are present.
    """
    excess, deepest, components = group_wiener(sizes, rows)
    return make_report(method, sum(sizes), len(sizes), components, edge_count, excess, deepest, t0)


def product_rows(sizes: Sequence[Sequence[int]], rule: Callable, entries: Sequence) -> tuple[list[int], list[int], int]:
    """The group sizes, neighbour rows and edge count of a product ring, from a route's containment rule.

    Component i has one entry per ideal: `sizes[i]` holds their element
    counts and `entries[i]` what `rule` reads of them.  A group takes one
    entry per component, its size the product of theirs, and position p of
    the product order is group p - 1; the unit (first) and zero (last)
    positions are cut.  An entry's positions form runs of `block` ones every
    `width` bits: `cells[j]` is entry j's run in one tile, and `lay` lays a
    tile down by one multiplication with `copies`.  `rule(entries[i],
    sizes[i], cells, lay)` gives each entry's pair of masks, of the groups
    whose entry there it contains (`inside`) and of those containing it
    (`outside`), itself among both, and each entry's *held* weight, the
    total count of the entries it contains, itself among them.  An ideal of
    the product contains another exactly when it does at every component,
    so `_meet` ANDs those pairs over the components, and a group's row is
    every group in neither.  No pair of groups is visited.

    The edge count factors the same way: of the `order`**2 ordered pairs of
    the ring's elements, `contained` (the product of each component's sum
    of count times held weight) have the first ideal containing the second,
    and `equal` (of its sums of squared counts) equal ideals.  The unit and
    zero ideals are comparable with every ideal, so the other
    `order`**2 - 2 * `contained` + `equal` pairs are the edges, both ways.
    """
    positions = prod(map(len, sizes))
    n = positions - 2
    full = (1 << n) - 1
    masks = []
    width = positions
    order = contained = equal = 1
    for counts, component in zip(sizes, entries):
        block = width // len(counts)
        copies = ((1 << positions) - 1) // ((1 << width) - 1)
        cells = list(map(((1 << block) - 1).__lshift__, range(0, width, block)))

        def lay(tile: int) -> int:
            return (tile * copies >> 1) & full

        pairs, held = rule(component, counts, cells, lay)
        masks.append(pairs)
        order *= sum(counts)
        contained *= sum(map(mul, counts, held))
        equal *= sum(map(mul, counts, counts))
        width = block
    rows = [full ^ (inside | outside) for inside, outside in islice(reduce(_meet, masks), 1, n + 1)]
    edge_count = (order * order - 2 * contained + equal) // 2
    return list(islice(map(prod, product(*sizes)), 1, n + 1)), rows, edge_count


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
