"""Breadth-first search and the Wiener index's pair counts over a graph held as bitmask rows.

`sweep` searches neighbour rows, one bitmask per vertex, from one source
after another; a level steps bottom-up when fewer vertices are unseen than
are in the frontier, and top-down otherwise (direction-optimizing BFS,
Beamer, Asanovic and Patterson, SC 2012).  It is the one search: both the
brute and the quotient route hand `group_wiener` their graph as groups of
twins, brute's label groups or the quotient's classes, with one row per
group, and `group_wiener` counts the edges from the group sizes and
searches only from the groups that have a pair at distance 3 or more.  To
find those groups it covers each group's non-neighbours in three steps: a
degree bound first (two non-adjacent groups whose degrees sum past k - 2
share a neighbour), then a few hub rows, the rows of the groups of highest
degree, and only the pairs both leave are tested by ANDing their rows; it
weighs a set of groups by popcounts over masks of the sizes, such as their
bit planes, and decodes no set of groups to sum its sizes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import and_

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
    of the vertices.  `excess` is the sum of d - 2 over the vertex pairs at
    distance d >= 3, and `deepest` the largest such d; both are 0 unless
    there is exactly one component.  `report.make_report` takes these
    counts to the Wiener index and the diameter.

    Two members of one group are at distance 2 through any neighbour, and
    vertices in groups i < j are at the groups' distance d(i, j): their
    `sizes[i] * sizes[j]` pairs are edges exactly when i and j are
    adjacent.  A non-adjacent pair is at distance 2 when the rows of i and
    j meet, and at 3 or more otherwise, which makes i *deep*; `sweep` runs
    from the deep groups only, and level d >= 3 of the search from s weighs
    the frontier above s.

    The deep test covers first, in three steps, each on what the one
    before leaves of i's later non-neighbours:

    * the degree bound: the rows of non-adjacent groups i and j lie within
      the other k - 2 groups, so they meet when deg(i) + deg(j) > k - 2,
      and only the groups in `partners[deg(i)]` (degree at most
      k - 2 - deg(i)) are kept;
    * the hubs: the `HUBS` groups of highest degree are hubs, and a hub in
      i's row meets the row of every group in its own, so those groups are
      at distance 2 from i and drop out, hub by hub until none is left;
    * the pair AND: each group still left is tested by ANDing its row with
      i's.

    `rank_groups` gives the hubs and `partners` from one ranking by degree;
    a graph of at most `HUBS` groups skips it, since with every group a hub
    the second step alone leaves exactly the pairs whose rows do not meet.
    A set of groups is weighed by `weigh` over the `size_planes` of the
    sizes.
    """
    components = sum(1 if rows[r] else sizes[r] for r in component_roots(rows))
    connected = components == 1
    vertex_count = sum(sizes)
    pairs = (vertex_count * vertex_count - sum(s * s for s in sizes)) // 2
    k = len(rows)
    everyone = (1 << k) - 1
    planes = size_planes(sizes)
    if k <= HUBS:
        # Every group is a hub, so the hubs alone leave exactly the pairs
        # whose rows do not meet, and with no `partners` the degree bound
        # keeps every group; on such small graphs ranking the groups and
        # summing the hub bits cost more than the rest of this set-up.
        top, hub_mask, partners = range(k), everyone, {}
    else:
        top, partners = rank_groups(rows)
        hub_mask = sum(1 << h for h in top)
    # Each hub's bit and the groups outside its row.
    hubs = [(1 << h, everyone & ~rows[h]) for h in top]
    apart_pairs = 0
    deep = []
    for i, row in enumerate(rows):
        apart = everyone >> i + 1 << i + 1 & ~row
        if apart:
            apart_pairs += sizes[i] * weigh(apart, planes)
            if connected:
                need = apart & partners.get(row.bit_count(), everyone)
                if need:
                    held = row & hub_mask
                    for bit, outside in hubs:
                        if held & bit:
                            need &= outside
                            if not need:
                                break
                if need and 0 in map(and_, repeat(row), map(rows.__getitem__, members(need))):
                    deep.append(i)
    excess = deepest = 0
    for s, d, frontier in sweep(rows, deep):
        if d >= 3:
            excess += (d - 2) * sizes[s] * weigh(frontier >> s + 1 << s + 1, planes)
            deepest = max(deepest, d)
    return excess, deepest, components, pairs - apart_pairs


def rank_groups(rows: Sequence[int]) -> tuple[list[int], dict[int, int]]:
    """The `HUBS` groups of highest degree, and each degree's `partners` mask.

    Groups are ranked by the popcounts of their rows, with ties to the lower
    group.  `partners[d]` holds the groups of degree at most k - 2 - d, one
    mask per distinct degree d: the rows of two non-adjacent groups lie
    within the other k - 2 groups, so they meet unless the degrees sum to at
    most k - 2.
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


def size_planes(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """`(weight, mask)` pairs such that `sizes[i]` is the sum of the weights whose mask holds bit i.

    The bit planes of the sizes, weight 2^b over the groups whose size has
    bit b set, or one mask per distinct size when that takes fewer masks,
    as on small graphs whose sizes repeat.
    """
    width = max(sizes, default=0).bit_length()
    if len(set(sizes)) < width:
        by_size: dict[int, int] = {}
        for i, size in enumerate(sizes):
            by_size[size] = by_size.get(size, 0) | 1 << i
        return list(by_size.items())
    # One fixed-width binary string per size, the last group first; every
    # width-th digit of the joined string is then one plane, top group first.
    digits = "".join(map(format, reversed(sizes), repeat(f"0{width}b")))
    return [(1 << b, int(digits[width - 1 - b :: width], 2)) for b in range(width)]


def weigh(mask: int, planes: Sequence[tuple[int, int]]) -> int:
    """The sum of the sizes of the groups in `mask`, given the sizes' `size_planes`.

    A plain loop: it runs once per row of `group_wiener`, over a few planes,
    where a generator's set-up costs as much as its steps.
    """
    total = 0
    for weight, plane in planes:
        total += (mask & plane).bit_count() * weight
    return total


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
