"""Breadth-first search over label groups, shared by the brute and quotient routes.

Vertices that carry the same ideal label have the same neighbours, so a
graph is given as label groups: the vertices of each group and the groups
it neighbours.  Two searches run on them.

`all_sources` searches from every vertex at once, for brute's Wiener
index, diameter and component count.  It takes the sources in blocks and
gives each vertex a bitmask over the block's sources (multi-source BFS,
Then et al., PVLDB 8(4), 2014); one level costs O(V + E_g) big-int steps
for V vertices and E_g group pairs, whatever the number of sources in the
block.

`sweep` searches from one source after another, for the quotient route
and for single-source distances.  There the graph is `groups[g] =
(member_bits, neighbour_row)`: the group's vertices as a bitmask over
vertex indices and the neighbour bitmask they share.  A frontier is one
Python int.  Each level is found by whichever of three steps costs least
(direction-optimizing BFS, Beamer, Asanovic and Patterson, SC 2012):

* group scan: AND the frontier with every group's members and OR the rows
  of the groups it meets, `len(groups)` steps;
* top-down: OR the rows of the frontier's vertices, one step per frontier
  vertex;
* bottom-up: test each unseen vertex's row against the frontier, one step
  per unseen vertex.

A per-vertex step counts as `VERTEX_STEP` group-scan steps.  A search
stops as soon as no vertex is unseen.  The class graph has one
single-bit group per class, so E_g there is the number of class pairs and
a multi-source level would cost O(K^2); since class graphs are dense,
`sweep` steps bottom-up once the first level has reached most classes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import islice
from operator import and_, or_

# One per-vertex step (a set-bit lookup, a row fetch and one big-int AND or
# OR) costs about this many steps of the group scan, as measured on element
# graphs of up to 2000 elements and on class graphs of 100-2046 classes.
VERTEX_STEP = 3

# `all_sources` rewrites its per-vertex masks UPDATE_CHUNK vertices at a
# time, so at most n + UPDATE_CHUNK of them are alive at once, and sizes its
# source blocks so that those fit MASK_BUDGET bytes.
MASK_BUDGET = 48 * 2**20
UPDATE_CHUNK = 256


def sweep(
    groups: Sequence[tuple[int, int]], group_of: Sequence[int], sources: Iterable[int]
) -> Iterator[tuple[int, int, int]]:
    """Run a BFS from each source in turn, yielding `(source, distance, frontier_bits)`.

    `group_of[v]` is the group of vertex v.  For each source, every level at
    distance d >= 1 is yielded in order, as the bitmask of the vertices first
    reached at d; a source with no neighbours yields nothing.  `sources` is
    read lazily: the next source is taken only after the consumer has
    resumed past the last level of the one before.
    """
    everyone = (1 << len(group_of)) - 1
    scan = len(groups)
    row_of = [groups[g][1] for g in group_of]
    for s in sources:
        unseen = everyone & ~(1 << s)
        frontier = row_of[s] & unseen
        d = 0
        while frontier:
            d += 1
            yield s, d, frontier
            unseen &= ~frontier
            if not unseen:
                break
            up = unseen.bit_count() * VERTEX_STEP
            down = frontier.bit_count() * VERTEX_STEP
            if up < down and up < scan:
                # Bottom-up: every unseen vertex with a neighbour in the
                # frontier is reached; collect the few that are not.
                missed = 0
                for v in members(unseen):
                    if not row_of[v] & frontier:
                        missed |= 1 << v
                frontier = unseen & ~missed
            else:
                reached = 0
                if down < scan:
                    for v in members(frontier):
                        reached |= row_of[v]
                else:
                    for bits, row in groups:
                        if frontier & bits:
                            reached |= row
                frontier = reached & unseen


def component_roots(groups: Sequence[tuple[int, int]], group_of: Sequence[int], n: int) -> list[int]:
    """The lowest vertex of each connected component of an n-vertex graph, ascending.

    One `sweep` runs over lazily drawn roots: the next root is the lowest
    vertex that no earlier root's search reached.
    """
    unreached = (1 << n) - 1
    roots: list[int] = []

    def lowest_unreached() -> Iterator[int]:
        nonlocal unreached
        while unreached:
            low = unreached & -unreached
            unreached ^= low
            roots.append(low.bit_length() - 1)
            yield roots[-1]

    for _, _, frontier in sweep(groups, group_of, lowest_unreached()):
        unreached &= ~frontier
    return roots


def all_sources(
    group_members: Sequence[Sequence[int]], group_adjacency: Sequence[Sequence[int]], block: int | None = None
) -> tuple[int, int, int]:
    """Search from every vertex at once: `(total, eccentricity_max, components)`.

    `group_members[g]` lists the vertices of group g and `group_adjacency[g]`
    its neighbour groups.  `total` sums the distance over every ordered pair
    of vertices that reach each other, `eccentricity_max` is the largest such
    distance (0 when no two vertices do) and `components` counts connected
    components.

    The sources are taken in blocks of `block`.  Every vertex v keeps a
    mask over the block's sources, `unseen[v]`: the sources whose search
    has not reached v yet.  Level d ORs each group's level-(d-1) frontier
    over its neighbour groups into `reach`, takes `reach[g] & unseen[v]` as
    vertex v's level-d frontier and clears it from `unseen[v]`, counting the
    cleared bits.  Distance is symmetric, so that frontier is also the
    level-d frontier of the search from v, restricted to the block: every
    vertex gets a genuine BFS, with nothing assumed about twins or
    distances.  A group's frontier, the OR of its members' frontiers, is
    `reach[g]` ANDed with the OR of their `unseen`, so no per-vertex
    frontier list is kept.  Components are counted by their roots, the
    vertices that no lower source reached.

    The default `block` is `block_size(n)`: the most sources for which the
    masks alive at once, `unseen` and one chunk of its update, fit
    MASK_BUDGET (48 MiB).  That is every source on up to 19 140 vertices, and
    blocks of 3420 at the 100 000-element brute cap.
    """
    n = sum(map(len, group_members))
    block = block or block_size(n)
    group_of = [0] * n
    for g, vertices in enumerate(group_members):
        for v in vertices:
            group_of[v] = g
    total = eccentricity = components = 0
    for start in range(0, n, block):
        width = min(block, n - start)
        everyone = (1 << width) - 1
        unseen = [everyone] * n
        unseen[start : start + width] = [everyone ^ 1 << j for j in range(width)]
        # Level 0: each group's frontier is the block's sources among its members.
        frontier = [everyone ^ reduce(and_, map(unseen.__getitem__, vertices), everyone) for vertices in group_members]
        left = (n - 1) * width
        d = 0
        while left:
            reach = [reduce(or_, map(frontier.__getitem__, neighbours), 0) for neighbours in group_adjacency]
            frontier = [
                r & reduce(or_, map(unseen.__getitem__, vertices), 0) for r, vertices in zip(reach, group_members)
            ]
            keep = [everyone ^ r for r in reach]
            for a in range(0, n, UPDATE_CHUNK):
                b = a + UPDATE_CHUNK
                unseen[a:b] = map(and_, map(keep.__getitem__, group_of[a:b]), unseen[a:b])
            now = sum(map(int.bit_count, unseen))
            if now == left:
                break
            d += 1
            total += d * (left - now)
            left = now
        eccentricity = max(eccentricity, d)
        # Every vertex of a component now holds the same mask, the block's
        # sources outside it, and no source of the block holds all of them:
        # the roots among the block's sources are its masks no lower vertex holds.
        components += len(set(unseen[start : start + width]).difference(islice(unseen, start)))
    return total, eccentricity, components


def block_size(n: int) -> int:
    """Sources per block of `all_sources` on n vertices: all n, or as many as fit MASK_BUDGET.

    A vertex's mask takes an 8-byte list slot plus a CPython int: a 24-byte
    header and 4 bytes per 30-bit digit, which the allocator rounds up to 16.
    """
    room = MASK_BUDGET // (n + UPDATE_CHUNK) - 8
    fits = (room // 16 * 16 - 24) // 4 * 30
    return max(1, min(n, fits))


def members(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    # One C-level scan of the binary digits per mask, rather than three
    # big-int operations per set bit.
    digits = f"{mask:b}"[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)
