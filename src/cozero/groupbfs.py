"""Breadth-first search for the brute and quotient routes, two searches over one row shape.

Both read a graph as one neighbour bitmask row per vertex.  `all_sources`
searches an element graph, given as label groups whose vertices share
their neighbours, with one row per group, from every vertex at once: each
group keeps one bitmask over a block of sources (multi-source BFS, Then
et al., PVLDB 8(4), 2014).  `sweep` searches plain neighbour rows from one
source after another, for the quotient route's class graph and
single-source distances; a level steps bottom-up when fewer vertices are
unseen than are in the frontier, and top-down otherwise
(direction-optimizing BFS, Beamer, Asanovic and Patterson, SC 2012).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import accumulate, compress, pairwise
from operator import and_, invert, mul, or_, xor

# Bytes that `all_sources` lets its masks take at once (see `block_size`).
MASK_BUDGET = 48 * 2**20

# bytes.translate table: map the digits "0" and "1" to the bytes 0 and 1.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


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


def all_sources(
    group_sizes: Sequence[int], group_rows: Sequence[int], block: int | None = None
) -> tuple[int, int, int, int]:
    """Search from every vertex at once: `(total, eccentricity_max, components, edges)`.

    Group g has `group_sizes[g]` vertices, and `group_rows[g]` is the
    bitmask of its neighbour groups, the shape of `QuotientGraph.rows`; no
    vertex number is read.  `total` sums the distance over the ordered
    pairs of vertices that reach each other; `eccentricity_max` is the
    largest (0 when no two vertices do).  Each row is decoded once per call
    into a string of 0/1 flag bytes, one per group, which
    `itertools.compress` reads at C speed at every level.

    Sources are numbered group by group and go in blocks of `block`, and
    each group keeps masks over a block's sources: `own[g]`, those in g (one
    run of bits), and `reach[g]`, which starts as `own[g]` and is ORed over
    g's neighbour groups at each level, so that at level d it holds the
    sources with a walk of length d to g.  For d >= 1 a walk reaches all of
    g's members, which share their neighbours, or none, so the first level
    d >= 1 at which s enters `reach[g]` is its distance to every vertex of
    g but s.  `unseen[g]` holds the sources not in it yet, so
    `cleared = reach[g] & unseen[g]` are those at distance d, and the level
    counts |g|·|cleared| - |cleared & own[g]| pairs, in O(G + E_g) big-int
    steps for G groups and E_g adjacent group pairs.  The search stops once
    every pair is counted, or at a level that counts none: a vertex at
    distance d + 1 has a neighbour at distance d.  Level 1 counts exactly
    the ordered adjacent pairs whose first vertex is in the block, so over
    all blocks it counts every edge twice, and `edges` is half of it.

    A vertex's final mask, its group's without its own bit, is the block's
    sources outside its component: for a group with neighbours, its mask
    without its own sources (a group of one may stop before its source
    walks back to it).  A component is counted in the first block that
    holds one of its sources, as no group with a source before the block
    holds its mask; each vertex of a group without neighbours is a
    component of its own.
    """
    n = sum(group_sizes)
    groups = len(group_rows)
    block = block or block_size(n, groups)
    offsets = list(accumulate(group_sizes, initial=0))
    flags = [f"{row:0{groups}b}"[::-1].encode().translate(_DIGITS) for row in group_rows]
    total = eccentricity = components = adjacent_pairs = 0
    for start in range(0, n, block):
        stop = min(start + block, n)
        everyone = (1 << stop - start) - 1
        # Group g's sources are offsets[g] to offsets[g + 1] - 1, cut to the block.
        own = [(1 << max(0, min(b, stop) - max(a, start))) - 1 << max(0, a - start) for a, b in pairwise(offsets)]
        unseen = [everyone] * len(own)
        reach = own
        left = (n - 1) * (stop - start)
        d = 0
        while left:
            reach = [reduce(or_, compress(reach, neighbours), 0) for neighbours in flags]
            cleared = list(map(and_, reach, unseen))
            pairs = sum(map(mul, group_sizes, map(int.bit_count, cleared)))
            pairs -= sum(map(int.bit_count, map(and_, cleared, own)))
            if not pairs:
                break
            unseen = list(map(xor, unseen, cleared))
            d += 1
            total += d * pairs
            left -= pairs
            if d == 1:
                adjacent_pairs += pairs
        eccentricity = max(eccentricity, d)
        outside = list(map(and_, unseen, map(invert, own)))
        lower = {mask for mask, a in zip(outside, offsets) if a < start}
        rooted = {mask for mask, sources, row in zip(outside, own, group_rows) if sources and row}
        components += len(rooted - lower) + sum(o.bit_count() for o, row in zip(own, group_rows) if not row)
    return total, eccentricity, components, adjacent_pairs // 2


def block_size(n: int, groups: int) -> int:
    """Sources per block of `all_sources` on n vertices in `groups` label groups.

    All n, or as many as fit MASK_BUDGET bytes in five lists of a mask per
    group (`own`, `unseen`, `reach`, `cleared` and one being built) and
    three more (`everyone`, two in one OR or AND).  A mask is an 8-byte list
    slot and an int of 24 bytes plus 4 per 30-bit digit, rounded up to 16.
    The neighbour flags that `all_sources` decodes from the rows, `groups`
    bytes per group, do not depend on the block and sit outside the budget.
    """
    room = MASK_BUDGET // (5 * groups + 3) - 8
    fits = (room // 16 * 16 - 24) // 4 * 30
    return max(1, min(n, fits))


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
