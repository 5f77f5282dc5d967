"""Breadth-first search over label groups, shared by the brute and quotient routes.

Vertices that carry the same ideal label have the same neighbours, so a
graph is given as a list of groups, `groups[g] = (member_bits,
neighbour_row)`: the group's vertices as a bitmask over vertex indices and
the neighbour bitmask they share.  A frontier is one Python int.  Each
level is found by whichever of three steps costs least (direction-
optimizing BFS, Beamer, Asanovic and Patterson, SC 2012):

* group scan: AND the frontier with every group's members and OR the rows
  of the groups it meets, `len(groups)` steps;
* top-down: OR the rows of the frontier's vertices, one step per frontier
  vertex;
* bottom-up: test each unseen vertex's row against the frontier, one step
  per unseen vertex.

A per-vertex step counts as `VERTEX_STEP` group-scan steps.  A search
stops as soon as no vertex is unseen.  The element graph has few,
large groups and keeps to the group scan; the class graph is the same
structure with one single-bit group per class, and since class graphs are
dense it steps bottom-up once the first level has reached most classes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

# One per-vertex step (a set-bit lookup, a row fetch and one big-int AND or
# OR) costs about this many steps of the group scan, as measured on element
# graphs of up to 2000 elements and on class graphs of 100-2046 classes.
VERTEX_STEP = 3


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


def members(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    # One C-level scan of the binary digits per mask, rather than three
    # big-int operations per set bit.
    digits = f"{mask:b}"[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)
