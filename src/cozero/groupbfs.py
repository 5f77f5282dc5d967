"""Breadth-first search over label groups, shared by the brute and quotient routes.

Vertices that carry the same ideal label have the same neighbours, so a
graph is given as a list of groups, `groups[g] = (member_bits,
neighbour_row)`: the group's vertices as a bitmask over vertex indices and
the neighbour bitmask they share.  A frontier is one Python int, and one
BFS level costs one AND per group and one OR per group it meets.  The
element graph has one group per label; the class graph is the same
structure with one bit per class.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


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
    for s in sources:
        seen = 1 << s
        frontier = groups[group_of[s]][1] & ~seen
        d = 0
        while frontier:
            d += 1
            yield s, d, frontier
            seen |= frontier
            reached = 0
            for bits, row in groups:
                if frontier & bits:
                    reached |= row
            frontier = reached & ~seen


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
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
