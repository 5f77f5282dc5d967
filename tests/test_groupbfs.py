import itertools
import sys

from conftest import reference_levels, single_bit_graphs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cozero.elementgraph import DEFAULT_BRUTE_LIMIT
from cozero.groupbfs import (
    MASK_BUDGET,
    all_sources,
    block_size,
    component_roots,
    members,
    sweep,
)

# Six vertices in three label groups: {0, 1} ~ {2} form one component, and
# the group {3, 4, 5} has no neighbours, so its vertices are isolated.
GROUPS = [(0b000011, 0b000100), (0b000100, 0b000011), (0b111000, 0)]
GROUP_OF = [0, 0, 1, 2, 2, 2]


def vertex_rows(groups, group_of):
    """Each vertex's neighbour bitmask: the row of its group."""
    return [groups[g][1] for g in group_of]


ROWS = vertex_rows(GROUPS, GROUP_OF)


def sweep_levels(rows, sources):
    """`sweep`'s output as a list, cut off past the n levels per source a BFS can have."""
    sources = list(sources)
    return list(itertools.islice(sweep(rows, sources), len(rows) * len(sources) + 1))


def test_sweep_yields_each_level_in_order():
    assert sweep_levels(ROWS, range(6)) == [
        (0, 1, 0b100),
        (0, 2, 0b010),
        (1, 1, 0b100),
        (1, 2, 0b001),
        (2, 1, 0b011),
    ]


def test_sweep_counts_element_components():
    # One component per root, the lowest vertex not reached yet; sweep draws
    # the next root only after the previous root's levels are consumed.
    unreached = (1 << 6) - 1
    roots = []

    def lowest_unreached():
        nonlocal unreached
        while unreached:
            low = unreached & -unreached
            unreached ^= low
            roots.append(low.bit_length() - 1)
            yield roots[-1]

    for _, _, frontier in sweep(ROWS, lowest_unreached()):
        unreached &= ~frontier
    assert roots == [0, 3, 4, 5]  # four components


def test_component_roots_are_lowest_vertices():
    assert component_roots(ROWS) == [0, 3, 4, 5]
    assert component_roots([0b10, 0b1]) == [0]
    assert component_roots([]) == []


def test_members_lists_set_bits_ascending():
    assert list(members(0)) == []
    assert list(members(0b101001)) == [0, 3, 5]
    assert list(members(1 << 200 | 2)) == [1, 200]


@st.composite
def group_graphs(draw):
    """Random undirected graphs on label groups of 1-4 members each.

    Vertices are shuffled across groups, some groups may have no neighbours,
    a group may neighbour itself (its members then form a clique with loops),
    and the group graph may be disconnected.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    labels = [g for g, size in enumerate(sizes) for _ in range(size)]
    group_of = draw(st.permutations(labels))
    k = len(sizes)
    neighbours = [set() for _ in range(k)]
    for a, b in itertools.combinations_with_replacement(range(k), 2):
        if draw(st.booleans()):
            neighbours[a].add(b)
            neighbours[b].add(a)
    bits = [0] * k
    for v, g in enumerate(group_of):
        bits[g] |= 1 << v
    groups = [(bits[g], sum(bits[h] for h in neighbours[g])) for g in range(k)]
    return groups, list(group_of)


@settings(max_examples=200, deadline=None)
@given(group_graphs(), st.data())
def test_sweep_matches_reference_bfs_on_group_graphs(graph, data):
    rows = vertex_rows(*graph)
    n = len(rows)
    assert sweep_levels(rows, range(n)) == reference_levels(rows, range(n))
    sources = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    assert sweep_levels(rows, sources) == reference_levels(rows, sources)


@settings(max_examples=200, deadline=None)
@given(single_bit_graphs())
@example([(1 << 12) - 1 & ~(1 << v) for v in range(12)])  # complete graph
@example([(1 << v >> 1 | 1 << v << 1) & (1 << 12) - 1 for v in range(12)])  # path
def test_sweep_matches_reference_bfs_on_single_bit_graphs(rows):
    n = len(rows)
    assert sweep_levels(rows, range(n)) == reference_levels(rows, range(n))


def as_adjacency(groups):
    """`(group_sizes, group_rows)` of a graph given as `(member_bits, neighbour_row)` groups."""
    group_sizes = [bits.bit_count() for bits, _ in groups]
    group_rows = [sum(1 << h for h, (bits, _) in enumerate(groups) if row & bits) for _, row in groups]
    return group_sizes, group_rows


def reference_summary(groups, group_of):
    """`(total, eccentricity_max, components, edges)` from the per-vertex queue BFS."""
    n = len(group_of)
    levels = reference_levels(vertex_rows(groups, group_of), range(n))
    reached = [1 << v for v in range(n)]
    for s, _, bits in levels:
        reached[s] |= bits
    total = sum(d * bits.bit_count() for _, d, bits in levels)
    eccentricity = max((d for _, d, _ in levels), default=0)
    # A root is a vertex that no lower vertex reaches.
    components = sum(1 for v in range(n) if reached[v] & ((1 << v) - 1) == 0)
    # Level 1 from every source holds each edge once from either end.
    edges = sum(bits.bit_count() for _, d, bits in levels if d == 1) // 2
    return total, eccentricity, components, edges


@settings(max_examples=200, deadline=None)
@given(group_graphs())
@example(([], []))  # no vertices
@example(([(0b1, 0)], [0]))  # one vertex
@example((GROUPS, GROUP_OF))  # one edge-bearing component and three isolated vertices
def test_all_sources_matches_reference_bfs(graph):
    groups, group_of = graph
    n = len(group_of)
    expected = reference_summary(groups, group_of)
    group_sizes, group_rows = as_adjacency(groups)
    for block in (1, 3, max(n, 1), None):
        assert all_sources(group_sizes, group_rows, block) == expected, block


def test_all_sources_on_interleaved_groups():
    # 26 groups of 11 interleaved vertices along a path of groups, with the
    # last group isolated; blocks of 100 sources split groups.
    k = 26
    group_of = [v % k for v in range(11 * k)]
    bits = [sum(1 << v for v, g in enumerate(group_of) if g == h) for h in range(k)]
    rows = [(bits[g - 1] if g else 0) | (bits[g + 1] if g < k - 2 else 0) for g in range(k - 1)] + [0]
    groups = list(zip(bits, rows))
    expected = reference_summary(groups, group_of)
    # The diameter, one component plus 11 isolated vertices, and 11 x 11
    # edges between each of the path's k - 2 pairs of consecutive groups.
    assert expected[1:] == (k - 2, 12, (k - 2) * 11 * 11)
    group_sizes, group_rows = as_adjacency(groups)
    for block in (None, 100):
        assert all_sources(group_sizes, group_rows, block) == expected


def mask_bytes(bits):
    """Bytes a `bits`-bit mask takes in a list: the 8-byte slot plus the int object.

    A CPython int is a 24-byte header and 4 bytes per 30-bit digit, rounded
    up to 16 bytes by the allocator.
    """
    return 8 + -(-(24 + 4 * -(-bits // 30)) // 16) * 16


def test_block_rule_fits_the_mask_budget_at_the_brute_cap():
    # Arithmetic only: nothing of the size it bounds is allocated.  The
    # masks alive at once are five lists of one per group plus three, and
    # the worst case at the brute cap is every vertex in a group of its own.
    n = groups = DEFAULT_BRUTE_LIMIT
    block = block_size(n, groups)
    assert (5 * groups + 3) * mask_bytes(block) <= MASK_BUDGET
    # The block is the largest that fits, to one 30-bit digit.
    assert (5 * groups + 3) * mask_bytes(block + 30) > MASK_BUDGET
    assert block == 420
    # Graphs the size of the acceptance sweep are searched in one block,
    # and so are rings at the cap with few label groups.
    assert block_size(2000, 2000) == 2000
    assert block_size(n, 100) == n
    assert block_size(0, 0) == 1


def test_mask_bytes_covers_the_int_and_its_list_slot():
    for bits in (1, 29, 30, 31, 420, 2000, 3420):
        assert mask_bytes(bits) >= sys.getsizeof((1 << bits) - 1) + 8
