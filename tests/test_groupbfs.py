import itertools
import random
import sys
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cozero.elementgraph import DEFAULT_BRUTE_LIMIT
from cozero.groupbfs import (
    MASK_BUDGET,
    UPDATE_CHUNK,
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


def sweep_levels(groups, group_of, sources):
    """`sweep`'s output as a list, cut off past the n levels per source a BFS can have."""
    sources = list(sources)
    return list(itertools.islice(sweep(groups, group_of, sources), len(group_of) * len(sources) + 1))


def test_sweep_yields_each_level_in_order():
    assert sweep_levels(GROUPS, GROUP_OF, range(6)) == [
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

    for _, _, frontier in sweep(GROUPS, GROUP_OF, lowest_unreached()):
        unreached &= ~frontier
    assert roots == [0, 3, 4, 5]  # four components


def test_component_roots_are_lowest_vertices():
    assert component_roots(GROUPS, GROUP_OF, 6) == [0, 3, 4, 5]
    assert component_roots([(0b1, 0b10), (0b10, 0b1)], [0, 1], 2) == [0]
    assert component_roots([], [], 0) == []


def test_members_lists_set_bits_ascending():
    assert list(members(0)) == []
    assert list(members(0b101001)) == [0, 3, 5]
    assert list(members(1 << 200 | 2)) == [1, 200]


def reference_levels(groups, group_of, sources):
    """Plain per-vertex queue BFS from each source: `(source, d, bits)` per level d >= 1."""
    n = len(group_of)
    adjacency = [[u for u in range(n) if groups[group_of[v]][1] >> u & 1] for v in range(n)]
    out = []
    for s in sources:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        by_level = {}
        for v, d in dist.items():
            if d:
                by_level[d] = by_level.get(d, 0) | 1 << v
        out.extend((s, d, by_level[d]) for d in sorted(by_level))
    return out


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


def single_bit(rows):
    """The graph with these neighbour rows as one single-bit group per vertex."""
    return [(1 << v, row) for v, row in enumerate(rows)], list(range(len(rows)))


@st.composite
def single_bit_graphs(draw):
    """Random graphs with one single-bit group per vertex, as class graphs are.

    Dense draws leave few vertices unseen after the first level, so the
    sweep steps bottom-up; sparse ones keep it on the other two steps.
    """
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return single_bit(rows)


@settings(max_examples=200, deadline=None)
@given(group_graphs(), st.data())
def test_sweep_matches_reference_bfs_on_group_graphs(graph, data):
    groups, group_of = graph
    n = len(group_of)
    assert sweep_levels(groups, group_of, range(n)) == reference_levels(groups, group_of, range(n))
    sources = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    assert sweep_levels(groups, group_of, sources) == reference_levels(groups, group_of, sources)


@settings(max_examples=200, deadline=None)
@given(single_bit_graphs())
@example(single_bit([(1 << 12) - 1 & ~(1 << v) for v in range(12)]))  # complete graph
@example(single_bit([(1 << v >> 1 | 1 << v << 1) & (1 << 12) - 1 for v in range(12)]))  # path
def test_sweep_matches_reference_bfs_on_single_bit_graphs(graph):
    groups, group_of = graph
    n = len(group_of)
    assert sweep_levels(groups, group_of, range(n)) == reference_levels(groups, group_of, range(n))


def as_adjacency(groups):
    """`(group_members, group_adjacency)` of a graph given as `(member_bits, neighbour_row)` groups."""
    group_members = [list(members(bits)) for bits, _ in groups]
    group_adjacency = [[h for h, (bits, _) in enumerate(groups) if row & bits] for _, row in groups]
    return group_members, group_adjacency


def reference_summary(groups, group_of):
    """`(total, eccentricity_max, components)` from the per-vertex queue BFS."""
    n = len(group_of)
    levels = reference_levels(groups, group_of, range(n))
    reached = [1 << v for v in range(n)]
    for s, _, bits in levels:
        reached[s] |= bits
    total = sum(d * bits.bit_count() for _, d, bits in levels)
    eccentricity = max((d for _, d, _ in levels), default=0)
    # A root is a vertex that no lower vertex reaches.
    components = sum(1 for v in range(n) if reached[v] & ((1 << v) - 1) == 0)
    return total, eccentricity, components


@settings(max_examples=200, deadline=None)
@given(group_graphs())
@example(([], []))  # no vertices
@example(([(0b1, 0)], [0]))  # one vertex
@example((GROUPS, GROUP_OF))  # one edge-bearing component and three isolated vertices
def test_all_sources_matches_reference_bfs(graph):
    groups, group_of = graph
    n = len(group_of)
    expected = reference_summary(groups, group_of)
    group_members, group_adjacency = as_adjacency(groups)
    for block in (1, 3, max(n, 1), None):
        assert all_sources(group_members, group_adjacency, block) == expected, block


def test_all_sources_across_update_chunks():
    # More vertices than one chunk of the in-place update: 26 groups of 11,
    # interleaved so that chunks cut through every group, along a path of
    # groups, with the last group isolated.
    k = 26
    group_of = [v % k for v in range(11 * k)]
    bits = [sum(1 << v for v, g in enumerate(group_of) if g == h) for h in range(k)]
    rows = [(bits[g - 1] if g else 0) | (bits[g + 1] if g < k - 2 else 0) for g in range(k - 1)] + [0]
    groups = list(zip(bits, rows))
    assert len(group_of) > UPDATE_CHUNK
    expected = reference_summary(groups, group_of)
    assert expected[1:] == (k - 2, 12)  # diameter, and one component plus 11 isolated vertices
    group_members, group_adjacency = as_adjacency(groups)
    for block in (None, 100):
        assert all_sources(group_members, group_adjacency, block) == expected


def mask_bytes(bits):
    """Bytes a `bits`-bit mask takes in a list: the 8-byte slot plus the int object.

    A CPython int is a 24-byte header and 4 bytes per 30-bit digit, rounded
    up to 16 bytes by the allocator.
    """
    return 8 + -(-(24 + 4 * -(-bits // 30)) // 16) * 16


def test_block_rule_fits_the_mask_budget_at_the_brute_cap():
    # Arithmetic only: nothing of the size it bounds is allocated.  The
    # masks alive at once are one per vertex plus one chunk of the update.
    n = DEFAULT_BRUTE_LIMIT
    block = block_size(n)
    assert (n + UPDATE_CHUNK) * mask_bytes(block) <= MASK_BUDGET
    # The block is the largest that fits, to one 30-bit digit.
    assert (n + UPDATE_CHUNK) * mask_bytes(block + 30) > MASK_BUDGET
    assert block == 3420
    # Graphs the size of the acceptance sweep are searched in one block.
    assert block_size(2000) == 2000
    assert block_size(0) == 1


def test_mask_bytes_covers_the_int_and_its_list_slot():
    for bits in (1, 29, 30, 31, 2000, 3420):
        assert mask_bytes(bits) >= sys.getsizeof((1 << bits) - 1) + 8
