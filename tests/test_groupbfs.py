import itertools
import time

import pytest
from conftest import reference_levels, single_bit_graphs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cozero.groupbfs import HUBS, component_roots, group_report, group_wiener, members, size_planes, sweep, weigh

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
def group_graphs(draw, loops=True):
    """Random undirected graphs on label groups of 1-4 members each.

    Vertices are shuffled across groups, some groups may have no neighbours,
    with `loops` a group may neighbour itself (its members then form a
    clique with loops), and the group graph may be disconnected.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    labels = [g for g, size in enumerate(sizes) for _ in range(size)]
    group_of = draw(st.permutations(labels))
    k = len(sizes)
    neighbours = [set() for _ in range(k)]
    pairs = itertools.combinations_with_replacement if loops else itertools.combinations
    for a, b in pairs(range(k), 2):
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
    """`(total, eccentricity_max, components, edges, excess)` from the per-vertex queue BFS.

    `total` and `excess`, the sum of d - 2 over the levels d >= 3, run over
    ordered vertex pairs.
    """
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
    excess = sum((d - 2) * bits.bit_count() for _, d, bits in levels if d >= 3)
    return total, eccentricity, components, edges, excess


def assert_group_wiener_matches(groups, group_of, expected):
    """`group_report` on `group_wiener`'s counts against `reference_summary`'s.

    Components and edges are compared always; the Wiener index and the
    excess, half their ordered-pair totals, and the diameter only when the
    graph is connected, and the diameter only with two or more vertices.
    """
    total, eccentricity, components, edges, excess = expected
    report = group_report("test", *as_adjacency(groups), time.perf_counter())
    assert (report.component_count, report.edge_count) == (components, edges)
    if components == 1:
        diameter = eccentricity if len(group_of) > 1 else None
        assert (report.wiener, report.diameter, report.excess) == (total // 2, diameter, excess // 2)


@settings(max_examples=200, deadline=None)
@given(group_graphs(loops=False))
@example(([], []))  # no vertices
@example(([(0b1, 0)], [0]))  # one vertex
@example((GROUPS, GROUP_OF))  # one edge-bearing component and three isolated vertices
def test_group_wiener_matches_reference_bfs(graph):
    # group_wiener sums over all sources at once; check it against a queue
    # BFS from every vertex.
    groups, group_of = graph
    assert_group_wiener_matches(groups, group_of, reference_summary(groups, group_of))


def test_group_wiener_on_interleaved_groups():
    # 26 groups of 11 interleaved vertices along a path of groups, with the
    # last group isolated.
    k = 26
    group_of = [v % k for v in range(11 * k)]
    bits = [sum(1 << v for v, g in enumerate(group_of) if g == h) for h in range(k)]
    rows = [(bits[g - 1] if g else 0) | (bits[g + 1] if g < k - 2 else 0) for g in range(k - 1)] + [0]
    groups = list(zip(bits, rows))
    expected = reference_summary(groups, group_of)
    # The diameter, one component plus 11 isolated vertices, and 11 x 11
    # edges between each of the path's k - 2 pairs of consecutive groups.
    assert expected[1:4] == (k - 2, 12, (k - 2) * 11 * 11)
    assert_group_wiener_matches(groups, group_of, expected)
    # Without the isolated group the path is connected, and the isolated
    # vertices added no distance to the total.
    group_sizes, group_rows = as_adjacency(groups)
    report = group_report("test", group_sizes[:-1], group_rows[:-1], time.perf_counter())
    assert (report.wiener, report.diameter, report.component_count, report.edge_count) == (
        expected[0] // 2, k - 2, 1, expected[3]
    )
    assert group_wiener(group_sizes[:-1], group_rows[:-1]) == (expected[4] // 2, k - 2, 1, expected[3])


def test_group_wiener_without_pairs():
    assert group_wiener([], []) == (0, 0, 0, 0)
    # One group without neighbours: three isolated vertices and no edge.
    assert group_wiener([3], [0]) == (0, 0, 3, 0)


def single_vertex_groups(rows):
    """`(groups, group_of)` for a graph whose every group is one vertex."""
    return [(1 << v, row) for v, row in enumerate(rows)], list(range(len(rows)))


@settings(max_examples=200, deadline=None)
@given(single_bit_graphs())
@example([(1 << 12) - 1 & ~(1 << v) for v in range(12)])  # complete graph
@example([(1 << v >> 1 | 1 << v << 1) & (1 << 40) - 1 for v in range(40)])  # path, no hub on most pairs
def test_group_wiener_matches_reference_bfs_with_every_size_one(rows):
    groups, group_of = single_vertex_groups(rows)
    assert_group_wiener_matches(groups, group_of, reference_summary(groups, group_of))


def path_joined_to_clique(clique, path, path_first):
    """Rows of a clique of `clique` groups with a path of `path` groups hung from one of them.

    The path takes the lowest group numbers when `path_first`, so that its
    far end is the lower group of its pairs with the clique.
    """
    k = clique + path
    on_path = list(range(path)) if path_first else list(range(clique, k))
    in_clique = [g for g in range(k) if g not in on_path]
    rows = [0] * k
    edges = list(itertools.combinations(in_clique, 2)) + list(itertools.pairwise([in_clique[0]] + on_path))
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return rows, on_path


def groups_of_one_to_three(rows):
    """`(groups, group_of)` for the group graph `rows` with groups of 1, 2, 3, 1, ... vertices."""
    sizes = [1 + v % 3 for v in range(len(rows))]
    group_of = [g for g, size in enumerate(sizes) for _ in range(size)]
    bits = [sum(1 << v for v, g in enumerate(group_of) if g == h) for h in range(len(rows))]
    groups = [(bits[g], sum(bits[h] for h in members(row))) for g, row in enumerate(rows)]
    assert as_adjacency(groups) == (sizes, rows)
    return groups, group_of


@pytest.mark.parametrize("path_first", [False, True])
def test_group_wiener_on_a_path_joined_to_a_clique(path_first):
    # Every path group has a lower degree than every clique group, so the
    # degree bound keeps the path groups among the partners of the far
    # path groups, and every hub is a clique group, so no hub is in the row
    # of a path group past the first: every pair at distance 3 or more is
    # left to the per-pair test.
    clique, path = HUBS + 4, 9
    rows, on_path = path_joined_to_clique(clique, path, path_first)
    degrees = [row.bit_count() for row in rows]
    assert max(degrees[g] for g in on_path) < min(d for g, d in enumerate(degrees) if g not in on_path)
    groups, group_of = single_vertex_groups(rows)
    expected = reference_summary(groups, group_of)
    assert expected[1:3] == (path + 1, 1)
    assert_group_wiener_matches(groups, group_of, expected)
    groups, group_of = groups_of_one_to_three(rows)
    assert_group_wiener_matches(groups, group_of, reference_summary(groups, group_of))


def two_groups_across_a_clique(k, low, high, shared):
    """Rows of k groups: groups 0 and k - 1 are not adjacent, and groups 1..k-2 form a clique.

    Group 0's row is the `low` clique groups from the bottom and group
    k - 1's the `high` ones from the top; `shared` of them are in both.
    """
    clique = range(1, k - 1)
    assert low + high - shared == len(clique)
    rows = [0] * k
    for a, b in itertools.combinations(clique, 2):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    for end, neighbours in ((0, clique[:low]), (k - 1, clique[len(clique) - high :])):
        for g in neighbours:
            rows[end] |= 1 << g
            rows[g] |= 1 << end
    return rows


@pytest.mark.parametrize("low", [1, 6])
@pytest.mark.parametrize("one_vertex_groups", [True, False])
@pytest.mark.parametrize(
    "shared, diameter",
    # Degrees summing to k - 2 leave room for disjoint rows, so group k - 1
    # stays among group 0's partners and the pair AND finds it at distance
    # 3; summing to k - 1, the rows must meet, at distance 2.
    [(0, 3), (1, 2)],
    ids=["degree_sum_k_minus_2", "degree_sum_k_minus_1"],
)
def test_group_wiener_at_the_degree_bound(low, one_vertex_groups, shared, diameter):
    k = HUBS + 6
    rows = two_groups_across_a_clique(k, low, k - 2 - low + shared, shared)
    assert rows[0] & 1 << k - 1 == 0
    assert rows[0].bit_count() + rows[k - 1].bit_count() == k - 2 + shared
    # k > HUBS, so the groups are ranked, and every hub is a clique group.
    groups, group_of = single_vertex_groups(rows) if one_vertex_groups else groups_of_one_to_three(rows)
    expected = reference_summary(groups, group_of)
    assert expected[1:3] == (diameter, 1)
    assert_group_wiener_matches(groups, group_of, expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**70), max_size=20), st.integers(0, 2**20 - 1), st.booleans())
def test_weigh_sums_the_sizes_in_a_mask(sizes, mask, repeated):
    # Few distinct sizes take one mask per size; many, the bit planes.
    if repeated:
        sizes = [size % 3 + 100 for size in sizes]
    mask &= (1 << len(sizes)) - 1
    planes = size_planes(sizes)
    assert weigh(mask, planes) == sum(sizes[i] for i in members(mask))
    assert len(planes) <= max(sizes, default=0).bit_length()
