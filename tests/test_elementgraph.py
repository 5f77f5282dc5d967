import itertools
import time
import tracemalloc
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import contains, naive_distances, naive_labels, naive_reference
from cozero.closedform import wiener_closed
from cozero.elementgraph import (
    BruteForceLimitError,
    build_graph,
    compute_wiener,
    graph_export,
    resolve_brute_limit,
    wiener_brute,
)
from cozero.ringspec import (
    RingSpec,
    integers_mod,
    product_of_fields,
    product_of_integers_mod,
)

# Every vertex of F(2)^k is its own label group, the class graph's shape.
BOOLEAN_SPECS = [product_of_fields((2,) * k) for k in (4, 5, 6)]

SMALL_SPECS = (
    [integers_mod(n) for n in range(2, 61)]
    + [
        product_of_integers_mod(t)
        for t in ((2, 2), (2, 3), (2, 4), (3, 3), (4, 4), (2, 4, 9), (2, 2, 2), (4, 9), (6, 10), (2, 8))
    ]
    + [product_of_fields(t) for t in ((2, 2), (3, 5), (4, 4), (2, 3, 5), (9, 25), (3, 5, 7))]
    + BOOLEAN_SPECS
)


def test_build_graph_z6():
    g = build_graph(integers_mod(6))
    assert g.vertices == [(2,), (3,), (4,)]
    assert g.edges() == [(0, 1), (1, 2)]  # 2-3 and 3-4; 2 and 4 share an ideal
    assert g.edge_count() == 2


def test_build_graph_z4_single_vertex():
    g = build_graph(integers_mod(4))
    assert g.vertices == [(2,)]
    assert g.edges() == []


def test_build_graph_z2xz2():
    g = build_graph(product_of_integers_mod((2, 2)))
    assert g.vertices == [(0, 1), (1, 0)]
    assert g.edges() == [(0, 1)]


def test_wiener_brute_table_value():
    report = wiener_brute(integers_mod(100))
    assert report.status == "value"
    assert report.wiener == 2954
    assert report.vertex_count == 59
    assert report.class_count == 7


def test_wiener_brute_disconnected_z9():
    report = wiener_brute(integers_mod(9))
    assert report.status == "disconnected"
    assert report.wiener is None
    assert report.vertex_count == 2
    assert report.edge_count == 0
    assert report.component_count == 2


def test_wiener_brute_product_example():
    report = wiener_brute(product_of_integers_mod((2, 4, 9)))
    assert report.wiener == 2611
    assert report.class_count == 16
    assert report.diameter == 3


def test_wiener_brute_matches_closed_on_z10080():
    # Z(10080) has 7775 vertices in 70 label groups, far above the
    # acceptance sweep's rings.  F(2)^8 and F(2)^12 have 254 and 4094
    # vertices, each its own label group, so their class graphs are dense.
    cases = (
        (integers_mod(10080), 42875276),
        (product_of_fields((2,) * 8), 37927),
        (product_of_fields((2,) * 12), 8897527),
    )
    for spec, wiener in cases:
        brute = wiener_brute(spec)
        closed = wiener_closed(spec)
        assert (brute.status, brute.wiener, brute.diameter) == (closed.status, closed.wiener, closed.diameter), spec
        assert brute.wiener == wiener


def test_wiener_brute_single_vertex_is_zero():
    report = wiener_brute(integers_mod(4))
    assert report.status == "value"
    assert report.wiener == 0
    assert report.diameter is None
    assert report.component_count == 1


def test_brute_matches_naive_reference():
    # The production BFS runs on grouped bitmasks; check it against a dumb
    # pairwise implementation on every small spec.
    for spec in SMALL_SPECS:
        expected = naive_reference(spec)
        report = wiener_brute(spec)
        assert report.status == expected["status"], spec
        assert report.wiener == expected["wiener"], spec
        assert report.diameter == expected["diameter"], spec
        assert report.excess == expected["excess"], spec
        assert report.component_count == expected["components"], spec
        assert report.vertex_count == expected["vertices"], spec
        assert report.edge_count == expected["edges"], spec


def adjacent(g, i: int, j: int) -> bool:
    # Vertices are adjacent when their label groups are.
    return g.group_rows[g.group_of[i]] >> g.group_of[j] & 1 == 1


def test_adjacency_symmetric_irreflexive():
    for spec in SMALL_SPECS[:30] + BOOLEAN_SPECS:
        g = build_graph(spec)
        n = g.vertex_count
        for i in range(n):
            assert not adjacent(g, i, i)
            for j in range(i + 1, n):
                assert adjacent(g, i, j) == adjacent(g, j, i)


def test_same_label_never_adjacent_and_cross_label_all_or_none():
    for spec in SMALL_SPECS:
        g = build_graph(spec)
        by_label: dict = {}
        for i, lab in enumerate(g.labels):
            by_label.setdefault(lab, []).append(i)
        keys = list(by_label)
        for members in by_label.values():
            for i, j in itertools.combinations(members, 2):
                assert not adjacent(g, i, j)
        for a, b in itertools.combinations(keys, 2):
            flags = {adjacent(g, i, j) for i in by_label[a] for j in by_label[b]}
            assert len(flags) == 1


def test_wiener_invariant_under_component_permutation():
    base = wiener_brute(product_of_integers_mod((2, 4, 9))).wiener
    for perm in itertools.permutations((2, 4, 9)):
        assert wiener_brute(product_of_integers_mod(perm)).wiener == base
    fbase = wiener_brute(product_of_fields((3, 5, 7))).wiener
    for perm in itertools.permutations((3, 5, 7)):
        assert wiener_brute(product_of_fields(perm)).wiener == fbase


def test_bfs_distances_vector():
    # Distances from conftest's element-by-element queue BFS, read at the
    # indices of the built graph's vertices.
    g = build_graph(integers_mod(12))
    idx = {v[0]: i for i, v in enumerate(g.vertices)}
    dist = naive_distances(integers_mod(12), idx[2])
    assert dist[idx[2]] == 0
    assert dist[idx[3]] == 1
    assert dist[idx[4]] == 2
    assert dist[idx[6]] == 3
    assert dist[idx[10]] == 2  # 10 shares the label of 2
    assert naive_distances(integers_mod(8), 0) == [0, None, None]  # disconnected


def test_limit_enforced_with_named_numbers():
    with pytest.raises(BruteForceLimitError) as exc_info:
        build_graph(integers_mod(200), limit=100)
    message = str(exc_info.value)
    assert "200" in message and "100" in message
    assert (exc_info.value.elements, exc_info.value.limit) == (200, 100)


def test_negative_explicit_limit_is_rejected():
    with pytest.raises(ValueError, match="-1") as exc_info:
        wiener_brute(integers_mod(6), limit=-1)
    assert not isinstance(exc_info.value, BruteForceLimitError)


def _elementwise_graph(spec: RingSpec):
    """Vertices, labels, label groups and group rows from one element and one pair at a time."""
    vertices, labels = naive_labels(spec)
    keys = sorted(set(labels))
    groups = [[i for i, label in enumerate(labels) if label == key] for key in keys]
    rows = [
        sum(1 << h for h, b in enumerate(keys) if not contains(a, b) and not contains(b, a)) for a in keys
    ]
    return vertices, labels, keys, groups, rows


def assert_matches_elementwise(spec: RingSpec):
    vertices, labels, keys, groups, rows = _elementwise_graph(spec)
    group_of = [keys.index(label) for label in labels]
    g = build_graph(spec)
    assert g.vertex_count == len(vertices), spec
    assert g.group_keys == keys, spec
    assert g.group_members == groups, spec
    assert g.group_of == group_of, spec
    assert g.group_rows == rows, spec
    assert g.vertices == vertices, spec
    assert g.labels == labels, spec
    if len(vertices) <= 400:
        pairs = itertools.combinations(range(len(vertices)), 2)
        assert g.edges() == [(i, j) for i, j in pairs if rows[group_of[i]] >> group_of[j] & 1], spec


@pytest.mark.parametrize(
    "spec",
    [
        integers_mod(5040),
        product_of_integers_mod((8, 9, 25)),
        product_of_integers_mod((2, 4, 4)),
        product_of_integers_mod((4, 2, 9, 5)),
        product_of_fields((4, 8, 9)),
        product_of_fields((2, 3)),
        product_of_fields((2,) * 8),
    ],
    ids=str,
)
def test_build_matches_elementwise_rule(spec):
    # The acceptance sweep compares vertices and labels only on graphs of at
    # most 100 vertices; these run the same comparison, and the pairwise
    # containment rule for the group adjacency, on larger rings: F(2)^8 has
    # 254 groups and ZxZ(4,2,9,5) four components. Rings of at most 400
    # vertices also compare the edge list pair by pair.
    assert_matches_elementwise(spec)


FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49)


@st.composite
def small_specs(draw) -> RingSpec:
    """Z, ZxZ and F specs of at most 2000 elements, with one to six components."""
    family = draw(st.sampled_from(["Z", "ZxZ", "F", "F2"]))
    if family == "Z":
        return integers_mod(draw(st.integers(2, 2000)))
    if family == "F2":
        return product_of_fields((2,) * draw(st.integers(1, 8)))
    values = st.integers(2, 60) if family == "ZxZ" else st.sampled_from(FIELD_ORDERS)
    components = draw(st.lists(values, min_size=1, max_size=6).filter(lambda cs: prod(cs) <= 2000))
    if family == "ZxZ":
        return product_of_integers_mod(components)
    return product_of_fields(components)


@settings(max_examples=80, deadline=None)
@given(small_specs())
@example(integers_mod(2))  # no vertices
@example(integers_mod(4))  # one vertex
@example(product_of_fields((2,)))  # a field: no vertices
@example(product_of_integers_mod((2, 2, 2, 2, 2, 2)))
@example(product_of_integers_mod((6, 4, 9, 2)))
def test_build_matches_elementwise_rule_on_drawn_specs(spec):
    assert_matches_elementwise(spec)


def test_wiener_builds_no_vertices_or_labels():
    # The searches read the label groups only; the element tuples and their
    # labels wait for their first reader, and then match the elementwise rule.
    for spec in (integers_mod(100), product_of_integers_mod((2, 4, 9)), product_of_fields((4, 8, 9))):
        g = build_graph(spec)
        report = compute_wiener(g)
        assert "vertices" not in vars(g) and "labels" not in vars(g), spec
        vertices, labels, *_ = _elementwise_graph(spec)
        assert report.vertex_count == g.vertex_count == len(vertices), spec
        assert g.vertices == vertices, spec
        assert g.labels == labels, spec


def test_wiener_reads_group_sizes_only():
    # compute_wiener builds nothing per element: no group index, member
    # list or keep flags; the sizes it reads match the member lists built
    # on first read, and the edge count from the pair sum matches the
    # per-group sum.
    for spec in SMALL_SPECS:
        g = build_graph(spec)
        report = compute_wiener(g)
        assert not {"group_of", "group_members", "keep"} & vars(g).keys(), spec
        assert report.edge_count == g.edge_count(), spec
        assert g.group_sizes == [len(m) for m in g.group_members], spec


def test_repr_decodes_no_row(monkeypatch):
    # Counting F(2)^8's edges would decode each of its 254 rows; repr shows
    # only the vertex and group counts, which the graph holds.
    import cozero.elementgraph as elementgraph_mod

    g = build_graph(product_of_fields((2,) * 8))

    def no_decoding(mask):
        raise AssertionError("repr decoded a row")

    monkeypatch.setattr(elementgraph_mod, "members", no_decoding)
    assert repr(g) == "ElementGraph(F(2,2,2,2,2,2,2,2), vertices=254, groups=254)"


def test_adjacent_reads_no_vertex_rows():
    # Adjacency reads two group indices and one bit of a group row; it builds
    # no neighbour row per vertex, which on F(2)^12 would be 4094 rows of
    # 4094 bits. On F(2)^k an element's label ranks as its complement, so
    # vertex i is in group V - 1 - i; complementing both ends keeps an
    # edge, so vertices i and j are adjacent exactly when groups i and j are.
    g = build_graph(product_of_fields((2,) * 12))
    n = g.vertex_count
    tracemalloc.start()
    try:
        for i, j in itertools.product(range(0, n, 61), range(0, n, 7)):
            assert adjacent(g, i, j) == bool(g.group_rows[i] >> j & 1), (i, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert g.group_of == list(range(n))[::-1]


@pytest.mark.parametrize("spec", [product_of_integers_mod((8, 9, 25)), product_of_fields((2,) * 10)], ids=str)
def test_edge_list_matches_the_search(spec):
    # The acceptance sweep checks adjacency pair by pair only up to 100
    # vertices; these lists hold 441484 and 465751 edges.
    g = build_graph(spec)
    assert len(g.edges()) == compute_wiener(g).edge_count == g.edge_count()


def test_brute_memory_on_f2_11():
    # F(2)^11 has 2046 one-vertex label groups, so the build holds one
    # 2046-bit row per group, and the search reads the rows and holds only
    # one row's non-neighbours at a time. Peaks are of Python allocations,
    # so they do not depend on the host; a graph held as neighbour lists
    # reads over 30 MB.
    spec = product_of_fields((2,) * 11)
    tracemalloc.start()
    try:
        graph = build_graph(spec)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        report = compute_wiener(graph)
        search_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.wiener == 2263041
    assert build_peak < 2 * 2**20, build_peak
    assert search_peak < 1 * 2**20, search_peak
    # The search's own allocations, past the graph it reads (~930 KB): a
    # list or table of one entry per group (~2 K of them) would show here.
    assert search_peak - held < 64 * 2**10, search_peak - held


def test_limit_resolution_order(monkeypatch):
    monkeypatch.delenv("COZERO_BRUTE_LIMIT", raising=False)
    assert resolve_brute_limit(None) == 100_000
    monkeypatch.setenv("COZERO_BRUTE_LIMIT", "50")
    assert resolve_brute_limit(None) == 50
    assert resolve_brute_limit(7000) == 7000  # explicit argument beats the env
    monkeypatch.setenv("COZERO_BRUTE_LIMIT", "junk")
    with pytest.raises(ValueError):
        resolve_brute_limit(None)


def test_export_dot_z4():
    g = build_graph(integers_mod(4))
    assert graph_export(g, "dot") == 'graph {\n  "2";\n}\n'


def test_export_edgelist():
    assert graph_export(build_graph(integers_mod(6)), "edgelist") == "2 3\n3 4\n"
    assert graph_export(build_graph(product_of_integers_mod((2, 2))), "edgelist") == "(0,1) (1,0)\n"


def test_export_dot_includes_isolated_vertices_and_edges():
    out = graph_export(build_graph(integers_mod(6)), "dot")
    assert out == 'graph {\n  "2";\n  "3";\n  "4";\n  "2" -- "3";\n  "3" -- "4";\n}\n'


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        graph_export(build_graph(integers_mod(6)), "gexf")


def test_compute_wiener_reuses_built_graph():
    g = build_graph(integers_mod(100))
    assert compute_wiener(g).wiener == 2954


def test_wiener_brute_times_its_build(monkeypatch):
    # compute_wiener times the search alone; wiener_brute's clock starts
    # before the build, as the quotient and closed routes time theirs.
    import cozero.elementgraph as eg

    def slow_build(spec, limit=None):
        time.sleep(0.05)
        return build_graph(spec, limit)

    monkeypatch.setattr(eg, "build_graph", slow_build)
    assert wiener_brute(integers_mod(12)).elapsed >= 0.05
