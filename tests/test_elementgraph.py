import itertools
from math import gcd

import pytest

from conftest import naive_reference
from cozero.closedform import wiener_closed
from cozero.elementgraph import (
    BruteForceLimitError,
    build_graph,
    compute_wiener,
    graph_export,
    resolve_brute_limit,
    wiener_brute,
)
from cozero.ringspec import RingSpec, integers_mod, product_of_fields, product_of_integers_mod

SMALL_SPECS = (
    [integers_mod(n) for n in range(2, 61)]
    + [
        product_of_integers_mod(t)
        for t in ((2, 2), (2, 3), (2, 4), (3, 3), (4, 4), (2, 4, 9), (2, 2, 2), (4, 9), (6, 10), (2, 8))
    ]
    + [product_of_fields(t) for t in ((2, 2), (3, 5), (4, 4), (2, 3, 5), (9, 25), (3, 5, 7))]
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
    # 7775 vertices: one block of the all-sources search, far above the
    # acceptance sweep's rings.
    brute = wiener_brute(integers_mod(10080))
    closed = wiener_closed(integers_mod(10080))
    assert (brute.status, brute.wiener, brute.diameter) == (closed.status, closed.wiener, closed.diameter)
    assert brute.wiener == 42875276


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
        assert report.component_count == expected["components"], spec
        assert report.vertex_count == expected["vertices"], spec
        assert report.edge_count == expected["edges"], spec


def test_adjacency_symmetric_irreflexive():
    for spec in SMALL_SPECS[:30]:
        g = build_graph(spec)
        n = g.vertex_count
        for i in range(n):
            assert not g.adjacent(i, i)
            for j in range(i + 1, n):
                assert g.adjacent(i, j) == g.adjacent(j, i)


def test_same_label_never_adjacent_and_cross_label_all_or_none():
    for spec in SMALL_SPECS:
        g = build_graph(spec)
        by_label: dict = {}
        for i, lab in enumerate(g.labels):
            by_label.setdefault(lab, []).append(i)
        keys = list(by_label)
        for members in by_label.values():
            for i, j in itertools.combinations(members, 2):
                assert not g.adjacent(i, j)
        for a, b in itertools.combinations(keys, 2):
            flags = {g.adjacent(i, j) for i in by_label[a] for j in by_label[b]}
            assert len(flags) == 1


def test_wiener_invariant_under_component_permutation():
    base = wiener_brute(product_of_integers_mod((2, 4, 9))).wiener
    for perm in itertools.permutations((2, 4, 9)):
        assert wiener_brute(product_of_integers_mod(perm)).wiener == base
    fbase = wiener_brute(product_of_fields((3, 5, 7))).wiener
    for perm in itertools.permutations((3, 5, 7)):
        assert wiener_brute(product_of_fields(perm)).wiener == fbase


def test_bfs_distances_vector():
    g = build_graph(integers_mod(12))
    idx = {v[0]: i for i, v in enumerate(g.vertices)}
    dist = g.bfs_distances(idx[2])
    assert dist[idx[2]] == 0
    assert dist[idx[3]] == 1
    assert dist[idx[4]] == 2
    assert dist[idx[6]] == 3
    assert dist[idx[10]] == 2  # 10 shares the label of 2
    assert build_graph(integers_mod(8)).bfs_distances(0) == [0, None, None]  # disconnected


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
    """Vertices, labels and label groups from one element at a time."""
    vertices, labels = [], []
    for element in itertools.product(*(range(c) for c in spec.components)):
        if spec.is_field_product:
            label = tuple(1 if x else c for x, c in zip(element, spec.components))
        else:
            label = tuple(gcd(x, c) for x, c in zip(element, spec.components))
        if not any(element) or set(label) == {1}:
            continue  # zero or a unit
        vertices.append(element)
        labels.append(label)
    keys = sorted(set(labels))
    groups = [[i for i, label in enumerate(labels) if label == key] for key in keys]
    return vertices, labels, keys, groups


@pytest.mark.parametrize(
    "spec",
    [
        integers_mod(5040),
        product_of_integers_mod((8, 9, 25)),
        product_of_integers_mod((2, 4, 4)),
        product_of_fields((4, 8, 9)),
        product_of_fields((2, 3)),
    ],
    ids=str,
)
def test_build_matches_elementwise_rule(spec):
    # The acceptance sweep compares vertices and labels only on graphs of at
    # most 100 vertices; these run the same comparison on larger rings.
    g = build_graph(spec)
    vertices, labels, keys, groups = _elementwise_graph(spec)
    assert g.vertices == vertices
    assert g.labels == labels
    assert g.group_keys == keys
    assert g.group_members == groups


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
