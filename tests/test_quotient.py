import itertools
import time
from math import comb, prod

import pytest
from conftest import (
    contains,
    divisors,
    naive_distances,
    outcome,
    phi,
    reference_levels,
    row_edge_count,
    single_bit_graphs,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cozero.closedform import wiener_closed
from cozero.elementgraph import build_graph, wiener_brute
from cozero.groupbfs import group_report
from cozero.quotient import (
    build_quotient_graph,
    enumerate_classes,
    quotient_distances,
    wiener_quotient,
)
from cozero.ringspec import (
    crt_normalize,
    integers_mod,
    product_of_fields,
    product_of_integers_mod,
)


def test_classes_z100():
    classes = enumerate_classes(integers_mod(100))
    assert [c.key for c in classes] == [(2,), (4,), (5,), (10,), (20,), (25,), (50,)]
    assert [c.size for c in classes] == [20, 20, 8, 4, 4, 2, 1]
    assert sum(c.size for c in classes) == 100 - 40 - 1  # 40 units


def test_classes_product_249_match_worked_example():
    classes = enumerate_classes(product_of_integers_mod((2, 4, 9)))
    assert len(classes) == 16
    sizes = {c.key: c.size for c in classes}
    assert sizes[(2, 1, 1)] == 12  # units in both nontrivial components: 2 * 6
    assert sizes[(2, 4, 1)] == 6
    assert sizes[(2, 4, 3)] == 2
    assert sizes[(1, 1, 3)] == 4
    assert sizes[(1, 2, 9)] == 1
    assert sum(sizes.values()) == 72 - 1 * 2 * 6 - 1  # 1 * 2 * 6 units


def test_classes_field_pair():
    classes = enumerate_classes(product_of_fields((9, 25)))
    assert [(c.key, c.size) for c in classes] == [((1, 25), 8), ((9, 1), 24)]


def test_classes_are_sorted_and_distinct():
    for spec in (integers_mod(360), product_of_integers_mod((6, 10)), product_of_fields((4, 9, 5))):
        keys = [c.key for c in enumerate_classes(spec)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_class_adjacent_examples():
    def adjacent(spec, a, b):
        qg = build_quotient_graph(spec)
        index = {c.key: i for i, c in enumerate(qg.classes)}
        return bool(qg.rows[index[a]] >> index[b] & 1)

    assert adjacent(integers_mod(6), (2,), (3,))
    assert not adjacent(integers_mod(8), (2,), (4,))
    # Field supports {1} and {2,3} in a three-component product.
    assert adjacent(product_of_fields((3, 5, 7)), (1, 5, 7), (3, 1, 1))


def test_quotient_distances_z12():
    qg = build_quotient_graph(integers_mod(12))
    idx = {c.key[0]: i for i, c in enumerate(qg.classes)}
    table, connected = quotient_distances(qg)
    assert connected
    assert table[idx[2]][idx[6]] == 3  # forced through 2 ~ 3 ~ 4 ~ 6
    assert table[idx[2]][idx[3]] == 1
    assert table[idx[2]][idx[4]] == 2


def test_quotient_distances_fields_nested_support():
    qg = build_quotient_graph(product_of_fields((3, 5, 7)))
    key_of = {c.key: i for i, c in enumerate(qg.classes)}
    table, connected = quotient_distances(qg)
    assert connected
    only_first = key_of[(1, 5, 7)]
    first_and_second = key_of[(1, 1, 7)]
    assert table[only_first][first_and_second] == 2


def test_quotient_distances_product_249_chain_pair():
    qg = build_quotient_graph(product_of_integers_mod((2, 4, 9)))
    key_of = {c.key: i for i, c in enumerate(qg.classes)}
    table, _ = quotient_distances(qg)
    assert table[key_of[(2, 4, 3)]][key_of[(1, 1, 3)]] == 3
    assert table[key_of[(2, 2, 9)]][key_of[(1, 2, 1)]] == 3


@pytest.mark.parametrize(
    "n,expected",
    [(100, 2954), (500, 77174), (1000, 306202), (2500, 1946274)],
)
def test_wiener_quotient_reference_values(n, expected):
    report = wiener_quotient(integers_mod(n))
    assert report.status == "value"
    assert report.wiener == expected


def test_wiener_quotient_degenerates():
    assert wiener_quotient(integers_mod(2)).status == "empty_graph"
    zn4 = wiener_quotient(integers_mod(4))
    assert zn4.status == "value" and zn4.wiener == 0
    assert wiener_quotient(integers_mod(9)).status == "disconnected"
    assert wiener_quotient(integers_mod(9)).component_count == 2
    z8 = wiener_quotient(integers_mod(8))
    assert z8.status == "disconnected" and z8.component_count == 3
    assert quotient_distances(build_quotient_graph(integers_mod(8))) == ([[0, None], [None, 0]], False)


def test_wiener_quotient_matches_brute_small():
    specs = (
        [integers_mod(n) for n in range(2, 120)]
        + [product_of_integers_mod(t) for t in ((2, 4, 9), (6, 10), (8, 8), (2, 2, 2), (4, 27))]
        + [product_of_fields(t) for t in ((9, 25), (3, 5, 7), (2, 2), (4, 4, 4))]
    )
    for spec in specs:
        brute = wiener_brute(spec)
        quot = wiener_quotient(spec)
        assert (brute.status, brute.wiener) == (quot.status, quot.wiener), spec
        assert brute.vertex_count == quot.vertex_count
        assert brute.class_count == quot.class_count
        assert brute.component_count == quot.component_count
        if brute.diameter is not None:
            assert brute.diameter == quot.diameter


def test_class_sizes_sum_to_brute_vertex_count():
    for n in range(2, 200):
        spec = integers_mod(n)
        assert sum(c.size for c in enumerate_classes(spec)) == len(build_graph(spec).vertices)


def test_within_class_element_distance_is_two_when_connected():
    # Two classmates are never adjacent but meet through any neighboring class.
    for spec in (integers_mod(12), integers_mod(100), product_of_integers_mod((2, 4, 9)), product_of_fields((9, 25))):
        graph = build_graph(spec)
        report = wiener_quotient(spec)
        assert report.status == "value" and report.class_count >= 2
        by_label: dict = {}
        for i, lab in enumerate(graph.labels):
            by_label.setdefault(lab, []).append(i)
        for members in by_label.values():
            if len(members) >= 2:
                dist = naive_distances(spec, members[0])
                assert dist[members[1]] == 2


def test_crt_invariance_spot_checks():
    assert wiener_quotient(integers_mod(36)).wiener == 420
    assert wiener_quotient(product_of_integers_mod((4, 9))).wiener == 420
    for n in (12, 36, 60, 100, 360, 2500):
        a = wiener_quotient(integers_mod(n))
        b = wiener_quotient(crt_normalize(integers_mod(n)))
        assert (a.status, a.wiener) == (b.status, b.wiener)


def assert_rows_match_pairwise(spec):
    qg = build_quotient_graph(spec)
    keys = [c.key for c in qg.classes]
    for i, a in enumerate(keys):
        assert not qg.rows[i] >> i & 1, (spec, a)
        for j in range(i + 1, len(keys)):
            adjacent = not contains(a, keys[j]) and not contains(keys[j], a)
            assert bool(qg.rows[i] >> j & 1) == adjacent, (spec, a, keys[j])
            assert bool(qg.rows[j] >> i & 1) == adjacent, (spec, keys[j], a)
        assert qg.rows[i] < 1 << len(keys), (spec, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**6))
def test_rows_match_class_adjacent_zn(n):
    assert_rows_match_pairwise(integers_mod(n))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 40), min_size=2, max_size=3))
@example([12, 18])
@example([4, 6, 9])
def test_rows_match_class_adjacent_products(moduli):
    assert_rows_match_pairwise(product_of_integers_mod(moduli))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]), min_size=1, max_size=5))
@example([4, 4, 9])
def test_rows_match_class_adjacent_fields(orders):
    assert_rows_match_pairwise(product_of_fields(orders))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 40), min_size=2, max_size=3))
@example([12, 18])
@example([4, 6, 9])
def test_rows_match_brute_group_rows_on_composite_products(moduli):
    # Composite moduli give components of several chains, whose exponent
    # columns are tiled inside one component's block; brute builds its rows
    # from residue label tables instead.
    spec = product_of_integers_mod(moduli)
    graph = build_graph(spec)
    qg = build_quotient_graph(spec)
    assert (qg.sizes, qg.rows) == (graph.group_sizes, graph.group_rows), moduli


RINGS = st.one_of(
    st.integers(2, 10**6).map(integers_mod),
    st.lists(st.integers(2, 60), min_size=2, max_size=3).map(product_of_integers_mod),
    st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]), min_size=1, max_size=5).map(product_of_fields),
)


def test_classes_are_built_on_first_read():
    qg = build_quotient_graph(product_of_integers_mod((12, 18)))
    assert "classes" not in vars(qg)
    assert qg.classes == enumerate_classes(qg.spec)
    assert "classes" in vars(qg)


@settings(max_examples=40, deadline=None)
@given(RINGS)
@example(integers_mod(2))
def test_sizes_are_the_class_sizes(spec):
    qg = build_quotient_graph(spec)
    assert qg.sizes == [c.size for c in qg.classes], spec
    assert qg.class_count == len(qg.sizes) == len(qg.rows), spec


def test_quotient_graph_views_follow_rows():
    qg = build_quotient_graph(integers_mod(12))
    assert [c.key for c in qg.classes] == [(2,), (3,), (4,), (6,)]
    assert qg.rows == [0b0010, 0b0101, 0b1010, 0b0100]  # 2 ~ 3 ~ 4 ~ 6
    assert qg.adjacency == [[1], [0, 2], [1, 3], [2]]
    assert [qg.degree(i) for i in range(4)] == [1, 2, 2, 1]
    assert qg.edges() == [(0, 1), (1, 2), (2, 3)]


def test_wiener_quotient_two_thousand_classes():
    spec = product_of_fields((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17))
    start = time.perf_counter()
    report = wiener_quotient(spec)
    elapsed = time.perf_counter() - start
    assert report.wiener == 2817402440312668111 == wiener_closed(spec).wiener
    assert (report.status, report.class_count, report.diameter) == ("value", 2046, 2)
    assert elapsed < 10.0


def test_wiener_quotient_six_thousand_classes():
    # Z(963761198400) = 2^6 3^4 5^2 7 11 13 17 19 23 has tau - 2 = 6718 classes
    # and ~1.8 M non-adjacent class pairs. product_rows counts |E| from the
    # exponent order, and group_wiener tests one by one only the pairs the
    # degree bound and the hub rows leave; its per-row bitmask work over
    # 6718-bit rows is most of the cost of this call.
    spec = integers_mod(963761198400)
    start = time.perf_counter()
    report = wiener_quotient(spec)
    elapsed = time.perf_counter() - start
    assert report.wiener == 413966247180657242451350 == wiener_closed(spec).wiener
    assert (report.status, report.class_count, report.diameter) == ("value", 6718, 3)
    assert elapsed < 20.0


def class_count(spec) -> int:
    return prod(a + 1 for _, a in spec.local_factors()) - 2


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=len(SMALL_PRIMES), max_size=len(SMALL_PRIMES)),
    st.sampled_from([1, 101, 65537, 999983]),
)
@example([4, 2, 1, 1, 1, 1, 0], 1)  # Z(720720)
def test_quotient_matches_closed_zn(exponents, cofactor):
    n = prod(p**e for p, e in zip(SMALL_PRIMES, exponents)) * cofactor
    assume(n >= 2)
    spec = integers_mod(n)
    assume(class_count(spec) <= 1000)
    assert outcome(wiener_quotient(spec)) == outcome(wiener_closed(spec)), n


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 360), min_size=2, max_size=4))
@example([8, 9, 16])
@example([2, 2, 2, 2])
def test_quotient_matches_closed_products(moduli):
    spec = product_of_integers_mod(moduli)
    assume(class_count(spec) <= 1000)
    assert outcome(wiener_quotient(spec)) == outcome(wiener_closed(spec)), moduli


def reference_classes(spec):
    """(key, size) of every class by the label rule: divisors(c) with sizes
    phi(c // d) per integers-mod component, (1, q) with sizes q - 1 and 1 per
    field, minus the all-zero and all-unit keys."""
    if spec.is_field_product:
        per_component = [((1, q - 1), (q, 1)) for q in spec.components]
    else:
        per_component = [[(d, phi(c // d)) for d in divisors(c)] for c in spec.components]
    out = []
    for combo in itertools.product(*per_component):
        key = tuple(d for d, _ in combo)
        if key != spec.components and key != (1,) * len(key):
            out.append((key, prod(size for _, size in combo)))
    return out


def assert_classes_match_reference(spec):
    classes = enumerate_classes(spec)
    assert [(c.key, c.size) for c in classes] == reference_classes(spec), spec
    # Each component's label is prod(q**x) over that component's chains.
    for c in classes:
        exponents = iter(c.exponents)
        labels = tuple(prod(q ** next(exponents) for q, _ in spec.chains(i)) for i in range(len(spec.components)))
        assert labels == c.key, (spec, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**6))
@example(720720)
def test_classes_match_label_rule_zn(n):
    assert_classes_match_reference(integers_mod(n))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 60), min_size=2, max_size=3))
@example([12, 18])
@example([4, 6, 9])
def test_classes_match_label_rule_products(moduli):
    assert_classes_match_reference(product_of_integers_mod(moduli))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]), min_size=1, max_size=5))
@example([4, 4, 9])
def test_classes_match_label_rule_fields(orders):
    assert_classes_match_reference(product_of_fields(orders))


def reference_group_wiener(rows, sizes):
    """`(wiener, diameter, excess, edges)` by a queue BFS from every group, each pair weighed from its lower end.

    Classmates sit at distance 2: `2 * sum C(s, 2)` of them, which makes
    the diameter at least 2 when some size is 2 or more.  The excess weighs
    d - 2 for each pair at distance d >= 3, and the edges are the pairs at
    distance 1.
    """
    total = 2 * sum(comb(s, 2) for s in sizes)
    excess = edges = 0
    diameter = 2 if max(sizes) > 1 else 0
    for s, d, bits in reference_levels(rows, range(len(rows))):
        weight = sizes[s] * sum(sizes[j] for j in range(s + 1, len(rows)) if bits >> j & 1)
        total += d * weight
        excess += max(d - 2, 0) * weight
        edges += weight if d == 1 else 0
        diameter = max(diameter, d)
    return total, diameter, excess, edges


def group_outcome(sizes, rows, edges):
    """`(wiener, diameter, excess, components)` of `group_report` on these groups with `edges` edges."""
    report = group_report("test", sizes, rows, edges, time.perf_counter())
    return report.wiener, report.diameter, report.excess, report.component_count


def is_connected(rows):
    return sum(bits.bit_count() for _, _, bits in reference_levels(rows, [0])) == len(rows) - 1


def positive_sizes(n):
    return st.lists(st.integers(1, 10**6), min_size=n, max_size=n)


@settings(max_examples=200, deadline=None)
@given(single_bit_graphs(), st.data())
def test_group_wiener_matches_weighted_reference_bfs(rows, data):
    assume(is_connected(rows))
    sizes = data.draw(positive_sizes(len(rows)))
    if len(rows) == 1:
        # One group without neighbours: its members are isolated vertices.
        assert group_outcome(sizes, rows, 0)[3] == sizes[0]
    else:
        wiener, diameter, excess, edges = reference_group_wiener(rows, sizes)
        assert group_outcome(sizes, rows, edges) == (wiener, diameter, excess, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 12), st.booleans(), st.data())
def test_group_wiener_on_paths_and_cycles(n, cycle, data):
    # Diameters up to 11, past the 3 that no ring's class graph exceeds.
    rows = [(1 << v >> 1 | 1 << v << 1) & (1 << n) - 1 for v in range(n)]
    if cycle:
        rows[0] |= 1 << n - 1
        rows[n - 1] |= 1
    sizes = data.draw(positive_sizes(n))
    wiener, diameter, excess, edges = reference_group_wiener(rows, sizes)
    got = group_outcome(sizes, rows, edges)
    assert got == (wiener, diameter, excess, 1)
    assert got[1] == (n // 2 if cycle else n - 1)


def assert_group_wiener_matches_table(spec):
    """`build_quotient_graph`'s edge count is the size-weighted count of the pairs at distance 1 in `quotient_distances`' table and of its rows, and on a connected class graph of two or more classes, `group_report` is the size-weighted sum over the table."""
    qg = build_quotient_graph(spec)
    table, connected = quotient_distances(qg)
    sizes = [c.size for c in qg.classes]
    pairs = list(itertools.combinations(range(len(sizes)), 2))
    edges = sum(sizes[i] * sizes[j] for i, j in pairs if table[i][j] == 1)
    assert qg.edge_count == row_edge_count(sizes, qg.rows) == edges, spec
    if connected and len(sizes) > 1:
        total = sum(sizes[i] * sizes[j] * table[i][j] for i, j in pairs) + 2 * sum(comb(s, 2) for s in sizes)
        excess = sum(sizes[i] * sizes[j] * (table[i][j] - 2) for i, j in pairs if table[i][j] >= 3)
        diameter = max(max(table[i][j] for i, j in pairs), 2 if max(sizes) > 1 else 0)
        assert group_outcome(sizes, qg.rows, qg.edge_count) == (total, diameter, excess, 1), spec


def test_group_wiener_matches_distance_table_zn():
    for n in range(2, 600):
        assert_group_wiener_matches_table(integers_mod(n))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 120), min_size=2, max_size=3))
def test_group_wiener_matches_distance_table_products(moduli):
    spec = product_of_integers_mod(moduli)
    assume(class_count(spec) <= 300)
    assert_group_wiener_matches_table(spec)


@pytest.mark.parametrize("spec", [integers_mod(3603600), product_of_integers_mod((8, 9, 16))], ids=str)
def test_rings_of_diameter_three_have_deep_classes(spec):
    # The lower class of a pair at distance 3 is deep.
    table, connected = quotient_distances(build_quotient_graph(spec))
    assert connected and max(map(max, table)) == 3
    assert_group_wiener_matches_table(spec)
