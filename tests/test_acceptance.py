"""Acceptance criteria, one test per criterion.

Criteria 6, 8 and 9, and the tie of each route's edge count to its rows,
share one sweep (`_sweep_specs`) over Z(n) for every
n <= 500, and over every product of 2 or 3 prime-power factors whose orders
multiply to at most 2000, once as ZxZ and once as F.  Other supported rings,
such as single fields, F(2,2,2,2), ZxZ(6,10) and Z(501) to Z(2000), are not
swept.  Each instance is solved by the element-level brute force, the
quotient route, and the family's closed form, and its class structure is
compared between the element-level and arithmetic constructions.  Timed
assertions use the stated budgets.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cache

import pytest

from conftest import (
    contains,
    divisors,
    naive_distances,
    naive_labels,
    outcome,
    prime_power_multisets,
    row_edge_count,
)
from cozero.cli import main as cli_main
from cozero.closedform import wiener_closed, wiener_prime_power_product, wiener_reduced, wiener_zn
from cozero.elementgraph import ElementGraph, build_graph, compute_wiener
from cozero.numtheory import factorize
from cozero.quotient import build_quotient_graph, wiener_quotient
from cozero.report import WienerReport
from cozero.ringspec import (
    RingSpec,
    crt_normalize,
    integers_mod,
    product_of_fields,
    product_of_integers_mod,
)

TABLE1 = {100: 2954, 500: 77174, 1000: 306202, 1500: 930248, 2000: 1222530, 2500: 1946274}
TABLE2 = {
    (9, 25): 800,
    (49, 81): 12416,
    (101, 121): 36180,
    (125, 139): 51270,
    (163, 169): 81354,
    (289, 343): 297774,
}
TABLE3 = {
    (7, 8, 13): 35196,
    (9, 25, 49): 2500400,
    (53, 64, 81): 108637254,
    (83, 101, 121): 620456582,
    (125, 131, 169): 2355211790,
    (289, 343, 361): 71251552134,
}
TABLE4_CONSISTENT = {
    (4, 9): 420,
    (9, 25): 8808,
    (16, 25): 48870,
    (27, 49): 268022,
    (2, 4, 4): 521,
    (5, 7, 11): 14948,
    (4, 9, 25): 327394,
    (2, 4, 9, 9): 232937,
    (3, 4, 8, 8): 333963,
}
# The published product table carries one internally inconsistent cell: the
# row printed as 8 x 9 x 16 with value 167769.  Three independent methods
# (and a fourth naive reimplementation in the test helpers) agree that the
# ring 8 x 9 x 16 has Wiener index 666221, while 167769 is exactly the
# triple-confirmed value of 4 x 9 x 16.  The row is therefore reproduced
# under its demonstrably corrected label, and the true value of the printed
# ring is pinned alongside it.
TABLE4_ERRATUM_PRINTED_RING = (8, 9, 16)
TABLE4_ERRATUM_PRINTED_VALUE = 167769
TABLE4_ERRATUM_TRUE_VALUE = 666221
TABLE4_ERRATUM_VALUE_SOURCE = (4, 9, 16)

SWEEP_ZN_MAX = 500
SWEEP_PRODUCT_MAX = 2000
PAIRWISE_CAP = 100  # full pairwise re-verification below this vertex count


@dataclass
class Instance:
    kind: str  # "zn" | "pp" | "fields"
    spec: RingSpec
    brute: WienerReport
    quotient: WienerReport
    closed: WienerReport
    crt: WienerReport | None
    partition_ok: bool
    adjacency_ok: bool
    edges_ok: bool
    pairwise_ok: bool | None


@dataclass
class Sweep:
    instances: list[Instance]
    compute_seconds: float


def _check_structure(spec: RingSpec, graph: ElementGraph) -> tuple[bool, bool, bool, bool | None]:
    qg = build_quotient_graph(spec)
    class_keys = [c.key for c in qg.classes]
    group_sizes = {k: len(m) for k, m in zip(graph.group_keys, graph.group_members)}
    partition_ok = (
        sorted(group_sizes) == sorted(class_keys)
        and all(group_sizes.get(c.key) == c.size for c in qg.classes)
        and graph.group_sizes == [len(m) for m in graph.group_members]
    )
    element_edges = {
        frozenset((graph.group_keys[g], graph.group_keys[h]))
        for g, row in enumerate(graph.group_rows)
        for h in range(len(graph.group_rows))
        if row >> h & 1
    }
    quotient_edges = {frozenset((class_keys[i], class_keys[j])) for i, j in qg.edges()}
    # Both routes build the class graph on their own; the group rows and
    # the class rows are the same list, in the same order.
    adjacency_ok = (
        element_edges == quotient_edges and graph.group_keys == class_keys and graph.group_rows == qg.rows
    )
    # Each route counts |E| from its own containment rule, not from its
    # rows; both counts must equal the one read off the rows.
    brute_edges_ok = graph.edge_count() == row_edge_count(graph.group_sizes, graph.group_rows)
    edges_ok = brute_edges_ok and qg.edge_count == row_edge_count(qg.sizes, qg.rows)

    pairwise_ok: bool | None = None
    if graph.vertex_count <= PAIRWISE_CAP:
        pairwise_ok = True
        verts, labels = naive_labels(spec)
        if verts != graph.vertices or labels != graph.labels:
            pairwise_ok = False
        else:
            group_of = graph.group_of
            # Labels repeat within a ring, so both expectations are worked
            # out once per label pair; every vertex pair is still checked.
            @cache
            def independent(a, b):
                return not contains(a, b) and not contains(b, a)

            @cache
            def joined_in_quotient(a, b):
                return a != b and frozenset((a, b)) in quotient_edges

            n = len(verts)
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = labels[i], labels[j]
                    raw = independent(a, b)
                    joined = joined_in_quotient(a, b)
                    adjacent = graph.group_rows[group_of[i]] >> group_of[j] & 1 == 1
                    if adjacent != raw or joined != raw:
                        pairwise_ok = False
                    if a == b and raw:
                        pairwise_ok = False
    return partition_ok, adjacency_ok, edges_ok, pairwise_ok


def _sweep_specs() -> list[tuple[str, RingSpec, object]]:
    out: list[tuple[str, RingSpec, object]] = []
    for n in range(2, SWEEP_ZN_MAX + 1):
        out.append(("zn", integers_mod(n), n))
    for k in (2, 3):
        for moduli in prime_power_multisets(k, SWEEP_PRODUCT_MAX):
            out.append(("pp", product_of_integers_mod(moduli), moduli))
    for k in (2, 3):
        for orders in prime_power_multisets(k, SWEEP_PRODUCT_MAX):
            out.append(("fields", product_of_fields(orders), orders))
    return out


@pytest.fixture(scope="module")
def sweep() -> Sweep:
    instances = []
    compute_seconds = 0.0
    for kind, spec, param in _sweep_specs():
        t0 = time.perf_counter()
        graph = build_graph(spec)
        brute = compute_wiener(graph)
        quot = wiener_quotient(spec)
        if kind == "zn":
            closed = wiener_zn(param)
            crt = wiener_quotient(crt_normalize(spec))
        elif kind == "pp":
            closed = wiener_prime_power_product(tuple(factorize(m)[0] for m in param))
            crt = None
        else:
            closed = wiener_reduced(param)
            crt = None
        compute_seconds += time.perf_counter() - t0
        partition_ok, adjacency_ok, edges_ok, pairwise_ok = _check_structure(spec, graph)
        instances.append(
            Instance(kind, spec, brute, quot, closed, crt, partition_ok, adjacency_ok, edges_ok, pairwise_ok)
        )
    return Sweep(instances, compute_seconds)


# --------------------------------------------------------------------------
# criteria


def test_criterion_01_table1_zn_rows(capsys):
    code = cli_main(["table", "zn", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert {int(k): int(v) for k, v in rows.items()} == TABLE1
    for n, expected in TABLE1.items():
        report = wiener_quotient(integers_mod(n))
        assert report.wiener == expected
        assert report.elapsed < 1.0
    for n in (100, 500):
        brute = compute_wiener(build_graph(integers_mod(n)))
        assert brute.wiener == TABLE1[n]


def test_criterion_02_table2_field_pairs():
    for orders, expected in TABLE2.items():
        assert wiener_reduced(orders).wiener == expected
    brute = compute_wiener(build_graph(product_of_fields((9, 25))))
    assert brute.wiener == 800


def test_criterion_03_table3_field_triples():
    t0 = time.perf_counter()
    for orders, expected in TABLE3.items():
        assert wiener_reduced(orders).wiener == expected
        assert wiener_quotient(product_of_fields(orders)).wiener == expected
    brute = compute_wiener(build_graph(product_of_fields((7, 8, 13))))
    assert brute.wiener == TABLE3[(7, 8, 13)]
    assert time.perf_counter() - t0 < 5.0


def _triple_confirmed(moduli) -> int:
    # Closed form, quotient, and brute force must all agree before any value
    # is treated as the Wiener index of a product ring.
    spec = product_of_integers_mod(moduli)
    assert spec.cardinality <= 100_000
    closed = wiener_prime_power_product(tuple(factorize(m)[0] for m in moduli))
    quot = wiener_quotient(spec)
    brute = compute_wiener(build_graph(spec))
    assert closed.wiener == quot.wiener == brute.wiener, moduli
    return brute.wiener


def test_criterion_04_table4_prime_power_products():
    """Nine of the ten published rows reproduce exactly; the tenth is an erratum.

    The printed row (8 x 9 x 16 -> 167769) is internally inconsistent: the
    ring's brute-confirmed Wiener index is 666221, and 167769 is exactly the
    brute-confirmed value of 4 x 9 x 16.  Both facts are asserted, so every
    published value is reproduced and brute-confirmed, one of them under its
    corrected ring label.
    """
    t0 = time.perf_counter()
    for moduli, expected in TABLE4_CONSISTENT.items():
        assert _triple_confirmed(moduli) == expected, moduli
    assert _triple_confirmed(TABLE4_ERRATUM_PRINTED_RING) == TABLE4_ERRATUM_TRUE_VALUE
    assert _triple_confirmed(TABLE4_ERRATUM_VALUE_SOURCE) == TABLE4_ERRATUM_PRINTED_VALUE
    assert time.perf_counter() - t0 < 60.0


def test_table4_erratum_ring_distance_three_pairs():
    # Every route reports the same 1304 vertex pairs at distance 3 on the
    # erratum ring, and the Wiener index they give with |E|.
    spec = product_of_integers_mod(TABLE4_ERRATUM_PRINTED_RING)
    reports = [compute_wiener(build_graph(spec)), wiener_quotient(spec), wiener_closed(spec)]
    assert [(r.excess, r.wiener, r.diameter) for r in reports] == [(1304, TABLE4_ERRATUM_TRUE_VALUE, 3)] * 3


def test_criterion_05_worked_product_example():
    spec = product_of_integers_mod((2, 4, 9))
    pps = ((2, 1), (2, 2), (3, 2))
    assert compute_wiener(build_graph(spec)).wiener == 2611
    assert wiener_quotient(spec).wiener == 2611
    assert wiener_prime_power_product(pps).wiener == 2611

    from cozero.closedform import classify_prime_power_distance

    assert classify_prime_power_distance((0, 0, 2), (1, 1, 2), pps) == 3
    assert classify_prime_power_distance((0, 2, 0), (1, 2, 1), pps) == 3

    graph = build_graph(spec)
    by_label: dict = {}
    for i, lab in enumerate(graph.labels):
        by_label.setdefault(lab, []).append(i)
    # (2,4,3) vs (1,1,3): zero-zero-zerodivisor against unit-unit-zerodivisor,
    # and (2,2,9) vs (1,2,1): the same pattern in the middle component.
    for a, b in (((2, 4, 3), (1, 1, 3)), ((2, 2, 9), (1, 2, 1))):
        dist = naive_distances(spec, by_label[a][0])
        assert all(dist[j] == 3 for j in by_label[b])


def test_criterion_06_oracle_equivalence_sweep(sweep):
    assert len(sweep.instances) > 4900
    for inst in sweep.instances:
        # Every outcome field, |E| and the component count included.
        assert outcome(inst.brute) == outcome(inst.quotient), inst.spec
        assert outcome(inst.brute) == outcome(inst.closed), inst.spec
        assert inst.brute.edge_count is not None, inst.spec
    assert sweep.compute_seconds < 120.0, f"sweep took {sweep.compute_seconds:.1f} s"


def test_product_edge_counts_match_the_rows(sweep):
    # `groupbfs.product_rows` gives |E| from each route's held weights, a
    # product over the components; the sweep ties it, for brute and for the
    # quotient, to the size-weighted edges of the rows each route built.
    for inst in sweep.instances:
        assert inst.edges_ok, inst.spec


def test_criterion_07_degenerate_rings(capsys):
    for p in (2, 3, 5, 7):
        for report in (
            compute_wiener(build_graph(integers_mod(p))),
            wiener_quotient(integers_mod(p)),
            wiener_zn(p),
        ):
            assert report.status == "empty_graph"
        assert cli_main(["wiener", f"Z({p})"]) == 0
    for report in (
        compute_wiener(build_graph(integers_mod(4))),
        wiener_quotient(integers_mod(4)),
        wiener_zn(4),
    ):
        assert report.status == "value" and report.wiener == 0
    assert cli_main(["wiener", "Z(4)"]) == 0
    for n in (8, 9, 27):
        for report in (
            compute_wiener(build_graph(integers_mod(n))),
            wiener_quotient(integers_mod(n)),
            wiener_zn(n),
        ):
            assert report.status == "disconnected"
        assert cli_main(["wiener", f"Z({n})"]) == 2
    capsys.readouterr()


def test_criterion_08_structural_properties(sweep):
    # Same-class non-adjacency and all-or-none cross-class adjacency hold by
    # the grouped representation; the partition and adjacency comparisons
    # check that representation against the arithmetic classes on every
    # instance, and the pairwise layer re-verifies the expansion edge by
    # edge (against raw mutual non-containment and against the generalized
    # join of the class graph) on every instance small enough to afford it.
    pairwise_checked = 0
    for inst in sweep.instances:
        assert inst.partition_ok, inst.spec
        assert inst.adjacency_ok, inst.spec
        if inst.pairwise_ok is not None:
            assert inst.pairwise_ok, inst.spec
            pairwise_checked += 1
    assert pairwise_checked > 1000
    for inst in sweep.instances:
        if inst.brute.status == "value" and inst.brute.diameter is not None:
            if inst.kind in ("pp", "zn"):
                assert inst.brute.diameter <= 3, inst.spec
            else:
                assert inst.brute.diameter <= 2, inst.spec


def test_criterion_09_crt_invariance(sweep):
    checked = 0
    for inst in sweep.instances:
        if inst.kind != "zn":
            continue
        assert inst.crt is not None
        n = inst.spec.components[0]
        if len(factorize(n)) >= 2:
            checked += 1
        assert outcome(inst.quotient) == outcome(inst.crt), inst.spec
    assert checked > 300
    assert wiener_quotient(integers_mod(36)).wiener == 420
    assert wiener_quotient(product_of_integers_mod((4, 9))).wiener == 420


def test_criterion_10_performance_bounds():
    quickest = min(wiener_quotient(integers_mod(2500)).elapsed for _ in range(3))
    assert quickest < 0.050, f"quotient on Z(2500) took {quickest * 1000:.1f} ms"

    n = 59 * 61 * 67 * 71 * 73  # about 1.25e9, 32 divisors
    assert len(divisors(n)) <= 100
    closed = wiener_zn(n)
    assert closed.elapsed < 1.0, f"closed form took {closed.elapsed:.2f} s"
    quot = wiener_quotient(integers_mod(n))
    assert closed.status == quot.status == "value"
    assert closed.wiener == quot.wiener
