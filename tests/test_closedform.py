import itertools
import time
from math import comb

import pytest
from conftest import outcome
from hypothesis import given, settings
from hypothesis import strategies as st

from cozero.closedform import (
    classify_divisor_pairs,
    classify_prime_power_distance,
    wiener_closed,
    wiener_prime_power_product,
    wiener_reduced,
    wiener_zn,
)
from cozero.elementgraph import wiener_brute
from cozero.numtheory import factorize
from cozero.quotient import build_quotient_graph, quotient_distances, wiener_quotient
from cozero.ringspec import integers_mod, parse_ring_spec, product_of_fields, product_of_integers_mod


def poly_two_fields(p: int, q: int) -> int:
    # Wiener index of the two-prime-field product, expanded by hand.
    return p * p + q * q - 4 * p - 4 * q + p * q + 5


def poly_fields_of_two(k: int) -> int:
    # Wiener index of F(2, ..., 2) with k factors: N = 2**k - 2 vertices,
    # every nested support pair at distance 2.
    n = 2**k - 2
    return comb(n, 2) + 3**k - 3 * 2**k + 3


def poly_three_fields(p: int, q: int, r: int) -> int:
    return (
        p * q * r * (p + q + r - 3)
        + p * p * q * q
        + p * p * r * r
        + q * q * r * r
        - p * p * (q + r)
        - q * q * (p + r)
        - r * r * (p + q)
        - 2 * (p * q + p * r + q * r)
        + 4 * (p + q + r)
        - 3
    )


# --------------------------------------------------------------------------
# reduced rings


@pytest.mark.parametrize(
    "orders,expected",
    [
        ((9, 25), 800),
        ((49, 81), 12416),
        ((289, 343), 297774),
        ((7, 8, 13), 35196),
        ((289, 343, 361), 71251552134),
        ((3, 5), 22),
    ],
)
def test_wiener_reduced_reference_values(orders, expected):
    report = wiener_reduced(orders)
    assert report.status == "value"
    assert report.wiener == expected


def test_wiener_reduced_matches_polynomials():
    for p, q in ((2, 3), (3, 5), (5, 7), (11, 13), (7, 23)):
        assert wiener_reduced((p, q)).wiener == poly_two_fields(p, q)
    for p, q, r in ((2, 3, 5), (3, 5, 7), (2, 3, 7), (5, 7, 11)):
        assert wiener_reduced((p, q, r)).wiener == poly_three_fields(p, q, r)
    for k in range(2, 12):
        assert wiener_reduced((2,) * k).wiener == poly_fields_of_two(k)


def test_wiener_reduced_twenty_two_fields_of_two_is_fast():
    # 2**22 - 2 classes: any per-class or per-pair loop would take minutes.
    start = time.perf_counter()
    report = wiener_reduced((2,) * 22)
    elapsed = time.perf_counter() - start
    assert report.wiener == poly_fields_of_two(22) == 8827451013151
    assert report.class_count == 2**22 - 2 and report.diameter == 2
    assert elapsed < 1.0


def test_wiener_reduced_eleven_fields_is_fast():
    start = time.perf_counter()
    report = wiener_reduced((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17))
    elapsed = time.perf_counter() - start
    assert report.wiener == 2817402440312668111
    assert report.class_count == 2046 and report.diameter == 2
    assert elapsed < 1.0


def test_wiener_reduced_rejects_single_field_and_non_prime_power():
    with pytest.raises(ValueError, match="quotient"):
        wiener_reduced((9,))
    with pytest.raises(ValueError, match="prime power"):
        wiener_reduced((6, 25))


def test_wiener_reduced_permutation_invariant():
    base = wiener_reduced((3, 4, 25)).wiener
    for perm in itertools.permutations((3, 4, 25)):
        assert wiener_reduced(perm).wiener == base


# --------------------------------------------------------------------------
# Z(n)


@pytest.mark.parametrize("n,expected", [(100, 2954), (12, 34), (1000, 306202), (1500, 930248)])
def test_wiener_zn_reference_values(n, expected):
    report = wiener_zn(n)
    assert report.status == "value"
    assert report.wiener == expected


def test_wiener_zn_chain_pairs_for_12():
    pairs = classify_divisor_pairs(12)
    assert pairs.distance_three_chain == ((2, 6),)
    assert set(pairs.incomparable) == {(2, 3), (3, 4), (4, 6)}
    assert (2, 4) in pairs.distance_two_cross_prime
    assert (3, 6) in pairs.distance_two_cross_prime


def test_divisor_pair_sets_partition_comparable_pairs():
    for n in (12, 24, 60, 100, 360, 720):
        pairs = classify_divisor_pairs(n)
        buckets = (
            pairs.incomparable
            + pairs.distance_two_composite
            + pairs.distance_two_cross_prime
            + pairs.distance_three_chain
        )
        from cozero.numtheory import proper_divisors

        ds = proper_divisors(n)
        assert len(buckets) == len(ds) * (len(ds) - 1) // 2
        assert len(set(map(frozenset, buckets))) == len(buckets)


def test_squarefree_has_no_chain_pairs():
    for n in range(2, 500):
        fac = factorize(n)
        if len(fac) >= 2 and all(e == 1 for _, e in fac):
            assert classify_divisor_pairs(n).distance_three_chain == ()


def test_wiener_zn_degenerates():
    for p in (2, 3, 5, 7, 97):
        assert wiener_zn(p).status == "empty_graph"
    z4 = wiener_zn(4)
    assert z4.status == "value" and z4.wiener == 0
    for n in (8, 9, 25, 27, 128):
        assert wiener_zn(n).status == "disconnected"


def test_wiener_zn_agrees_with_quotient_and_brute():
    for n in range(2, 200):
        closed = outcome(wiener_zn(n))
        assert closed == outcome(wiener_quotient(integers_mod(n))), n
        assert closed == outcome(wiener_brute(integers_mod(n))), n


def test_wiener_zn_many_classes_is_fast():
    # 6718 classes; the value was pinned from the pairwise divisor form.
    start = time.perf_counter()
    report = wiener_zn(963761198400)
    elapsed = time.perf_counter() - start
    assert report.wiener == 413966247180657242451350
    assert report.vertex_count == 806101243199
    assert report.class_count == 6718 and report.diameter == 3
    assert elapsed < 1.0


def test_wiener_closed_two_ten_digit_primes_is_fast():
    # Z(pq) is the complete bipartite K_{q-1,p-1} plus distance 2 inside each
    # side; trial division up to p ~ 1e9 used to take minutes.
    p, q = 1000000007, 1000000009
    assert p * q == 1000000016000000063
    start = time.perf_counter()
    report = wiener_closed(parse_ring_spec("Z(1000000016000000063)"))
    elapsed = time.perf_counter() - start
    assert report.wiener == (p - 1) * (q - 1) + (p - 1) * (p - 2) + (q - 1) * (q - 2)
    assert report.wiener == 3000000040000000134
    assert report.class_count == 2 and report.diameter == 2
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# prime-power products


PPS_249 = ((2, 1), (2, 2), (3, 2))


def test_classify_distance_worked_examples():
    assert classify_prime_power_distance((0, 0, 2), (1, 1, 2), PPS_249) == 3
    assert classify_prime_power_distance((0, 2, 0), (1, 2, 1), PPS_249) == 3
    assert classify_prime_power_distance((0, 0, 1), (0, 0, 2), PPS_249) == 2
    assert classify_prime_power_distance((0, 1), (1, 0), ((2, 1), (2, 1))) == 1


def test_classify_distance_symmetric():
    levels = [
        lv
        for lv in itertools.product(range(2), range(3), range(3))
        if lv != (0, 0, 0) and lv != (1, 1, 1)
    ]
    for a, b in itertools.combinations(levels, 2):
        assert classify_prime_power_distance(a, b, PPS_249) == classify_prime_power_distance(b, a, PPS_249)


def test_classify_distance_validates_inputs():
    with pytest.raises(ValueError):
        classify_prime_power_distance((0, 1), (0, 1), ((2, 1), (2, 1)))  # identical
    with pytest.raises(ValueError):
        classify_prime_power_distance((0, 0), (1, 0), ((2, 1), (2, 1)))  # zero class
    with pytest.raises(ValueError):
        classify_prime_power_distance((1, 1), (1, 0), ((2, 1), (2, 1)))  # unit class
    with pytest.raises(ValueError):
        classify_prime_power_distance((0, 5), (1, 0), ((2, 1), (2, 2)))  # level range
    with pytest.raises(ValueError):
        classify_prime_power_distance((2,), (1,), ((4, 1),))  # k < 2 and 4 not prime


def test_classify_matches_quotient_bfs():
    # Every class pair of a set of small products, against the general BFS.
    products = [(2, 4), (4, 4), (8, 9), (2, 4, 9), (4, 27), (2, 2, 2), (9, 25), (2, 8, 9)]
    for moduli in products:
        pps = tuple(factorize(m)[0] for m in moduli)
        spec = product_of_integers_mod(moduli)
        qg = build_quotient_graph(spec)
        table, connected = quotient_distances(qg)
        assert connected
        # The moduli are prime powers, so each one is a single chain of
        # `local_factors`: a level j is ideal exponent m at 0, 0 at 1, else j - 1.
        index_of = {c.exponents: i for i, c in enumerate(qg.classes)}

        def index(lv):
            return index_of[tuple(m if j == 0 else 0 if j == 1 else j - 1 for j, (_, m) in zip(lv, pps))]

        levels = [
            lv
            for lv in itertools.product(*(range(m + 1) for _, m in pps))
            if set(lv) != {0} and set(lv) != {1}
        ]
        assert sorted(map(index, levels)) == list(range(qg.class_count))  # one level tuple per class
        for a, b in itertools.combinations(levels, 2):
            expected = table[index(a)][index(b)]
            assert classify_prime_power_distance(a, b, pps) == expected, (moduli, a, b)


@pytest.mark.parametrize(
    "pps,expected",
    [
        (((2, 1), (2, 2), (3, 2)), 2611),
        (((2, 2), (3, 2)), 420),
        (((3, 1), (2, 2), (2, 3), (2, 3)), 333963),
        (((2, 1), (2, 2), (3, 2), (3, 2)), 232937),
    ],
)
def test_wiener_prime_power_product_reference_values(pps, expected):
    report = wiener_prime_power_product(pps)
    assert report.status == "value"
    assert report.wiener == expected


def test_wiener_prime_power_product_rejects_bad_input():
    with pytest.raises(ValueError):
        wiener_prime_power_product([(2, 2)])
    with pytest.raises(ValueError):
        wiener_prime_power_product([(4, 1), (3, 1)])


@given(st.permutations([(2, 1), (2, 2), (3, 2), (5, 1)]))
@settings(max_examples=24, deadline=None)
def test_wiener_prime_power_product_permutation_invariant(perm):
    assert wiener_prime_power_product(perm).wiener == wiener_prime_power_product([(2, 1), (2, 2), (3, 2), (5, 1)]).wiener


# --------------------------------------------------------------------------
# dispatch


def test_wiener_closed_dispatch():
    assert wiener_closed(integers_mod(100)).wiener == 2954
    assert wiener_closed(product_of_integers_mod((2, 4, 9))).wiener == 2611
    assert wiener_closed(product_of_fields((9, 25))).wiener == 800
    assert wiener_closed(product_of_fields((9,))).status == "empty_graph"
    assert wiener_closed(product_of_integers_mod((8,))).status == "disconnected"
    assert wiener_closed(product_of_integers_mod((4,))).wiener == 0


def test_wiener_closed_splits_composite_moduli():
    # ZxZ(6,10) is isomorphic to the product of its prime-power factors.
    spec = product_of_integers_mod((6, 10))
    closed = outcome(wiener_closed(spec))
    assert closed == outcome(wiener_brute(spec))
    assert closed == outcome(wiener_quotient(spec))
