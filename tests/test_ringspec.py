import pytest

from cozero.elementgraph import build_graph
from cozero.ringspec import (
    FAMILY_FIELDS,
    FAMILY_PRODUCT,
    FAMILY_Z,
    RingSpec,
    chain_sizes,
    crt_normalize,
    integers_mod,
    parse_ring_spec,
    product_of_fields,
    product_of_integers_mod,
)


def test_parse_basic_forms():
    assert parse_ring_spec("Z(72)") == RingSpec(FAMILY_Z, (72,))
    assert parse_ring_spec("ZxZ(2,4,9)") == RingSpec(FAMILY_PRODUCT, (2, 4, 9))
    assert parse_ring_spec("F(9,25)") == RingSpec(FAMILY_FIELDS, (9, 25))


def test_parse_ignores_whitespace_and_case():
    assert parse_ring_spec("  Z x Z ( 2 , 4 , 9 ) ") == RingSpec(FAMILY_PRODUCT, (2, 4, 9))
    assert parse_ring_spec("z(10)") == RingSpec(FAMILY_Z, (10,))
    assert parse_ring_spec("f( 4 )") == RingSpec(FAMILY_FIELDS, (4,))


def test_parse_roundtrips_through_str():
    for text in ("Z(72)", "ZxZ(2,4,9)", "F(9,25)", "ZxZ(8)", "F(2)"):
        assert str(parse_ring_spec(text)) == text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("F(6,25)", "6 is not a prime power"),
        ("F(12)", "12 is not a prime power"),
        ("Q(5)", "malformed"),
        ("Z()", "no parameters"),
        ("Z(abc)", "'abc'"),
        ("Z(4,6)", "exactly one modulus"),
        ("Z(1)", ">= 2"),
        ("ZxZ(2,1)", ">= 2"),
        ("", "empty"),
        ("Z(2,)", "''"),
    ],
)
def test_parse_errors_name_the_offender(text, fragment):
    with pytest.raises(ValueError) as exc_info:
        parse_ring_spec(text)
    assert fragment in str(exc_info.value)


def test_spec_needs_a_known_family_and_a_component():
    with pytest.raises(ValueError, match="unknown ring family 'Q'"):
        RingSpec("Q", (5,))
    with pytest.raises(ValueError, match="at least one component"):
        RingSpec(FAMILY_PRODUCT, ())


def test_cardinality():
    assert integers_mod(72).cardinality == 72
    assert product_of_integers_mod((2, 4, 9)).cardinality == 72
    assert product_of_fields((9, 25)).cardinality == 225


def test_crt_normalize_examples():
    assert crt_normalize(integers_mod(36)) == product_of_integers_mod((4, 9))
    assert crt_normalize(integers_mod(8)) == product_of_integers_mod((8,))
    assert crt_normalize(integers_mod(2500)) == product_of_integers_mod((4, 625))


def test_crt_normalize_rejects_products():
    with pytest.raises(ValueError):
        crt_normalize(product_of_integers_mod((4, 9)))


def test_crt_normalize_preserves_cardinality():
    for n in range(2, 300):
        assert crt_normalize(integers_mod(n)).cardinality == n


def test_chains():
    assert integers_mod(72).chains(0) == ((2, 3), (3, 2))
    spec = product_of_integers_mod((6, 10))
    assert (spec.chains(0), spec.chains(1)) == (((2, 1), (3, 1)), ((2, 1), (5, 1)))
    assert product_of_fields((9,)).chains(0) == ((9, 1),)


def test_local_factors():
    assert integers_mod(72).local_factors() == [(2, 3), (3, 2)]
    assert product_of_integers_mod((6, 10)).local_factors() == [(2, 1), (3, 1), (2, 1), (5, 1)]
    assert product_of_fields((9, 4, 9)).local_factors() == [(9, 1), (4, 1), (9, 1)]


def test_chain_sizes():
    assert chain_sizes(2, 3) == [4, 2, 1, 1]
    assert chain_sizes(9, 1) == [8, 1]
    for q, a in ((2, 1), (3, 4), (5, 2), (8, 1)):
        assert sum(chain_sizes(q, a)) == q**a


def test_vertex_label_count_is_tau_minus_2():
    # Labels read off the actual elements: every divisor but n (zero) and 1 (units).
    for n in range(2, 80):
        assert len(build_graph(integers_mod(n)).group_keys) == sum(n % d == 0 for d in range(1, n + 1)) - 2
