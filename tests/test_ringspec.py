import pytest

from cozero.elementgraph import build_graph
from cozero.ringspec import (
    FAMILY_FIELDS,
    FAMILY_PRODUCT,
    FAMILY_Z,
    MAX_DIGITS,
    RingSpec,
    chain_sizes,
    crt_normalize,
    integers_mod,
    parse_integer,
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
        # Past 40 digits the number is cut to its ends and its length.
        (f"F({3 * 2**200})", "482081...904128 (61 digits) is not a prime power"),
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


@pytest.mark.parametrize(
    "token,value",
    [("12", 12), ("007", 7), ("٣٦", 36), ("-5", None), ("+5", None), ("1_000", None), (" 12", None), ("", None), ("1.5", None)],
)
def test_parse_integer_reads_decimal_digits_only(token, value):
    # A value of None marks a token that is refused, with the one wording that names what was read.
    if value is not None:
        assert parse_integer(token, "zn") == value
        return
    with pytest.raises(ValueError) as exc_info:
        parse_integer(token, "zn")
    assert str(exc_info.value) == f"zn: expected 1 to 4300 decimal digits, got {token!r}"


def test_parse_integer_refuses_a_number_past_the_digit_limit_by_its_length():
    assert parse_integer("9" * MAX_DIGITS, "ring spec") == 10**MAX_DIGITS - 1
    with pytest.raises(ValueError) as exc_info:
        parse_integer("123456" + "0" * 4289 + "456789", "ring spec")
    assert str(exc_info.value) == "ring spec: expected 1 to 4300 decimal digits, got '123456...456789 (4301 digits)'"


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
