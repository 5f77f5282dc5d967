import cozero

PUBLIC = {
    "wiener_brute",
    "wiener_quotient",
    "wiener_closed",
    "parse_ring_spec",
    "RingSpec",
    "integers_mod",
    "product_of_integers_mod",
    "product_of_fields",
    "WienerReport",
    "STATUS_VALUE",
    "STATUS_EMPTY",
    "STATUS_DISCONNECTED",
    "BruteForceLimitError",
    "FactorizationError",
}


def test_public_surface_is_the_routes_specs_report_and_errors():
    assert len(cozero.__all__) == len(PUBLIC)
    assert set(cozero.__all__) == PUBLIC
    for name in cozero.__all__:
        assert getattr(cozero, name) is not None, name

