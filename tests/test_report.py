import pytest

from cozero.report import OUTCOME_FIELDS, WienerReport


def test_outcome_fields_are_every_field_but_method_and_elapsed():
    assert OUTCOME_FIELDS == (
        "status",
        "vertex_count",
        "class_count",
        "component_count",
        "wiener",
        "edge_count",
        "diameter",
    )


def report(edge_count):
    # Z(12): 7 vertices, 10 edges, Wiener index 34.
    return WienerReport("value", "test", 7, 4, 1, wiener=34, edge_count=edge_count, diameter=3)


@pytest.mark.parametrize("edges", [0, 10, 21])
def test_edge_count_within_bounds(edges):
    assert report(edges).edge_count == edges


@pytest.mark.parametrize("edges", [-1, 22])
def test_edge_count_outside_bounds_is_rejected(edges):
    # 22 is C(7, 2) + 1: more edges than vertex pairs.
    with pytest.raises(ValueError, match="edge count"):
        report(edges)
