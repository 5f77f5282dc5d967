import dataclasses

import pytest

from cozero.closedform import wiener_closed
from cozero.report import OUTCOME_FIELDS, WienerReport
from cozero.ringspec import integers_mod


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


def test_component_count_contradicting_the_status_is_rejected():
    # Z(36) is connected, so its status "value" needs one component.
    with pytest.raises(ValueError, match="contradicts"):
        dataclasses.replace(wiener_closed(integers_mod(36)), component_count=2)
