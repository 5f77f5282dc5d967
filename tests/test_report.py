import dataclasses
import time

import pytest

from cozero.closedform import wiener_closed
from cozero.report import OUTCOME_FIELDS, WienerReport, make_report
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


def test_connected_report_without_diameter_is_rejected():
    # Z(12) is connected with 7 vertices, so it has a diameter.
    with pytest.raises(ValueError, match="diameter"):
        dataclasses.replace(report(10), diameter=None)


@pytest.mark.parametrize(
    "vertices, components, edges, status, wiener, diameter",
    [
        (0, 0, 0, "empty_graph", None, None),
        (1, 1, 0, "value", 0, None),
        (5, 5, 0, "disconnected", None, None),
        (7, 1, 10, "value", 34, 3),
    ],
)
def test_make_report_keeps_the_fields_its_status_allows(vertices, components, edges, status, wiener, diameter):
    # Each route passes what its sum gives; the constructor drops the value
    # of a graph that is not connected and the diameter of one below 2 vertices.
    made = make_report("test", vertices, 4, components, 34 if vertices > 1 else 0, edges, 3, time.perf_counter())
    assert (made.status, made.wiener, made.diameter) == (status, wiener, diameter)
    assert (made.method, made.vertex_count, made.class_count) == ("test", vertices, 4)
    assert (made.component_count, made.edge_count) == (components, edges)
    assert made.elapsed >= 0
