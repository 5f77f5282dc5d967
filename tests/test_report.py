import dataclasses
import time

import pytest
from conftest import naive_reference

from cozero.closedform import wiener_closed
from cozero.groupbfs import group_report
from cozero.report import OUTCOME_FIELDS, WienerReport, make_report
from cozero.ringspec import integers_mod, parse_ring_spec


def test_outcome_fields_are_every_field_but_method_and_elapsed():
    assert OUTCOME_FIELDS == (
        "status",
        "vertex_count",
        "class_count",
        "component_count",
        "wiener",
        "edge_count",
        "diameter",
        "excess",
    )


def report(edge_count):
    # Z(12): 7 vertices, 10 edges, Wiener index 34, two pairs at distance 3.
    return WienerReport("value", "test", 7, 4, 1, wiener=34, edge_count=edge_count, diameter=3, excess=2)


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


@pytest.mark.parametrize(
    "status, vertices, wiener, diameter, excess, message",
    [
        pytest.param("finite", 7, 34, 3, 2, "unknown status 'finite'", id="unknown_status"),
        pytest.param("value", 7, -1, 3, 2, "cannot be negative", id="negative_wiener"),
        pytest.param("value", 1, 5, None, 0, "single-vertex graph has Wiener index 0", id="single_vertex_wiener"),
    ],
)
def test_impossible_report_is_rejected(status, vertices, wiener, diameter, excess, message):
    with pytest.raises(ValueError, match=message):
        WienerReport(status, "test", vertices, 4, 1, wiener=wiener, edge_count=0, diameter=diameter, excess=excess)


def test_connected_report_without_diameter_is_rejected():
    # Z(12) is connected with 7 vertices, so it has a diameter.
    with pytest.raises(ValueError, match="diameter"):
        dataclasses.replace(report(10), diameter=None)


def test_connected_report_without_excess_is_rejected():
    with pytest.raises(ValueError, match="excess"):
        dataclasses.replace(report(10), excess=None)


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
    # Each route passes what its sum gives, here Z(12)'s two pairs at
    # distance 3 on two or more vertices; the constructor drops the value
    # and the excess of a graph that is not connected and the diameter of
    # one below 2 vertices.
    excess = 2 if vertices > 1 else 0
    made = make_report("test", vertices, 4, components, edges, excess, 3, time.perf_counter())
    assert (made.status, made.wiener, made.diameter) == (status, wiener, diameter)
    assert made.excess == (None if wiener is None else excess)
    assert (made.method, made.vertex_count, made.class_count) == ("test", vertices, 4)
    assert (made.component_count, made.edge_count) == (components, edges)
    assert made.elapsed >= 0


@pytest.mark.parametrize(
    "ring, classes, wiener, diameter",
    # F(2,2) is one edge, a complete graph; F(3,5,7) has non-adjacent pairs
    # but none at distance 3.
    [("F(2,2)", 2, 1, 1), ("F(3,5,7)", 6, 2316, 2)],
)
def test_make_report_without_distance_three(ring, classes, wiener, diameter):
    expected = naive_reference(parse_ring_spec(ring))
    made = make_report("test", expected["vertices"], classes, 1, expected["edges"], 0, 0, time.perf_counter())
    assert (made.wiener, made.diameter, made.excess) == (expected["wiener"], expected["diameter"], 0)
    assert (made.wiener, made.diameter) == (wiener, diameter)


def test_group_report_on_a_path():
    # Five single-vertex groups in a path: 4, 3, 2 and 1 pairs at distances
    # 1 to 4, so W = 4 + 6 + 6 + 4 and the excess is 2 * 1 + 1 * 2.
    rows = [0b00010, 0b00101, 0b01010, 0b10100, 0b01000]
    made = group_report("test", [1] * 5, rows, time.perf_counter())
    assert (made.wiener, made.excess, made.diameter, made.edge_count) == (20, 4, 4, 4)
