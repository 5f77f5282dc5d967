import importlib
from pathlib import Path

from cozero.elementgraph import build_graph
from cozero.quotient import build_quotient_graph
from cozero.ringspec import integers_mod

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist(monkeypatch):
    # The traced benchmark run rebinds these names; a rename here would
    # break it without failing any other test.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for module, fns in workloads.TRACED.items():
        mod = importlib.import_module(f"cozero.{module}")
        for fn, _ in fns:
            assert callable(getattr(mod, fn, None)), f"cozero.{module}.{fn}"


def test_observed_attributes_exist(monkeypatch):
    # The traced run's observers read class_count and adjacency (neighbour
    # lists decoded from the rows) of a QuotientGraph, and spec, group_keys,
    # vertex_count and edge_count() (the count that product_rows gave with
    # the rows) of an ElementGraph.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    spec = integers_mod(12)
    qg = build_quotient_graph(spec)
    assert qg.adjacency == [[1], [0, 2], [1, 3], [2]]
    tr = spans.Tracer()
    workloads.observe_quotient_graph(tr, qg)
    workloads.observe_graph(tr, build_graph(spec))
    assert tr.counts == {
        "quotient.classes": 4,
        "quotient.class_pairs": 6,
        "quotient.class_edges": 3,
        "elementgraph.elements": 12,
        "elementgraph.vertices": 7,
        "elementgraph.groups": 4,
        "elementgraph.edges": 10,
    }
