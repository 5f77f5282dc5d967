"""Metric arithmetic: span self time, the reportable tail, peak RSS units."""

import pytest

import stats
from spans import Span, Tracer, patched, self_seconds_by, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span("cli.main", 0, 100, None, 0),
        Span("ringspec.parse_ring_spec", 10, 40, 0, 0),
        Span("numtheory.factorize", 15, 25, 1, 0),
        Span("closedform.wiener_closed", 50, 90, 0, 0),
    ]
    # main loses both children (30 + 40); parse loses only its own child.
    assert self_times(spans) == [30, 20, 10, 40]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a.x", 0, 100, None, None), Span("b.y", 10, 60, 0, None), Span("b.z", 40, 70, 0, None)]
    assert self_times(spans)[0] == 100 - 60


def test_tracer_nests_spans_and_sums_self_time_by_layer():
    tr = Tracer()
    tr.ring = 3
    with tr.span("quotient.wiener_quotient"):
        tr.call("quotient.quotient_distances", sum, [1, 2])
        tr.call("quotient.build_quotient_graph", len, "ab", observe=lambda t, r: t.count("quotient.classes", r))
    assert [s.name for s in tr.spans][-1] == "trace.observe"
    assert [s.parent for s in tr.spans] == [None, 0, 0, 0]
    assert {s.ring for s in tr.spans} == {3}
    assert tr.counts == {"quotient.classes": 2}
    by_layer = self_seconds_by(tr.spans, key=lambda s: s.layer)
    total = (tr.spans[0].end - tr.spans[0].start) / 1e9
    assert by_layer["quotient"] + by_layer.get("trace", 0.0) == pytest.approx(total, abs=1e-9)


def test_paused_tracer_records_nothing():
    tr = Tracer()
    with tr.paused():
        assert tr.call("closedform.wiener_closed", max, 1, 2) == 2
    assert tr.spans == [] and tr.active


def test_patched_restores_module_names():
    class Module:
        f = staticmethod(len)

    with patched(Module, {"f": abs}):
        assert Module.f is abs
    assert Module.f is len


@pytest.mark.parametrize(
    "n, tail",
    [(19, None), (20, 50.0), (99, 90.0), (100, 90.0), (900, 90.0), (1000, 99.0), (9000, 99.0), (10000, 99.9)],
)
def test_highest_tail_keeps_ten_samples_beyond(n, tail):
    assert stats.highest_tail(n) == tail
    if tail is not None:
        assert stats.samples_beyond(n, tail) >= stats.TAIL_MIN


def test_p90_of_100_samples_has_ten_beyond():
    values = list(range(1, 101))
    p90 = stats.percentile(values, 90)
    assert sum(v > p90 for v in values) == stats.samples_beyond(100, 90) == 10


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.median([5]) == 5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_maxrss_is_kilobytes_on_linux_and_bytes_on_macos():
    assert stats.maxrss_to_mb(51200, "linux") == 50.0
    assert stats.maxrss_to_mb(50 * 1024 * 1024, "darwin") == 50.0
    assert stats.peak_rss_mb() > 1.0
