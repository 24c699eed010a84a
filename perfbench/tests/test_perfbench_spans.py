"""The span recorder, the self-time arithmetic and wrapper installation."""

import pytest

from perfbench.layers import PER_LAYER, TARGETS, per_layer_metrics
from perfbench.spans import (
    SpanRecorder,
    Target,
    _patch_sites,
    installed,
    layer_table,
    self_times,
)


def _sites():
    """Every (namespace, attribute, object) the layer wrappers replace."""
    return [site for target in TARGETS for site in _patch_sites(target)]


def _current(site):
    namespace, attr, _ = site
    return vars(namespace)[attr]


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]
    assert sum(self_times(starts, ends, parents)) == 10.0


def test_overlapping_children_are_not_counted_twice():
    # children [1, 5] and [3, 6] cover [1, 6]; a child poking past the
    # parent's end is clipped to it
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_recorder_table_sums_to_the_root():
    # begin/end read the clock once each, in this order
    rec = SpanRecorder("w", clock=_fake_clock(
        [0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]))
    with rec.root("w.step"):            # 0 .. 10
        a = rec.begin("f")              # 1
        b = rec.begin("f")              # 2, re-entrant call of f
        rec.end(b)                      # 3
        rec.end(a)                      # 5
        c = rec.begin("g")              # 6
        rec.end(c)                      # 7
        d = rec.begin("g")              # 8
        rec.end(d)                      # 9
    table = layer_table(rec)
    # the re-entrant f counts once in busy_s, and its self time is split
    assert table["f"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}
    assert table["g"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}
    assert table["w.step"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_spans_outside_a_root_are_not_recorded():
    from repro.storage import compression

    rec = SpanRecorder("w")
    target = Target("storage", "repro.storage.compression", "deflate")
    with installed([target], rec):
        blob = compression.deflate(b"abc")
        assert rec.names == []
        with rec.root("w.step"):
            assert compression.deflate(b"abc") == blob
    assert rec.names == ["w.step", "storage.deflate"]
    assert rec.parents == [-1, 0]


def test_installed_restores_every_original_object():
    before = _sites()
    assert len(before) > len(TARGETS)  # module functions have import sites
    with installed(TARGETS, SpanRecorder("w")):
        assert all(_current(site) is not site[2] for site in before)
    assert all(_current(site) is site[2] for site in before)


def test_installed_restores_after_an_error():
    before = _sites()
    with pytest.raises(RuntimeError):
        with installed(TARGETS, SpanRecorder("w")):
            raise RuntimeError("boom")
    assert all(_current(site) is site[2] for site in before)


def test_per_layer_metrics_cover_the_declared_list():
    rec = SpanRecorder("w")
    with rec.root("w.step"):
        pass
    metrics = per_layer_metrics(layer_table(rec), {},
                                {"trace_overhead_share": 0.1}, "w.step")
    assert list(metrics) == list(PER_LAYER)
    assert metrics["trace_overhead_share"] == 0.1
