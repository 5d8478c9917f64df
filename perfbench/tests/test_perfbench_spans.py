"""Span recording, self-time arithmetic and wrapper restoration."""

import pytest

from perfbench.layers import WRAPS, span_metrics
from perfbench.spans import Span, SpanRecorder, children_of, covered, patched, resolve, self_time


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("child", 1.0, 4.0, 0),
        Span("child", 3.0, 6.0, 0),  # overlaps the first child on [3, 4]
        Span("child", 8.0, 9.0, 0),
        Span("grandchild", 1.5, 2.0, 1),  # not a direct child: ignored
    ]
    assert self_time(spans, 0, children_of(spans)) == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time(spans, 1, children_of(spans)) == pytest.approx(2.5)


def test_covered_clips_children_to_the_parent():
    assert covered(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == pytest.approx(2.0)
    assert covered(2.0, 5.0, [(0.0, 1.0), (6.0, 7.0)]) == 0.0
    assert covered(0.0, 4.0, [(1.0, 2.0), (1.5, 3.0), (1.2, 1.4)]) == pytest.approx(2.0)


def test_recorder_nests_spans_and_skips_paused_work():
    recorder = SpanRecorder()

    def inner(value):
        return value + 1

    wrapped_inner = recorder.wrap("inner", inner)

    def outer(value):
        with recorder.paused():
            wrapped_inner(0)
        return wrapped_inner(value) * 2

    assert recorder.wrap("outer", outer)(1) == 4
    names = [(span.name, span.parent) for span in recorder.spans]
    assert names == [("outer", None), ("inner", 0)]
    assert all(span.end >= span.start for span in recorder.spans)


def test_generator_wrapper_times_each_item_not_the_consumer():
    recorder = SpanRecorder()

    def numbers():
        yield from range(3)

    assert list(recorder.wrap("gen", numbers)()) == [0, 1, 2]
    # Three items plus the final next() that raises StopIteration.
    assert [span.name for span in recorder.spans] == ["gen"] * 4


def test_nested_same_name_spans_count_once_and_self_time_is_reported():
    spans = [
        Span("coordinator.ingest", 0.0, 4.0, None),
        Span("sketches.hash", 1.0, 3.0, 0, 0, 0),
        Span("sketches.hash", 1.5, 2.5, 1, 7, 0),
    ]
    metrics = span_metrics(spans)
    assert metrics["coordinator.ingest_s"] == pytest.approx(4.0)
    assert metrics["coordinator.ingest_self_s"] == pytest.approx(2.0)
    # Hashing outside estimator.observe_rows (the ingest path) is not counted.
    assert metrics["sketches.hash_s"] == 0.0
    assert metrics["sketches.patterns_hashed"] == 0


class _Base:
    def method(self):
        return "base"


class _Child(_Base):
    pass


def test_patched_restores_every_wrapped_name():
    before = {}
    for _, target, attribute, _ in WRAPS:
        owner = resolve(target)
        before[(target, attribute)] = (owner, vars(owner).get(attribute))
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with patched(recorder, WRAPS):
            for (target, attribute), (owner, original) in before.items():
                assert vars(owner)[attribute] is not original
            raise RuntimeError("the traced run failed")
    for (target, attribute), (owner, original) in before.items():
        assert vars(owner).get(attribute) is original, f"{target}.{attribute}"


def test_patched_deletes_a_wrapper_over_an_inherited_name():
    target = f"{__name__}:_Child"
    with patched(SpanRecorder(), [("m", target, "method", None)]):
        assert "method" in vars(_Child)
        assert _Child().method() == "base"
    assert "method" not in vars(_Child)
    assert _Child().method() == "base"
