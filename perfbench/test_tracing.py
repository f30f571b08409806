"""Self-time arithmetic of the benchmark's tracer.

Run with ``python -m pytest perfbench/test_tracing.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Span, Tracer, covered_length, self_times  # noqa: E402


def span(start, end, parent=None, leaf_s=0.0):
    return Span("s", "layer", start, end, parent, trace=1, leaf_s=leaf_s)


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_covered_length_merges_and_ignores_empty():
    assert covered_length([]) == 0.0
    assert covered_length([(1, 1), (3, 2)]) == 0.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_nested_children():
    spans = [span(0, 10), span(1, 4, parent=0), span(2, 3, parent=1)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_overlapping_siblings_count_once():
    # Two children of one parent overlap on [3, 5]: the parent loses
    # the union [1, 7], not the sum of durations (8).
    spans = [span(0, 10), span(1, 5, parent=0), span(3, 7, parent=0)]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 4.0])


def test_child_outliving_parent_is_clipped():
    spans = [span(0, 5), span(3, 9, parent=0)]
    assert self_times(spans) == pytest.approx([3.0, 6.0])


def test_child_starting_before_parent_is_clipped():
    spans = [span(2, 6), span(0, 4, parent=0)]
    assert self_times(spans) == pytest.approx([2.0, 4.0])


def test_leaf_time_is_subtracted_from_the_open_span():
    spans = [span(0, 10, leaf_s=2.5), span(1, 4, parent=0)]
    assert self_times(spans) == pytest.approx([4.5, 3.0])


def test_tracer_records_parents_and_traces():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 10.0))
    tracer.enabled = True
    with tracer.span("root", "bench"):
        with tracer.span("cell", "core", new_trace=True):
            with tracer.span("trial", "core"):
                pass
    root, cell, trial = tracer.finished()
    assert (root.parent, cell.parent, trial.parent) == (None, 0, 1)
    assert cell.trace != root.trace and trial.trace == cell.trace
    assert tracer.layer_self_times() == pytest.approx({"bench": 7.0, "core": 3.0})


def test_nested_leaves_and_spans_inside_leaves():
    # A span [0, 20] holds leaf A (10 s), which holds leaf B (3 s) and
    # a span [6, 8]; a same-name call inside B is not timed again.
    tracer = Tracer(clock=FakeClock(0.0, 6.0, 8.0, 20.0))
    tracer.enabled = True
    outer = tracer.begin("outer", "sim")
    a = tracer.leaf_begin("core.a")
    b = tracer.leaf_begin("obs.b")
    assert tracer.leaf_begin("obs.b") is None
    tracer.leaf_end(b, 3.0)
    inner = tracer.begin("inner", "rm")
    tracer.end(inner)
    tracer.leaf_end(a, 10.0)
    tracer.end(outer)
    assert tracer.leaf_totals == pytest.approx({"core.a": 5.0, "obs.b": 3.0})
    assert tracer.layer_self_times() == pytest.approx(
        {"sim": 10.0, "rm": 2.0, "core": 5.0, "obs": 3.0}
    )


def test_disabled_tracer_records_nothing_and_unclosed_spans_drop():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 2.0))
    with tracer.span("off", "bench"):
        pass
    assert tracer.finished() == []
    tracer.enabled = True
    tracer.begin("open", "bench")
    child = tracer.begin("child", "core")
    tracer.end(child)
    (only,) = tracer.finished()
    assert only.name == "child" and only.parent is None


def test_wrap_and_uninstall_restore_the_original():
    class Target:
        def work(self, x):
            return x + 1

    original = Target.__dict__["work"]
    tracer = Tracer(clock=FakeClock(0.0, 2.0))
    seen = []
    tracer.wrap(Target, "work", "target.work", "target", after=lambda r, a, k, s: seen.append((r, s)))
    tracer.enabled = True
    assert Target().work(1) == 2
    assert seen == [(2, 2.0)]
    tracer.uninstall()
    assert Target.__dict__["work"] is original
