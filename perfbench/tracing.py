"""In-memory spans recorded around calls into the ``repro`` layers.

Nothing here lives inside ``src/``: a :class:`Tracer` wraps public
entry points of the program from the outside (module functions and
class methods, restored by :meth:`Tracer.uninstall`) and keeps every
span in memory until the benchmark writes them out at the end.

A span has a name, the layer it belongs to (a ``repro`` subpackage,
or ``bench`` for the benchmark's own code), start and end
times, the span that was open on the same thread when it started (its
parent), and a trace id shared by every span of one cell or one job.

Very frequent boundaries (one call per simulation event) are recorded
as *leaf* time instead of spans: the duration is added to a per-name
total and to the innermost open span, so self times stay exact without
storing millions of spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Clock = Callable[[], float]


@dataclass(frozen=True)
class Span:
    """One finished span; times are ``time.perf_counter`` seconds."""

    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    trace: int
    #: Time inside this span covered by leaf calls (see module doc).
    leaf_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval that its children cover.

    Children are clipped to the parent's interval (a child that
    outlives its parent only counts up to the parent's end), and
    overlapping siblings are counted once (the union of their
    intervals, not the sum of their durations).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            children.setdefault(span.parent, []).append(clipped)
    return [
        max(0.0, span.duration - covered_length(children.get(i, ())) - span.leaf_s)
        for i, span in enumerate(spans)
    ]


class _Open:
    """A span still on a thread's stack."""

    __slots__ = ("name", "layer", "start", "parent", "trace", "leaf_s", "index")

    def __init__(self, name, layer, start, parent, trace, index):
        self.name = name
        self.layer = layer
        self.start = start
        self.parent = parent
        self.trace = trace
        self.leaf_s = 0.0
        self.index = index


class Tracer:
    """Records spans, leaf time and counters; disabled until enabled.

    While disabled every entry point is a cheap no-op, so the same
    benchmark code runs traced and untraced.
    """

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: List[Optional[Span]] = []
        self.leaf_totals: Dict[str, float] = {}
        self.leaf_calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, new_trace: bool = False) -> Optional[_Open]:
        """Open a span on this thread; returns a handle for :meth:`end`."""
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        trace = (
            next(self._traces)
            if new_trace or parent is None
            else parent.trace
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot: parents precede children
        handle = _Open(
            name,
            layer,
            self.clock(),
            parent.index if parent is not None else None,
            trace,
            index,
        )
        stack.append(handle)
        return handle

    def end(self, handle: Optional[_Open]) -> float:
        """Close *handle*; returns its duration (0 when disabled)."""
        if handle is None:
            return 0.0
        end = self.clock()
        leaves = self._leaves()
        if leaves:  # a span inside a leaf call is not part of the leaf
            leaves[-1].inner_s += end - handle.start
        stack = self._stack()
        if stack and stack[-1] is handle:
            stack.pop()
        else:  # closed out of order: drop it wherever it is
            stack.remove(handle)
        self.spans[handle.index] = Span(
            handle.name,
            handle.layer,
            handle.start,
            end,
            handle.parent,
            handle.trace,
            handle.leaf_s,
        )
        return end - handle.start

    def span(self, name: str, layer: str, new_trace: bool = False) -> "_SpanContext":
        """``with tracer.span(...)``: a span around the block."""
        return _SpanContext(self, name, layer, new_trace)

    def _leaves(self) -> List["_Leaf"]:
        leaves = getattr(self._local, "leaves", None)
        if leaves is None:
            leaves = self._local.leaves = []
        return leaves

    def leaf_begin(self, name: str) -> Optional["_Leaf"]:
        """Start timing a leaf call (``None``: not timed, because tracing
        is off or a call of the same name is already being timed)."""
        if not self.enabled:
            return None
        leaves = self._leaves()
        if leaves and leaves[-1].name == name:
            return None
        leaf = _Leaf(name)
        leaves.append(leaf)
        return leaf

    def leaf_end(self, leaf: Optional["_Leaf"], seconds: float) -> None:
        """Account a leaf call of *seconds* wall time: its own part (minus
        nested leaves and spans) goes to the leaf's total and to the
        innermost open span; the whole call is excluded from any leaf
        it ran inside."""
        if leaf is None:
            return
        leaves = self._leaves()
        leaves.pop()
        own = seconds - leaf.inner_s
        with self._lock:
            self.leaf_totals[leaf.name] = self.leaf_totals.get(leaf.name, 0.0) + own
            self.leaf_calls[leaf.name] = self.leaf_calls.get(leaf.name, 0) + 1
        if leaves:
            leaves[-1].inner_s += seconds
        stack = self._stack()
        if stack:
            stack[-1].leaf_s += own

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (work that is not measured)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def count(self, key: str, n: float = 1) -> None:
        """Bump a named counter (only while enabled)."""
        if self.enabled:
            with self._lock:
                self.counters[key] = self.counters.get(key, 0) + n

    def finished(self) -> List[Span]:
        """Every closed span, in start order, with parent indices into
        the returned list (a span whose parent never closed is a root)."""
        remap: Dict[int, int] = {}
        out: List[Span] = []
        for raw, span in enumerate(self.spans):
            if span is None:
                continue
            remap[raw] = len(out)
            parent = remap.get(span.parent) if span.parent is not None else None
            out.append(
                Span(span.name, span.layer, span.start, span.end, parent,
                     span.trace, span.leaf_s)
            )
        return out

    # -- wrapping -----------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; restored by
        :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        replacement = make(original)
        functools.update_wrapper(replacement, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        *,
        new_trace: bool = False,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        *after(result, args, kwargs, seconds)* runs once the call
        returns, to count work done inside it."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                handle = tracer.begin(name, layer, new_trace)
                try:
                    result = original(*args, **kwargs)
                finally:
                    seconds = tracer.end(handle)
                if after is not None and handle is not None:
                    after(result, args, kwargs, seconds)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def wrap_leaf(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a leaf."""
        tracer = self
        clock = self.clock

        def make(original):
            def wrapper(*args, **kwargs):
                leaf = tracer.leaf_begin(name)
                if leaf is None:
                    return original(*args, **kwargs)
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.leaf_end(leaf, clock() - started)

            return wrapper

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def layer_self_times(self) -> Dict[str, float]:
        """Total self seconds per layer, leaf time included."""
        spans = self.finished()
        totals: Dict[str, float] = {}
        for span, own in zip(spans, self_times(spans)):
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        for name, seconds in self.leaf_totals.items():
            layer = name.rsplit(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def write(self, path) -> None:
        """Write spans (one JSON object a line), then leaf totals."""
        spans = self.finished()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(spans, self_times(spans))):
                fh.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "trace": span.trace,
                            "self_s": own,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
            fh.write(
                json.dumps(
                    {"leaf_s": self.leaf_totals, "leaf_calls": self.leaf_calls},
                    sort_keys=True,
                )
            )
            fh.write("\n")


class _Leaf:
    """A leaf call being timed on this thread."""

    __slots__ = ("name", "inner_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.inner_s = 0.0


class _SpanContext:
    __slots__ = ("tracer", "args", "handle")

    def __init__(self, tracer, name, layer, new_trace):
        self.tracer = tracer
        self.args = (name, layer, new_trace)
        self.handle = None

    def __enter__(self):
        self.handle = self.tracer.begin(*self.args)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.handle)
        return False
