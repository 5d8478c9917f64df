"""Outside-in tracing: spans recorded around calls into the program.

The benchmark never edits the program.  It replaces a function or method
with a timing wrapper *where the caller looks the name up* (a module
global such as ``repro.sketches.kmv.collapse_block``, or a class
attribute such as ``KMVSketch.update_block``), records one span per call
in memory, and puts every original back when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple

#: Extracts ``(n_in, n_out)`` work counts from a call's arguments and result.
Measure = Callable[[tuple, dict, object], "tuple[int, int]"]


class Span(NamedTuple):
    """One recorded call: name, interval, causing span and work counts."""

    name: str
    start: float
    end: float
    parent: int | None
    n_in: int = 0
    n_out: int = 0


class SpanRecorder:
    """Keeps spans in memory; nests each under the span open when it began.

    Only the process that created the recorder records: a worker forked
    while wrappers are installed inherits them, and its calls pass through.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._paused = 0

    @property
    def active(self) -> bool:
        """Whether a call made now would be recorded."""
        return not self._paused and os.getpid() == self._pid

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (the benchmark's own bookkeeping)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def call(self, name: str, function: Callable, args: tuple, kwargs: dict,
             measure: Measure | None = None):
        """Run ``function(*args, **kwargs)`` inside a span named ``name``."""
        if not self.active:
            return function(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        # Reserve the slot so children recorded during the call point at it.
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent)
        if measure is not None:
            self.spans[index] = Span(name, start, end, parent, *measure(args, kwargs, result))
        return result

    def wrap(self, name: str, function: Callable, measure: Measure | None = None):
        """A drop-in replacement for ``function`` that records a span per call.

        Generator functions get a generator back whose every ``next()`` is
        its own span, so the consumer's work between items is not charged.
        """
        recorder = self
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    try:
                        item = recorder.call(name, next, (iterator,), {})
                    except StopIteration:
                        return
                    yield item
            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return recorder.call(name, function, args, kwargs, measure)
        return wrapper

    def rows(self) -> list[list]:
        """The spans as JSON-ready rows, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            [span.name, span.start - origin, span.end - origin, span.parent,
             span.n_in, span.n_out]
            for span in self.spans
        ]


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    """Parent index -> indices of its direct children."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    return children


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_time(spans: list[Span], index: int, children: dict[int, list[int]]) -> float:
    """A span's duration minus the part of it its direct children cover."""
    span = spans[index]
    kids = [(spans[k].start, spans[k].end) for k in children.get(index, ())]
    return (span.end - span.start) - covered(span.start, span.end, kids)


def resolve(target: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` -> the module or class."""
    module_name, _, attribute = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attribute) if attribute else owner


@contextmanager
def patched(recorder: SpanRecorder,
            wraps: Iterable[tuple[str, str, str, Measure | None]]) -> Iterator[None]:
    """Install ``(span name, owner, attribute, measure)`` wrappers; undo on exit.

    An attribute the owner only inherits is restored by deleting the
    wrapper again, so the class dictionary ends exactly as it started.
    """
    undo: list[tuple[object, str, object]] = []
    missing = object()
    try:
        for name, target, attribute, measure in wraps:
            owner = resolve(target)
            own = vars(owner).get(attribute, missing)
            original = getattr(owner, attribute)
            undo.append((owner, attribute, own))
            setattr(owner, attribute, recorder.wrap(name, original, measure))
        yield
    finally:
        for owner, attribute, own in reversed(undo):
            if own is missing:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
