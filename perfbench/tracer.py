"""In-memory span recording around calls into the program's layers.

The benchmark never edits ``src/``: a traced run replaces public
functions *by module attribute* (``repro.fuzz.scheduler.execute`` and
so on) with thin wrappers that record one span per call, and puts the
originals back afterwards. A wrapper only sees calls that look the name
up on that module or class at call time, which is why each workload
lists the attribute at its call site rather than at its definition.

Spans live in memory until the run ends. Every span records its parent,
so a layer's *self* time (its duration minus the part its children
cover) can be computed afterwards; the self times of all spans of one
operation sum to that operation's wall time exactly.

One stack is shared by all threads. That is correct here because each
workload is a closed loop with one client: at any moment only one
thread runs instrumented code (the campaign's asyncio thread waits on
the batch thread; the HTTP client waits on the server thread), so a
span opened in the server thread nests under the client request that
caused it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

__all__ = ["Recorder", "Span", "self_times"]


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Records spans and restores every attribute it patched."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op = 0

    # -- spans ---------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=len(self.spans),
            parent=parent,
            op=self._op,
            name=name,
            layer=layer,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, name: str) -> Span:
        """Open the root span of one measured operation."""
        self._op += 1
        return self.open(name, "residual")

    # -- patching ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, on_result=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(span, args, kwargs, result)``, if given, may attach
        counts to the span. The original is restored by :meth:`restore`.
        """
        original = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)
        recorder = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, layer)
            try:
                result = target(*args, **kwargs)
            finally:
                recorder.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True))
                handle.write("\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for left, right in sorted(intervals):
        left, right = max(left, cursor), min(right, end)
        if right > left:
            covered += right - left
            cursor = right
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """``{span id: duration minus the time its children cover}``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - _covered(span.start, span.end, children.get(span.span_id, []))
        for span in spans
    }
