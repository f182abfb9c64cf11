"""In-memory spans recorded around calls into the program's layers.

The benchmark does not edit the program: :class:`Patcher` swaps a
public function or method for a wrapper at run time and puts the
original back afterwards, and :class:`Tracer` records one :class:`Span`
per wrapped call (name, start, end, the span that caused it, and the
request it belongs to).  Spans stay in memory; the workload turns them
into per-layer metrics after its traced phase ends.

A span's parent is the innermost open span on the calling thread.  Work
handed to a thread pool keeps its submitter's span as parent through
:meth:`Tracer.bind`, so shard searches running on pool threads still nest
under the fan-out that spawned them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trace: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals count once, so children running concurrently on
    pool threads are not double-subtracted from their parent.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus the part its children cover."""
    return span.duration - covered(
        span.start, span.end, ((c.start, c.end) for c in children)
    )


def overlapping(spans: list[Span]) -> int:
    """How many of ``spans`` overlap at least one other in time."""
    ordered = sorted(spans, key=lambda s: s.start)
    flagged = set()
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if b.start >= a.end:
                break
            flagged.update((a.sid, b.sid))
    return len(flagged)


class Tracer:
    """Thread-safe span recorder, off until :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: Request body -> request id, filled by the client before sending
        #: so the server-side root span can name the request it serves.
        self.request_ids: dict[bytes, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def register(self, rid: object, body: bytes) -> None:
        """Name the request a body belongs to, before it is sent."""
        self.request_ids[body] = rid

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    @contextmanager
    def span(self, name: str, trace: object = None, **attrs):
        """Record one span; yields it, or ``None`` while disabled."""
        if not self.enabled:
            yield None
            return
        parent = self.current()
        if trace is None and parent is not None:
            trace = parent.trace
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent=parent.sid if parent is not None else None,
                    trace=trace, attrs=attrs)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def bind(self, parent: Span | None, fn: Callable) -> Callable:
        """``fn`` run on another thread with ``parent`` as its open span."""

        def run(*args, **kwargs):
            stack = self._stack()
            saved = list(stack)
            stack[:] = [parent] if parent is not None else []
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return run

    def take(self) -> list[Span]:
        """Remove and return every recorded span, and forget request ids."""
        spans, self.spans = self.spans, []
        self.request_ids = {}
        return spans


class Patcher:
    """Swap attributes for wrappers and restore the originals on ``undo``."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str,
             make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` (a function, method or classmethod
        defined on ``owner`` itself) with ``make(original_function)``."""
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            new = classmethod(functools.wraps(raw.__func__)(make(raw.__func__)))
        else:
            new = functools.wraps(raw)(make(raw))
        setattr(owner, name, new)
        self._undo.append((owner, name, raw))

    def undo(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


def spanned(tracer: Tracer, name: str,
            before: Callable[..., dict] | None = None,
            after: Callable[[object], dict] | None = None,
            trace_of: Callable[..., object] | None = None):
    """A ``make`` for :meth:`Patcher.wrap` recording one span per call.

    ``before(*args, **kwargs)`` and ``after(result)`` add attributes;
    ``trace_of(*args, **kwargs)`` names the request a root span serves.
    """

    def make(orig: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            attrs = before(*args, **kwargs) if before is not None else {}
            trace = trace_of(*args, **kwargs) if trace_of is not None else None
            with tracer.span(name, trace=trace, **attrs) as span:
                result = orig(*args, **kwargs)
                if after is not None:
                    span.attrs.update(after(result))
                return result

        return wrapper

    return make
