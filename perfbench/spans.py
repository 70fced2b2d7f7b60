"""In-memory spans recorded around public calls, folded into self times.

A :class:`SpanRecorder` wraps a callable so that every call records one
span ``(name, start, end, parent, request_id)`` in a list held in
memory, stamped with the clock it is given (the traced server uses the
thread's CPU clock, so a request preempted by the host does not charge
the wait to whichever layer it was in).  :func:`fold` turns a list of spans into per-name totals of
*self* time: a span's duration minus the durations of its direct child
spans.  Both serve the traced server of the serving workloads; the
folding arithmetic is kept free of any repro import so the self-tests
can check it on synthetic span trees.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

#: Span record: (name, start, end, parent index or -1, request id or None)
Span = tuple


class SpanRecorder:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: request id of the innermost open span that knows one
        self._request_ids: list = []

    def wrap(self, name: str, fn, request_id_of=None):
        """Return ``fn`` recording a span named ``name`` per call.

        ``request_id_of(args)`` extracts a request id from the call's
        positional arguments; spans without one inherit their parent's.
        """
        spans = self.spans
        stack = self._stack
        ids = self._request_ids
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = request_id_of(args) if request_id_of is not None else None
            if rid is None and ids:
                rid = ids[-1]
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ids.append(rid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ids.pop()
                spans[index] = (name, start, end, parent, rid)

        return wrapper

    def drain(self) -> list[Span]:
        """Hand over the closed spans recorded so far and forget them.

        Only called between requests (no span open), so every recorded
        span is complete and parent indexes stay within the batch.
        """
        if self._stack:
            raise RuntimeError("drain() called with spans still open")
        spans = list(self.spans)
        # Cleared in place: the wrappers hold a reference to this list.
        self.spans.clear()
        return spans


@dataclass
class Folded:
    """Self time, call count and top-level time of a list of spans."""

    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    #: summed duration of spans with no parent (the root layers)
    top_level_s: float = 0.0


def fold(spans: list[Span]) -> Folded:
    """Per-name self time: each span minus its direct children."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _rid in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = Folded()
    for index, (name, start, end, parent, _rid) in enumerate(spans):
        duration = end - start
        out.self_s[name] = out.self_s.get(name, 0.0) + duration - child_s[index]
        out.calls[name] = out.calls.get(name, 0) + 1
        if parent < 0:
            out.top_level_s += duration
    return out
