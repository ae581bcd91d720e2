"""Span clock for every timed call, recorder for the traced run.

``with tracer.span(name) as span`` always times its body (``span.seconds``),
so the untraced and the traced run read the same clock at the same places.
Only an enabled tracer *keeps* spans: ``(id, parent, name, start, end,
group)``, where ``parent`` is the span that was open on the same thread when
this one started and ``group`` names the fit or request the span belongs to.
Kept spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

__all__ = ["Span", "Tracer"]


class Span:
    __slots__ = ("id", "parent", "name", "group", "start", "end")

    def __init__(self, name: str, group: str | None):
        self.id = self.parent = None
        self.name, self.group = name, group
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, group: str | None = None):
        """Time the body; keep the span when the tracer is enabled."""
        span = Span(name, group)
        if not self.enabled:
            span.start = time.perf_counter()
            try:
                yield span
            finally:
                span.end = time.perf_counter()
            return
        stack = self._open.__dict__.setdefault("stack", [])
        if stack:
            span.parent = stack[-1].id
            if group is None:
                span.group = stack[-1].group
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` with a span of ``name`` round every call."""
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return spanned

    # ------------------------------------------------------------------
    def last(self, name: str) -> Span:
        """The most recent kept span called ``name``."""
        return next(s for s in reversed(self.spans) if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - covered.get(span.id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "clock": "time.perf_counter seconds",
                    "spans": [span.as_dict() for span in self.spans],
                    "self_seconds_by_name": self.self_times(),
                },
                handle,
            )
