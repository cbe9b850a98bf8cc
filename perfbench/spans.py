"""In-memory span model and the wrappers that feed it.

A span is one call into a layer: name, start, end and the span it ran
inside. Spans are recorded by wrapping public functions of the program
from the outside (:meth:`Tracer.wrap`); nothing inside ``src/`` knows
it is being traced. Wrapped functions are synchronous, so on one
asyncio loop they nest strictly and a stack gives every span its
parent. Awaited phases are timed with :meth:`Tracer.flat`, which keeps
them off the stack because other tasks run while they wait.

A span's *self time* is its duration minus the time covered by its
child spans. Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

_clock = time.perf_counter


class Span:
    """One timed call. ``child`` accumulates the children's durations."""

    __slots__ = ("name", "start", "end", "parent", "child", "value")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0
        self.value: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def within(self, name: str) -> bool:
        """True when an enclosing span is called ``name``."""
        parent = self.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False


class Tracer:
    """Span recorder plus the patch table that installs its wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, _clock(), parent)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)

    @contextlib.contextmanager
    def flat(self, name: str) -> Iterator[Span]:
        """Time an awaited phase as a parentless span kept off the stack."""
        span = Span(name, _clock(), None)
        try:
            yield span
        finally:
            span.end = _clock()
            self.spans.append(span)

    @contextlib.contextmanager
    def discarded(self) -> Iterator[None]:
        """Drop every span recorded inside: work that is not measured."""
        mark = len(self.spans)
        try:
            yield
        finally:
            del self.spans[mark:]

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        value: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class or a module. Class- and static methods are
        rewrapped as such. ``value(result, *args, **kwargs)`` may attach
        whatever the figures need to the span (bytes written, records
        collected).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
                if value is not None:
                    span.value = value(result, *args, **kwargs)
                return result
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        self.patch(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering the original for
        :meth:`unwrap_all`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------------

    def since(self, start: float) -> "dict[str, list[Span]]":
        """Spans that began at or after ``start``, grouped by name."""
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.start >= start:
                grouped[span.name].append(span)
        return grouped

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (parent by index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = index.get(id(span.parent)) if span.parent else None
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": parent,
                            "value": span.value,
                        }
                    )
                    + "\n"
                )
