"""In-memory span recorder that wraps library names from outside the library.

A wrapped name is replaced, for the duration of a run, by a function that
opens a span around the original.  The current span travels in a
``contextvars.ContextVar``, so a span's parent is whatever span was open in
the same thread when it started, and a span inherits its parent's function
id.  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


class BenchmarkFailure(Exception):
    """A wrong output or a broken measurement: the run must not report numbers."""


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    fn_id: str | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """A span's duration minus the part of it that its children cover."""
    return span.duration - covered(
        [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    )


def resolve(target: str):
    """``pkg.module.attr[.attr]`` -> (owner object, last attribute name)."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            getattr(owner, parts[-1])
        except AttributeError:
            break
        return owner, parts[-1]
    raise BenchmarkFailure(f"span target {target} no longer exists")


_ABSENT = object()


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.targets: list[str] = []
        self._called: set[str] = set()
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._current.get()
        current = Span(name, time.perf_counter(), parent, parent.fn_id if parent else None)
        token = self._current.set(current)
        try:
            yield current
        except BaseException as exc:
            current.attrs["error"] = type(exc).__name__
            raise
        finally:
            current.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(current)

    def wrap(self, target: str, name: str, on_start=None, describe=None) -> None:
        """Replace ``target`` by a spanning wrapper until :meth:`uninstall`.

        ``on_start(span, args, kwargs)`` runs before the original (set the
        span's function id there, and attributes a failure must keep);
        ``describe(span, args, kwargs, result)`` adds attributes on success.
        """
        owner, attr = resolve(target)
        raw = vars(owner).get(attr, _ABSENT)
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            recorder._called.add(target)
            with recorder.span(name) as current:
                if on_start is not None:
                    on_start(current, args, kwargs)
                result = original(*args, **kwargs)
                if describe is not None:
                    describe(current, args, kwargs, result)
                return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._restore.append((owner, attr, raw))
        self.targets.append(target)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            if raw is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def check_called(self) -> None:
        """Fail loudly when a wrapped name recorded no call at all."""
        silent = [target for target in self.targets if target not in self._called]
        if silent:
            raise BenchmarkFailure(f"span targets never called during the run: {silent}")

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        ids = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for k, s in enumerate(self.spans):
                record = {
                    "id": k,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "fn_id": s.fn_id,
                    "attrs": s.attrs,
                }
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
