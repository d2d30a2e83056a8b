"""In-memory span recorder that wraps tubekit's functions from outside.

A span is (name, start, end, parent, run id). Spans are kept in a list and
written out once, when the benchmark ends. Wrapping replaces a function in
every ``tubekit`` module namespace that holds it, so calls made through
``from .x import f`` bindings are traced too; ``uninstall`` puts the
originals back. Tracing assumes one thread: the traced pipeline runs with
``--parallel 1``, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        # span index -> (args, result) for functions wrapped with record=True;
        # counters are derived from these after the run, outside every span
        self.calls: dict[int, tuple[tuple, Any]] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, record: bool = False) -> Callable:
        spans, stack, calls = self.spans, self._stack, self.calls

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # holds the span's place until it ends
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.run_id)
            if record:
                calls[idx] = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, name: str, module, attr: str, record: bool = False) -> None:
        """Trace ``module.attr`` wherever a tubekit module has bound it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, record)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tubekit" or mod_name.startswith("tubekit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def install_classmethod(self, name: str, cls, attr: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, classmethod(self.wrap(name, original.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path) -> None:
        """One JSON array per finished span: index, name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is not None:
                    fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.run_id]) + "\n")


def self_times(spans: list[Optional[Span]]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s.duration if s is not None else 0.0 for s in spans]
    for s in spans:
        if s is not None and s.parent is not None:
            own[s.parent] -= s.duration
    return own
