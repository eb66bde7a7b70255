"""In-memory spans recorded around calls into zecap's layers.

A span is the list [name, start, end, parent, run, outcome]: perf_counter
seconds, the index of the enclosing span (-1 at the root), the pass it
belongs to, and an optional per-call outcome (decode status, for example).
Spans stay in memory until the run ends and are then written out whole.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from types import ModuleType


class Tracer:
    """Records nested spans; `run` tags every span opened until it changes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, outcome: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    record[5] = outcome(result)
                return result

        return traced

    @contextlib.contextmanager
    def patched(
        self, targets: tuple[tuple[ModuleType, str, str, Callable | None], ...]
    ) -> Iterator[None]:
        """Route calls a module makes through its own globals into spans.

        A target whose attribute no longer exists is skipped, so its layer
        then reports zero calls instead of breaking the run.
        """
        saved = []
        for module, attr, name, outcome in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, outcome))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """Tracer stand-in for untraced passes: spans cost one no-op context."""

    _null = contextlib.nullcontext([None] * 6)

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()
