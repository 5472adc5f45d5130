"""Span recorder for the traced benchmark run, installed from outside the package.

A span is one call of a wrapped public function: its name, its parent span,
and its start and end on `time.perf_counter_ns`.  Spans live in flat arrays
while the run goes on and are written out once, after the timed phase.  A
span's self time is its duration minus the durations of its direct children.

The wrappers go on the names that callers actually look up.  `weave`,
`pairing`, `cli` and `verify` import functions by name, so wrapping only the
defining module would miss their calls; methods are wrapped on the class.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections.abc import Callable, Iterator
from typing import Any

ROOT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [ROOT]
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(span)
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A root-level span such as `setup` or `timed` around a block."""
        span = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(span)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[int, tuple, Any], None] | None = None,
    ) -> None:
        """Replace `owner.attr` by a recording wrapper; `after` sees span, args, result.

        `after` runs once the span has closed, so its cost lands in the
        parent's self time and shows up as tracing overhead, not as layer time.
        """
        inner = getattr(owner, attr)
        name_id = self._name_id(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer._open(name_id)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, traced)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total duration and self time per span name, in seconds."""
        children_ns = [0] * len(self.start)
        for span in range(len(self.start)):
            parent = self.parent[span]
            if parent != ROOT:
                children_ns[parent] += self.end[span] - self.start[span]
        calls = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for span in range(len(self.start)):
            name = self.name_of[span]
            duration = self.end[span] - self.start[span]
            calls[name] += 1
            total_ns[name] += duration
            self_ns[name] += duration - children_ns[span]
        return {
            name: {"calls": calls[i], "total_s": total_ns[i] / 1e9, "self_s": self_ns[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span as a tab-separated row: id, parent, name, start, end."""
        with open(path, "w", encoding="ascii", newline="\n") as stream:
            stream.write("span\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for span in range(len(self.start)):
                stream.write(
                    f"{span}\t{self.parent[span]}\t{names[self.name_of[span]]}\t"
                    f"{self.start[span]}\t{self.end[span]}\n"
                )
