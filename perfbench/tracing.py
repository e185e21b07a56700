"""In-memory span recorder that wraps the library's public entry points.

The benchmark's traced run patches public functions and methods of
``repro`` from here, so the program under test is unchanged: every call
to a wrapped entry point records one span (name, start, end, parent,
context id) in memory, and the spans are written out once the run ends.
A span's self time is its duration minus the time its child spans
cover; wrapped calls are synchronous, so children are disjoint
intervals on one stack.

``repro.obs`` stays off: the spans here are the benchmark's own.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Records spans around patched callables; ``restore`` unpatches."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.contexts: list[object] = []
        self.child_time: list[float] = []
        self.context: object = None
        """Id of the query or request being served (set by the workload)."""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.returns: dict[str, list] = defaultdict(list)
        """Per span name: values the ``keep`` hooks pulled from results."""

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def _open(self, name: str, context: object) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(_clock())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.contexts.append(self.context if context is None else context)
        self.child_time.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = _clock()
        self.ends[index] = end
        self._stack.pop()
        parent = self.parents[index]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[index]

    def patch(self, owner, attribute: str, name: str, keep=None, context=None):
        """Wrap ``owner.attribute`` so each call records a span ``name``.

        ``keep(result)`` (optional) extracts a count from the return
        value, stored under ``returns[name]``; ``context(args)``
        (optional) names the request the call serves.  Generator
        functions get one span per ``next()``.
        """
        function = inspect.getattr_static(owner, attribute)
        tracer = self

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    index = tracer._open(name, None)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    tracer.returns[name].append(1)
                    yield item

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                index = tracer._open(
                    name, None if context is None else context(args)
                )
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer._close(index)
                if keep is not None:
                    tracer.returns[name].append(keep(result))
                return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, function))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Number of spans recorded under ``name``."""
        return sum(1 for n in self.names if n == name)

    def total(self, name: str) -> float:
        """Summed duration (s) of the spans named ``name``."""
        return sum(
            end - start
            for n, start, end in zip(self.names, self.starts, self.ends)
            if n == name
        )

    def self_time(self, name: str) -> float:
        """Summed self time (s): duration minus child-span coverage."""
        return sum(
            end - start - child
            for n, start, end, child in zip(
                self.names, self.starts, self.ends, self.child_time
            )
            if n == name
        )

    def write(self, path) -> None:
        """Write every span as one JSON line (call once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "context": self.contexts[index],
                        },
                        default=str,
                    )
                )
                handle.write("\n")
