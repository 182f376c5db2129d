"""Span tracing from outside the program.

The benchmark measures layers without changing them: :class:`Tracer`
replaces a layer's public functions, at the module or class attribute
each caller looks them up through, with wrappers that record a span per
call.  Spans nest on one stack, so a layer's self time is its span time
minus the time of the spans it caused.

Only the thread that created the tracer records spans.  Every layer of
a campaign runs on that thread on the serial backend; on the dist
backend the other threads are the coordinator's socket loops, whose
work is waiting, not a layer's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Iterable

#: Attribute that marks a tracer wrapper, so no wrapper is ever wrapped
#: again (a second wrap would open two spans, and count two calls, for
#: one call).
WRAPPED_MARK = "_perfbench_span"


def resolve(module_name: str, path: str):
    """(owner, attribute) for ``"func"`` or ``"Class.method"`` in a module."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records nested spans and call counts on the creating thread.

    ``spans`` holds ``[name, start, end, parent]`` lists; ``parent`` is
    the index of the enclosing span, or -1 for a root.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self._open: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str, count: bool = True) -> int:
        # A call re-entering the span it is already in (a method that
        # calls a sibling wrapped under the same name) is one call.
        if count and (not self._open
                      or self.spans[self._open[-1]][0] != name):
            self.calls[name] += 1
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed "
                               "out of order")
        self.spans[index][2] = self.clock()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if getattr(fn, WRAPPED_MARK, None) is not None:
            return fn
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens on each resume, not at the call,
            # so every resume is a span of its own.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if threading.get_ident() != tracer._thread:
                    yield from inner
                    return
                first = True
                while True:
                    index = tracer._begin(name, count=first)
                    first = False
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._end(index)
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if threading.get_ident() != tracer._thread:
                    return fn(*args, **kwargs)
                index = tracer._begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._end(index)
        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        if wrapped is raw:
            return
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def install(self, sites: Iterable[tuple[str, str, str]]) -> None:
        """Patch every ``(module, "func" | "Class.method", span)`` site."""
        for module_name, path, name in sites:
            owner, attr = resolve(module_name, path)
            self.patch(owner, attr, name)

    def uninstall(self) -> None:
        """Put back every original attribute this tracer replaced."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


def _child_times(spans) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    return child_s


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    child_s = _child_times(spans)
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_s[index]
    return dict(out)


def attribute(spans, root: str, tolerance_s: float = 1e-6) -> dict:
    """Split the wall time of the ``root`` spans into self times.

    Returns ``{"wall_s", "self_s", "unattributed_s", "residual_s"}``:
    ``self_s`` maps every non-root span name to its self time, and
    ``unattributed_s`` is the roots' own self time.  ``residual_s`` is
    what the self times plus ``unattributed_s`` miss of the wall time;
    it is zero up to float rounding when the spans nest properly.

    Raises ``ValueError`` when the spans do not form a tree under the
    roots: an unclosed span, a top-level span that is not a root, or a
    child that outlasts its parent (a negative self time would hide
    double-counted time).
    """
    for name, start, end, parent in spans:
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        if parent < 0 and name != root:
            raise ValueError(f"span {name!r} ran outside any {root!r} span")
    for (name, start, end, _), children in zip(spans, _child_times(spans)):
        if children > (end - start) + tolerance_s:
            raise ValueError(f"children of span {name!r} outlast it")
    times = self_times(spans)
    wall = sum(end - start for _, start, end, parent in spans if parent < 0)
    unattributed = times.pop(root, 0.0)
    return {
        "wall_s": wall,
        "self_s": times,
        "unattributed_s": unattributed,
        "residual_s": wall - unattributed - sum(times.values()),
    }
