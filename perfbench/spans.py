"""In-memory spans and counters recorded by wrapping names from outside.

The benchmark does not edit the program.  It replaces a function where its
callers look it up (a module global, a class attribute or a dict entry) with
a wrapper that records a span or bumps a counter, and puts the original back
afterwards.  ``from .x import f`` copies the binding into the importing
module, so a target names the module that *calls* ``f``, not the one that
defines it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1 for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced call; a fresh tracer per call keeps
    spans of different calls apart, so a tracer is one trace."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def timed(self, fn: Callable, name: str, on_return: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


@dataclass(frozen=True)
class Target:
    """A name to wrap: ``owner`` is a dotted module path, optionally followed
    by attributes (``wbcast.registers.DensityMatrix``); ``attr`` is the
    attribute, or the key when the owner is a dict.  With ``span`` set the
    wrapper records a span of that name, otherwise it bumps ``count``."""

    owner: str
    attr: str
    span: str | None = None
    count: str | None = None
    on_return: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"

    @property
    def metric(self) -> str:
        return self.span or self.count


_MISSING = object()


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, _MISSING)
            if obj is _MISSING:
                return _MISSING
        return obj
    return _MISSING


def _get(owner, attr: str):
    if isinstance(owner, dict):
        return owner.get(attr, _MISSING)
    return getattr(owner, attr, _MISSING)


def _put(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def lookup(target: Target):
    """The object currently bound at the target, or None when it is absent."""
    owner = _resolve(target.owner)
    value = _MISSING if owner is _MISSING else _get(owner, target.attr)
    return None if value is _MISSING else value


@contextmanager
def patched(tracer: Tracer, targets: list[Target]) -> Iterator[list[Target]]:
    """Wrap every target that exists for the duration of the block and yield
    the absent ones.  The originals are restored even if the block raises."""
    saved = []
    absent = []
    try:
        for target in targets:
            owner = _resolve(target.owner)
            original = _MISSING if owner is _MISSING else _get(owner, target.attr)
            if original is _MISSING:
                absent.append(target)
                continue
            if target.span is not None:
                wrapper = tracer.timed(original, target.span, target.on_return)
            else:
                wrapper = tracer.counted(original, target.count)
            _put(owner, target.attr, wrapper)
            saved.append((owner, target.attr, original))
        yield absent
    finally:
        for owner, attr, original in reversed(saved):
            _put(owner, attr, original)
