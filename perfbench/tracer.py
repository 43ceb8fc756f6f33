"""Span tracer that wraps privamm's public functions from outside the program.

The package binds most functions with ``from .x import f``, so a wrapper
has to replace the name in every module that holds the original object,
and in every class that defines a wrapped method. ``install`` does that
and then checks that no module or class still holds an unwrapped
original.

Spans (name, start, end, parent) are kept in memory in one flat integer
array and summarised when the run ends. A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because the program is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: Span fields in the flat array: name id, start ns, end ns, parent index.
_FIELDS = 4


def privamm_modules() -> list:
    """Every loaded privamm module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "privamm" or name.startswith("privamm.")]


def public_targets(modules) -> List[Tuple[str, object, str]]:
    """(span name, owner, attribute) for each public function and each
    public plain method of a class defined in one of ``modules``."""
    targets = []
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((f"{layer}.{name}", mod, name))
            elif inspect.isclass(obj):
                for attr, member in sorted(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        targets.append((f"{layer}.{name}.{attr}", obj, attr))
    return targets


class Tracer:
    """Records one span per call of every wrapped function, timed with
    ``clock`` (integer nanoseconds)."""

    def __init__(self, clock: Callable[[], int]):
        self.clock = clock
        self.names: List[str] = []
        self.spans = array("q")
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans) // _FIELDS
            spans.extend((name_id, clock(), 0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index * _FIELDS + 2] = clock()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, targets, hooks: Dict[str, Callable] = None) -> None:
        """Wrap each (span name, owner, attribute) target everywhere it is
        bound; ``hooks`` maps span names to counter callbacks."""
        hooks = hooks or {}
        modules = privamm_modules()
        originals = {}
        for name, owner, attr in targets:
            fn = vars(owner)[attr]
            wrapper = self._wrap(name, fn, hooks.get(name))
            originals[id(fn)] = name
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        unwrapped = [
            f"{holder.__name__}.{key} ({originals[id(value)]})"
            for mod in modules
            for holder in [mod] + [c for c in vars(mod).values()
                                   if inspect.isclass(c)]
            for key, value in vars(holder).items()
            if id(value) in originals
        ]
        if unwrapped:
            raise RuntimeError(f"unwrapped objects remain: {unwrapped}")

    def rescale(self, to_ns: Callable[[int], float]) -> None:
        """Map every span's start and end through ``to_ns``."""
        s = self.spans
        for i in range(0, len(s), _FIELDS):
            s[i + 1] = round(to_ns(s[i + 1]))
            s[i + 2] = round(to_ns(s[i + 2]))

    # -- summaries ---------------------------------------------------------

    def _spans_of(self, name: str):
        name_id = self.names.index(name)
        s = self.spans
        return [(s[i + 1], s[i + 2]) for i in range(0, len(s), _FIELDS)
                if s[i] == name_id]

    def durations_ns(self, name: str) -> List[int]:
        return [end - start for start, end in self._spans_of(name)]

    def ends_ns(self, name: str) -> List[int]:
        return [end for _, end in self._spans_of(name)]

    def summary(self) -> dict:
        """Per span name: calls and total ns; per layer: self ns."""
        s = self.spans
        child_ns = array("q", bytes(len(s) // _FIELDS * 8))
        for i in range(0, len(s), _FIELDS):
            if s[i + 3] >= 0:
                child_ns[s[i + 3]] += s[i + 2] - s[i + 1]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(0, len(s), _FIELDS):
            name = self.names[s[i]]
            duration = s[i + 2] - s[i + 1]
            calls[name] += 1
            total[name] += duration
            self_ns[name.partition(".")[0]] += duration - child_ns[i // _FIELDS]
        return {"calls": dict(calls), "total_ns": dict(total),
                "self_ns": dict(self_ns), "counters": dict(self.counters),
                "spans": len(s) // _FIELDS}
