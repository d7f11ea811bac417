"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the eomsim modules at every
binding callers use: a function imported by name into another module (for
example `pm_scatter_row` in `engine`) is the same object in both places, so
one wrapper replaces it everywhere, and the `verify.CHECKS` tuple is rebuilt
with wrapped checks.  Methods and private helpers are not wrapped; their time
counts toward the nearest wrapped caller.

Each call records a span [name, start, end, parent, op] in memory.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict


class Recorder:
    """In-memory spans plus per-span-name work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.work: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording a span named `name` per call.

        `count(args, kwargs, result)` may return {counter: amount}; amounts are
        summed into `work["<name>.<counter>"]`.  Counting happens after the
        span closes, so it is charged to the caller, not to `fn`.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.spans)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.op]
            rec.spans.append(span)
            rec._stack.append(idx)
            span[1] = rec.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = rec.clock()
                rec._stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    rec.work[f"{name}.{key}"] += amount
            return result

        return traced

    def inside(self, name: str) -> bool:
        """Whether a span named `name` is open (the current call's ancestors)."""
        return any(self.spans[idx][0] == name for idx in self._stack)

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus the union of its children."""
        children: dict[int, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(idx)
        out = []
        for idx, (_name, start, end, _parent, _op) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child in sorted(children.get(idx, ()), key=lambda c: self.spans[c][1]):
                lo = max(self.spans[child][1], reach)
                hi = min(self.spans[child][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: span names once, then index rows."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3], s[4]] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": list(names), "spans": rows}, fh)


def instrument(rec: Recorder, modules: dict, counters: dict):
    """Wrap the public functions of `modules` ({short name: module}) in place.

    Every module in `modules` is searched for bindings of a wrapped function,
    so re-exports and by-name imports are replaced too.  Returns a callable
    that restores the original bindings.
    """
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = f"{short}.{attr}"
                wrappers[obj] = rec.wrap(name, obj, counters.get(name))
    undo = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                new = wrappers[obj]
            elif isinstance(obj, tuple) and any(inspect.isfunction(o) and o in wrappers for o in obj):
                new = tuple(wrappers.get(o, o) if inspect.isfunction(o) else o for o in obj)
            else:
                continue
            setattr(mod, attr, new)
            undo.append((mod, attr, obj))

    def restore() -> None:
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)

    return restore
