"""Outside-in tracer: spans around the library's public functions.

The tracer never edits the library.  It replaces module attributes and class
attributes with timing wrappers while installed and puts the originals back
when uninstalled.  A function imported into another module with
``from .x import y`` is a second binding of the same object, so every module
of the package is searched and each binding is wrapped.

Spans are kept in memory as parallel arrays (name, parent, start, end) and
written out once at the end.  Everything runs in one thread, so a plain list
serves as the span stack and child spans nest strictly inside their parent.
A span's self time is its duration minus the durations of its direct
children.  Busy time of a name counts only its outermost spans, so recursion
through the same function is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.span_name)
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(1 if depth == 0 else 0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()
        self._open[self.names[self.span_name[idx]]] -= 1

    def is_open(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrappers ----------------------------------------------------------

    def timed(self, fn, name):
        """A wrapper that records one span per call of ``fn``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return wrapper

    def timed_generator(self, fn, name):
        """A wrapper for a generator function that times only its own steps.

        Each ``next()`` on the wrapped generator is one span, so the time the
        consumer spends between steps is not charged to the generator.
        """
        begin, end, count = self.begin, self.end, self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name + ".calls")
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        end(idx)
                        return
                    except BaseException:
                        end(idx)
                        raise
                    end(idx)
                    count(name + ".yielded")
                    yield item
            finally:
                gen.close()

        return wrapper

    def counted(self, fn, key):
        """A wrapper that only counts calls; no span, so it stays cheap."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def patch_function(self, package: str, module, attr: str, wrapper_of) -> None:
        """Wrap ``module.attr`` and every other binding of the same object.

        Bindings are searched in every loaded module whose name starts with
        ``package``.
        """
        original = getattr(module, attr)
        wrapped = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapped)

    def patch_method(self, cls, attr: str, wrapper_of) -> None:
        """Wrap a method defined on ``cls`` itself (plain or static)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self.replace(cls, attr, staticmethod(wrapper_of(raw.__func__)))
        else:
            self.replace(cls, attr, wrapper_of(raw))

    def replace(self, owner, key, value) -> None:
        """Set ``owner.key`` to ``value``, remembering what to restore."""
        had = key in vars(owner)
        self._undo.append((owner, key, vars(owner).get(key), had))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put every original binding back, most recent first."""
        while self._undo:
            owner, key, old, had = self._undo.pop()
            if had:
                setattr(owner, key, old)
            else:
                delattr(owner, key)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, busy seconds (outermost spans) and self seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if self.span_outer[i]:
                rec["busy_s"] += dur
        return out

    def write(self, path) -> None:
        """Write every span as gzip CSV: id, parent, name, start and end."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.span_parent[i]},{names[self.span_name[i]]},"
                    f"{self.span_start[i] - t0:.7f},{self.span_end[i] - t0:.7f}\n"
                )


def busy_of_layer(tracer: Tracer, prefix: str) -> float:
    """Time covered by spans whose name starts with ``prefix``, nesting counted once."""
    total = 0.0
    names = tracer.names
    for i in range(len(tracer.span_name)):
        if not names[tracer.span_name[i]].startswith(prefix):
            continue
        p = tracer.span_parent[i]
        while p >= 0 and not names[tracer.span_name[p]].startswith(prefix):
            p = tracer.span_parent[p]
        if p < 0:
            total += tracer.span_end[i] - tracer.span_start[i]
    return total
