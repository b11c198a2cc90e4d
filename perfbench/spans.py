"""Span tracer for the traced benchmark passes.

The tracer wraps, from outside the package, every public function of each scx
module (the names in ``__all__``, or the public functions of a module without
one), the public methods of ``SimplicialComplex`` and ``FineEPolynomial``, and
the ``face_mask_set`` build. It rebinds each wrapped function in every scx
module namespace that holds it, so inner calls such as ``classify ->
is_eulerian`` or ``cli.run -> classify`` become child spans.

Each span records its name, start, end, parent span and item id in flat
arrays kept in memory; :meth:`Tracer.write` writes them out when the pass
ends. Generator functions are left alone: calling one does no work, and the
caller's span already covers the iteration.

In memory mode the tracer also reads ``tracemalloc`` at every span boundary
and keeps, per module, the largest peak any of its spans reached above the
traced memory at the span's start.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

CLASSES = {"complexes": ("SimplicialComplex",), "hilbert": ("FineEPolynomial",)}
HARNESS = "harness.item"


class Tracer:
    def __init__(self, memory: bool = False):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.item_id = array("i")
        self.memory = memory
        self.peak_bytes: dict[str, int] = {}
        self.enabled = True
        self._stack: list[list[int]] = []  # [span index, traced bytes at start, highest peak seen]
        self._item = -1

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> None:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.item_id.append(self._item)
        frame = [idx, 0, 0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame[1] = frame[2] = current
        self._stack.append(frame)
        self.start[idx] = time.perf_counter()

    def _close(self) -> None:
        now = time.perf_counter()
        idx, base, highest = self._stack.pop()
        self.end[idx] = now
        if self.memory:
            highest = max(highest, tracemalloc.get_traced_memory()[1])
            module = self.names[self.name_id[idx]].split(".", 1)[0]
            self.peak_bytes[module] = max(self.peak_bytes.get(module, 0), highest - base)
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], highest)

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    @contextlib.contextmanager
    def item(self, item_id: int):
        """The harness span around one item."""
        self._item = item_id
        self._open(self._id(HARNESS))
        try:
            yield
        finally:
            self._close()
            self._item = -1

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public API of every loaded scx module in place."""
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("scx.") and name != "scx.errors"}
        namespaces = [sys.modules["scx"], *modules.values()]
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            public = getattr(mod, "__all__", None) or [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__]
            for name in public:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
            for cls_name in CLASSES.get(short, ()):
                self._wrap_class(short, getattr(mod, cls_name))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, name, wrapped[id(obj)])

    def _wrap_class(self, short: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, functools.cached_property):
                prop = functools.cached_property(self.wrap(f"{short}.{name}", attr.func))
                prop.__set_name__(cls, name)
                setattr(cls, name, prop)
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                setattr(cls, name, self.wrap(f"{short}.{name}", attr))

    # -- results ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per span name; self time and peak bytes per module.

        A span's self time is its duration minus the durations of its direct
        children, which never overlap since everything runs on one thread.
        """
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            self_s[self.name_id[i]] += dur
            calls[self.name_id[i]] += 1
            if self.parent[i] >= 0:
                self_s[self.name_id[self.parent[i]]] -= dur
        by_name = {n: {"s": self_s[i], "calls": calls[i]} for i, n in enumerate(self.names)}
        modules: dict[str, float] = {}
        for name, rec in by_name.items():
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + rec["s"]
        return {"spans": len(self.start), "by_name": by_name, "module_s": modules,
                "module_peak_bytes": dict(self.peak_bytes)}

    def write(self, path: Path) -> None:
        """All spans, column by column, plus a JSON index beside them.

        ``path`` receives five native-endian arrays back to back, each with one
        entry per span: start and end (float64 seconds, perf_counter), name id,
        parent span index (-1 for none) and item id (int32). ``path`` with the
        suffix ``.json`` gives the span count and the names by id.
        """
        with open(path, "wb") as fh:
            for column in (self.start, self.end, self.name_id, self.parent, self.item_id):
                column.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.start), "names": self.names,
            "columns": ["start_s:f8", "end_s:f8", "name_id:i4", "parent:i4", "item:i4"]}))
