"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions of the `imrc` package from the outside: every
function in a module's `__all__` (for `cli`, which has no `__all__`, every
public function it defines) is replaced by a timing wrapper, in the module
that defines it and in every `imrc` namespace that imported it, so calls
between modules are seen too. Classes are left alone; the benchmark times
`ChannelSetup` construction itself through `Tracer.wrap`.

A span is (id, parent id, name, start, end, item id, counting flag). Spans
stay in memory, up to a cap, and are written out once at the end. Per-name
durations and self times (a span's duration minus that of its direct
children) are aggregated as spans close, so the metrics do not depend on
the cap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array

MODULES = ("model", "beamforming", "rates", "lowpower", "search", "cli")
SPAN_CAP = 200_000


def _public_functions(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and inspect.isfunction(v)
                 and v.__module__ == module.__name__]
    return [getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n))]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.item = -1            # id of the item being run
        self.counting = False     # True during the first traced pass
        self.prefix = ""          # "aux:" while running auxiliary calls
        self.spans: list[tuple] = []
        self.durations: dict[str, array] = {}
        self.self_total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.pair_calls: dict[tuple[str, str], int] = {}
        self.root_total = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """A callable that runs fn inside a span called name."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, parent, start, end)

        return traced

    def _close(self, frame, parent, start: float, end: float) -> None:
        span_id, name, child_time = frame
        name = self.prefix + name
        duration = end - start
        if parent is None:
            if not self.prefix:
                self.root_total += duration
        else:
            parent[2] += duration
        self.durations.setdefault(name, array("d")).append(duration)
        self.self_total[name] = self.self_total.get(name, 0.0) + duration - child_time
        if self.counting:
            self.calls[name] = self.calls.get(name, 0) + 1
            if parent is not None:
                key = (self.prefix + parent[1], name)
                self.pair_calls[key] = self.pair_calls.get(key, 0) + 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, None if parent is None else parent[0],
                               name, start, end, self.item, self.counting))

    def install(self) -> None:
        modules = [importlib.import_module(f"imrc.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for fn in _public_functions(module):
                if fn.__module__ == module.__name__:
                    wrappers[fn] = self.wrap(fn, f"{short}.{fn.__name__}")
        namespaces = [importlib.import_module("imrc"),
                      importlib.import_module("imrc.errors")] + modules
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrappers[value])

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_s,end_s,item,counting\n")
            for span_id, parent, name, start, end, item, counting in self.spans:
                handle.write(f"{span_id},{'' if parent is None else parent},"
                             f"{name},{start!r},{end!r},{item},{int(counting)}\n")
