"""Module-boundary tracing from outside the program.

``Tracer.install`` replaces every public function of abmink's five modules,
in every module namespace that holds it (so the names ``runner`` and
``scenarios`` import from ``core`` are covered too), plus the three methods
the benchmark reports on, with a wrapper that records a span.  Spans are
aggregated as they close: each one adds its duration to its function's
inclusive time and its duration minus its children's to the function's and
module's self time.  ``uninstall`` puts the originals back; a ``with``
block does both.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("cli", "runner", "scenarios", "core", "covariant")
METHODS = (("core", "Medium", "from_index"), ("core", "FieldPoint", "from_EH"),
           ("core", "PlaneWave", "field_at"))
# Called ~100 times inside each quadrature: counted, not timed, so that the
# wrapper's cost does not swamp the calls it sits in.
COUNT_ONLY = ("scenarios.metal_fields",)


class Stat:
    __slots__ = ("calls", "incl_ns", "self_ns", "rows")

    def __init__(self):
        self.calls = self.incl_ns = self.self_ns = self.rows = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[int] = []  # children's time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _span(self, fn, name):
        stat, stack, clock = self.stat(name), self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.incl_ns += dt
                stat.self_ns += dt - child
        return wrapper

    def _emit_span(self, fn):
        """``runner.emit`` is kept per format, with the rows it emitted."""
        spans = {}

        @functools.wraps(fn)
        def wrapper(report, fmt="table"):
            name = f"runner.emit.{fmt}"
            if name not in spans:
                spans[name] = self._span(fn, name)
            self.stat(name).rows += len(report.rows)
            return spans[name](report, fmt)
        return wrapper

    def _counter(self, fn, name):
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, fn, name):
        if name == "runner.emit":
            return self._emit_span(fn)
        if name in COUNT_ONLY:
            return self._counter(fn, name)
        return self._span(fn, name)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: sys.modules[f"abmink.{m}"] for m in MODULES}
        wrappers = {}  # id(original) -> its wrapper, which holds the original
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (callable(obj) and not isinstance(obj, type)
                        and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for ns in [*mods.values(), sys.modules["abmink"]]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._set(ns, attr, wrappers[id(obj)])
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[attr]
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._set(cls, attr, self._wrap(raw, name))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def module_totals(self) -> dict[str, tuple[int, int]]:
        """module -> (calls, self ns) summed over its functions."""
        out = {m: [0, 0] for m in MODULES}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]][0] += st.calls
            out[name.split(".", 1)[0]][1] += st.self_ns
        return {m: (c, s) for m, (c, s) in out.items()}
