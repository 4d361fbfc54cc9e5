"""Spans around nlslab's layer boundaries, installed from outside.

``Tracer.install`` replaces each target function by a wrapper that
records a span (calls, total and self time) and, for a few targets, a
counter.  Every binding of the original object in a loaded ``nlslab``
module is replaced, so re-exports and names imported with ``from ...
import`` (``nlslab.cli.evolve``, ``nlslab.cli.write_field``) are traced
too.  ``restore`` puts every original back.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

MARK = "__bench_span__"

# (module, attribute path) of every traced boundary; the span is named
# "<module>.<attribute path>"
TARGETS = (
    ("evolve", "evolve"),
    ("evolve", "evolve_linear"),
    ("evolve", "SplitStepper.__init__"),
    ("evolve", "SplitStepper.step"),
    ("observables", "record"),
    ("observables", "scattering_cauchy_diagnostic"),
    ("checkpoint", "write_field"),
    ("checkpoint", "read_field"),
    ("groundstate", "solve_ground_state"),
    ("cli", "main"),
)

OBSERVED = (
    "evolve.SplitStepper.__init__",
    "checkpoint.write_field",
    "groundstate.solve_ground_state",
)


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans = {}
        self.counters = {"bytes_written": 0, "builds": 0}
        self.solve_keys = []
        self._stack = []  # child time accumulated per open span
        self._patched = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += elapsed
            s = self.spans.get(name)
            if s is None:
                s = self.spans[name] = Span()
            s.calls += 1
            s.total += elapsed
            s.self_time += elapsed - children

    def _observe(self, name, a):
        if name == "evolve.SplitStepper.__init__":
            self.counters["builds"] += 1
        elif name == "checkpoint.write_field":
            # computed from the field size: the complex128 payload only
            self.counters["bytes_written"] += a["field"].values.size * 16
        elif name == "groundstate.solve_ground_state":
            grid = tuple(sorted(a["grid"].describe().items()))
            self.solve_keys.append((a["d"], float(a["alpha"]), grid))

    def _wrapper(self, name, fn):
        tracer = self
        signature = inspect.signature(fn) if name in OBSERVED else None

        def wrapped(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                tracer._observe(name, bound)
            return tracer.span(name, fn, *args, **kwargs)

        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__qualname__ = getattr(fn, "__qualname__", name)
        wrapped.__wrapped__ = fn
        setattr(wrapped, MARK, name)
        return wrapped

    # -- installing -----------------------------------------------------

    def install(self):
        for module_name, path in TARGETS:
            module = importlib.import_module(f"nlslab.{module_name}")
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrapper(f"{module_name}.{path}", original)
            if owners:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in _nlslab_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def self_time(self, name):
        s = self.spans.get(name)
        return s.self_time if s else 0.0

    def calls(self, name):
        s = self.spans.get(name)
        return s.calls if s else 0


def _nlslab_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "nlslab" or n.startswith("nlslab."))
    ]


def installed_wrappers():
    """Names of span wrappers still bound anywhere in nlslab."""
    found = []
    for mod in _nlslab_modules():
        for name, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
