"""Span tracing of the sbhermite layers from outside the program.

``Tracer.install`` wraps every public module-level function of the layer
modules (plus the config and report methods of ``pipeline``) and rebinds
each wrapper wherever the original is looked up: in its own module, in
every consumer that imported it by name (``pipeline`` imports
``gram_matrix`` and ``hermite_family``, ``integrals`` imports ``apply_op``,
``transform`` imports ``hphi_inner`` and ``make_moment_cache``), and in the
``sbhermite`` package namespace.  ``uninstall`` restores the originals, so
untraced passes run the unmodified program.

Spans (layer, function, start, end, parent) stay in memory and are
reduced when a pass ends.  A span's self time is its duration minus the
durations of its direct children; the self times of all spans, including
the benchmark's own ``bench`` root span around each operation, add up to
the traced pass time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "pipeline", "model", "gausspoly", "integrals", "transform")
# helper modules: their functions run inside the calling layer's spans
HELPERS = ("matrices", "errors")
# public methods wrapped in addition to module-level functions
METHODS = {"pipeline": {"RunConfig": ("from_dict", "from_json"),
                        "VerificationReport": ("to_dict", "to_json")}}


def _nodes(quad) -> int:
    return 64 if quad is None else quad.nodes


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("sbhermite")
        self.modules = {name: importlib.import_module(f"sbhermite.{name}")
                        for name in LAYERS + HELPERS}
        self._patches: list = []
        self.reset()

    # -- recording ---------------------------------------------------------
    def reset(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.caches: list = []

    def _wrap(self, layer: str, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack
        key = (layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (key, start, end, parent)
            if name == "make_moment_cache":
                self.caches.append(result)
            elif name == "hermite_family":
                self.counts["gausspoly.family.members"] += len(result)
                self.counts["gausspoly.family.terms"] += sum(
                    len(m.poly.terms) for m in result.values())
            return result

        return traced

    def op(self, fn):
        """Run one benchmark operation inside a root ``bench`` span; call
        only between ``install`` and ``uninstall``."""
        return self._wrap("bench", "op", fn)()

    # -- work counters computed from arguments ------------------------------
    def _quad_hook(self, name: str, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if name == "transform_batch":
                points = len(a["Z"]) * _nodes(a["quad"]) ** a["pt"].n
            elif name == "kernel_reproduce":
                points = _nodes(a["quad"]) ** (2 * a["F"].n)
            elif name == "inverse_transform":
                points = _nodes(a["quad"]) ** (2 * a["pt"].n)
            elif a["mode"] == "quad":  # isometry_residual; fit samples via transform_batch
                points = _nodes(a["quad"]) ** (2 * a["pt"].n)
            else:
                points = 0
            self.counts["transform.quad_points"] += points

        return hook

    # -- patching -----------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        wrapped = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                hook = None
                if layer == "transform" and name in (
                        "transform_batch", "kernel_reproduce", "inverse_transform",
                        "isometry_residual"):
                    hook = self._quad_hook(name, fn)
                wrapped[id(fn)] = (fn, self._wrap(layer, name, fn, hook))
        consumers = [self.package] + list(self.modules.values())
        for mod in consumers:
            for attr, value in list(vars(mod).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        for layer, classes in METHODS.items():
            mod = self.modules[layer]
            for cls_name, names in classes.items():
                cls = getattr(mod, cls_name)
                for name in names:
                    raw = cls.__dict__[name]
                    self._patches.append((cls, name, raw))
                    if isinstance(raw, classmethod):
                        fn = self._wrap(layer, f"{cls_name}.{name}", raw.__func__)
                        setattr(cls, name, classmethod(fn))
                    else:
                        setattr(cls, name, self._wrap(layer, f"{cls_name}.{name}", raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reduction ----------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer self times, per-function self times and call counts,
        plus the counters, for the spans recorded since ``install``."""
        child_time = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_self: dict = defaultdict(float)
        func_self: dict = defaultdict(float)
        calls: Counter = Counter()
        for (key, start, end, _), children in zip(self.spans, child_time):
            own = end - start - children
            layer_self[key[0]] += own
            func_self[f"{key[0]}.{key[1]}"] += own
            calls[key[0]] += 1
            calls[f"{key[0]}.{key[1]}"] += 1
        roots = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        counts = dict(self.counts)
        counts["integrals.moment_caches"] = len(self.caches)
        counts["integrals.moments_memoized"] = sum(len(c.memo) for c in self.caches)
        return {"layer_self": dict(layer_self), "func_self": dict(func_self),
                "calls": dict(calls), "counts": counts, "traced_s": roots}
