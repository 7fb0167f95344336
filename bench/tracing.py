"""Outside-in tracing of cdt: span wrappers at every binding site.

``Tracer.install`` wraps each public function of every cdt layer module, at
every module attribute that holds it (cdt modules import with
``from .x import y``, so patching only the defining module would miss
calls), plus the methods that do the scalar work.  Nothing inside cdt is
edited; ``uninstall`` restores every attribute.

A span is (id, name, start, end, parent).  Self time is a span's duration
minus the time its child spans cover; it is aggregated per layer as spans
close, so memory stays bounded, and full span records are kept only while
``recording`` is set.  A direct recursive call of the same function is not
a new span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "generators",
    "means",
    "convexity",
    "divergences",
    "bhattacharyya",
    "quadrature",
    "centroids",
    "expectations",
    "expr",
    "cli",
)

#: Methods that do work, by layer: they are wrapped on the class.
METHODS = {
    "generators": (("Generator", "value"), ("Generator", "inv"), ("Generator", "deriv")),
    "convexity": (("FunctionModel", "value"), ("FunctionModel", "deriv")),
    "divergences": (("QabdSpec", "__post_init__"),),
}

F_VALUE = "convexity.FunctionModel.value"
MIDPOINT = "divergences.midpoint_verdict"
DOMINATES = "means.dominates"
MEAN_VALUE = "means.mean_value"


class PointCounter:
    """Counts the points at which wrapped callables are evaluated."""

    def __init__(self) -> None:
        self.points = 0

    def wrap(self, fn):
        counter = self

        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            counter.points += int(getattr(x, "size", 1))
            return fn(x, *args, **kwargs)

        return counted


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.recording = False
        self.max_spans = 200_000
        self._next_id = 0
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Zero the aggregates (not the recorded spans)."""
        self.calls: dict[str, int] = {}
        self.layer_calls = [0] * len(LAYERS)
        self.layer_self = [0.0] * len(LAYERS)
        self.verdict_calls = 0
        self.verdict_hits = 0
        self.dominance_evals = 0

    def take(self) -> dict:
        """Aggregates since the last take/reset, then reset."""
        out = {
            "layer_calls": dict(zip(LAYERS, self.layer_calls)),
            "layer_self_s": dict(zip(LAYERS, self.layer_self)),
            "calls": dict(self.calls),
            "verdict_calls": self.verdict_calls,
            "verdict_hits": self.verdict_hits,
            "dominance_samples": self.dominance_evals // 2,
        }
        self.reset()
        return out

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, layer: int, fn):
        tracer = self
        clock = time.perf_counter
        is_midpoint = name == MIDPOINT
        is_mean_value = name == MEAN_VALUE

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            mark = tracer.calls.get(F_VALUE, 0) if is_midpoint else 0
            frame = [name, 0.0, 0.0, sid]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.layer_self[layer] += dur - frame[2]
                tracer.layer_calls[layer] += 1
                calls = tracer.calls
                calls[name] = calls.get(name, 0) + 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                    if is_mean_value and parent[0] == DOMINATES:
                        tracer.dominance_evals += 1
                if is_midpoint:
                    tracer.verdict_calls += 1
                    if calls.get(F_VALUE, 0) == mark:
                        tracer.verdict_hits += 1
                if tracer.recording and len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((sid, name, start, end, parent[3] if parent else None))

        return span

    def install(self) -> None:
        wrappers: dict[int, tuple] = {}
        for idx, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"cdt.{layer}")
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(val)] = (val, self._wrap(f"{layer}.{attr}", idx, val))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                label = cls_name if meth == "__post_init__" else f"{cls_name}.{meth}"
                setattr(cls, meth, self._wrap(f"{layer}.{label}", idx, orig))
                self._patched.append((cls, meth, orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "cdt" and not modname.startswith("cdt."):
                continue
            for attr, val in list(vars(mod).items()):
                entry = wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()
