"""Spans and field-op counts recorded from outside the program.

Both instruments replace attributes with wrappers and restore them on exit.
A function is rebound in every relbc namespace that holds it, because
`from .x import y` binds the name in the importing module too.  Field ops
are only counted, never spanned: a sweep makes millions of them.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("field", "games", "protocol", "adversary", "analysis")

# Methods spanned besides the public module functions.
SPANNED_METHODS = (("adversary", "CheatStrategy", ("responses", "respond")),)

FIELD_OPS = ("add", "sub", "mul", "neg", "inv")


def _namespaces():
    """relbc's modules and the benchmark's workloads, which import from it."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name in ("relbc", "workloads")
                                  or name.startswith("relbc."))]


class _Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind(self, func, wrapper) -> None:
        """Replace `func` with `wrapper` in every namespace that binds it."""
        for module in _namespaces():
            for name, value in list(vars(module).items()):
                if value is func:
                    self.set(module, name, wrapper)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def _module(layer: str):
    return sys.modules[f"relbc.{layer}"]


def spanned_functions():
    """(span name, layer, function) for every public relbc function."""
    out = []
    for layer in LAYERS:
        module = _module(layer)
        for name, value in sorted(vars(module).items()):
            if (inspect.isfunction(value) and not name.startswith("_")
                    and value.__module__ == module.__name__):
                out.append((f"{layer}.{name}", layer, value))
    return out


class Tracer:
    """Records a span per call: name, start, end and parent, kept in memory
    as flat arrays and aggregated once the traced solve has finished."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patch = _Patcher()

    def _wrap(self, fid: int, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return wrapper

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def __enter__(self):
        for name, layer, func in spanned_functions():
            self._patch.rebind(func, self._wrap(self._register(name, layer), func))
        for layer, cls_name, methods in SPANNED_METHODS:
            cls = getattr(_module(layer), cls_name)
            for meth in methods:
                fid = self._register(f"{layer}.{cls_name}.{meth}", layer)
                self._patch.set(cls, meth, self._wrap(fid, cls.__dict__[meth]))
        return self

    def __exit__(self, *exc):
        self._patch.restore()

    def __len__(self) -> int:
        return len(self.name_id)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self time in seconds, and how many
        of its calls ran under a span of the analysis layer."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        under_analysis = [False] * n
        out = {name: {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0,
                      "calls_under_analysis": 0}
               for name, layer in zip(self.names, self.layers)}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                under_analysis[i] = (under_analysis[p]
                                     or self.layers[self.name_id[p]] == "analysis")
            entry = out[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["total_s"] += dur[i] / 1e9
            entry["self_s"] += (dur[i] - child[i]) / 1e9
            entry["calls_under_analysis"] += under_analysis[i]
        return out


class OpCounter:
    """Counts FieldSpec add/sub/mul/neg/inv calls, in total and inside
    transcript evaluation (CheatStrategy.responses and verify_values)."""

    def __init__(self):
        self.ops = 0
        self.transcript_ops = 0
        self.transcripts = 0
        self._patch = _Patcher()

    def _count(self, fn):
        def wrapper(*args):
            self.ops += 1
            return fn(*args)
        return wrapper

    def _transcript_part(self, fn, is_verify: bool):
        def wrapper(*args, **kwargs):
            before = self.ops
            try:
                return fn(*args, **kwargs)
            finally:
                self.transcript_ops += self.ops - before
                self.transcripts += is_verify
        return wrapper

    def __enter__(self):
        spec_cls = _module("field").FieldSpec
        for op in FIELD_OPS:
            self._patch.set(spec_cls, op, self._count(spec_cls.__dict__[op]))
        cheat = _module("adversary").CheatStrategy
        self._patch.set(cheat, "responses",
                        self._transcript_part(cheat.__dict__["responses"], False))
        verify = _module("protocol").verify_values
        self._patch.rebind(verify, self._transcript_part(verify, True))
        return self

    def __exit__(self, *exc):
        self._patch.restore()
