"""Per-layer spans for sdpcert, installed from outside the package.

Every public function of a layer module, and every public method and
arithmetic dunder of the classes it defines, is replaced by a wrapper that
records a span: name, start, end and parent. The wrapper goes into every
``sdpcert`` module namespace that imported the name, so a call made through
``sdpcert.coverage.is_unit`` is counted as well as one through
``sdpcert.quotient.is_unit``. ``__init__``, ``__eq__``, ``__hash__`` and
``__bool__`` are not wrapped: they run inside set and dict lookups far more
often than any kernel, and a wrapper there would cost more than the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "coverage", "quotient", "group_ring", "linalg", "monomial", "tower",
          "finitefield", "crossed")

ARITHMETIC_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__pow__", "__truediv__", "__rtruediv__",
})

# Spans whose return value is measured as well as timed: the size of the
# fixed-unit pool that coverage builds.
SIZE_PROBES = ("coverage.fixed_unit_generators",)

# Spans kept in memory for the trace file; counts and self times go on past it.
SPAN_CAP = 250_000


def traced_targets():
    """Yield (owner, attribute, descriptor kind, function, span name) for every wrapped callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"sdpcert.{layer}")
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if not inspect.isgeneratorfunction(obj):
                    yield module, name, None, obj, f"{layer}.{obj.__qualname__}"
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in sorted(vars(obj).items()):
                    if attr.startswith("_") and attr not in ARITHMETIC_DUNDERS:
                        continue
                    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                    fn = raw.__func__ if kind else raw
                    if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                        yield obj, attr, kind, fn, f"{layer}.{fn.__qualname__}"


def layer_of(span_name):
    return span_name.split(".", 1)[0]


class Tracer:
    """Counts calls and self time per span name; optionally keeps the spans themselves."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.counts = []
        self.self_s = []
        self.sizes = {}
        self._stack = []
        self._patches = []
        self._next_id = 0
        self.keep_spans = False
        self.spans_dropped = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
            self.self_s.append(0.0)
        return self._index[name]

    def _wrap(self, fn, name):
        idx = self._name_index(name)
        probe = name in SIZE_PROBES
        if probe:
            self.sizes.setdefault(name, 0)
        stack = self._stack
        counts = self.counts
        self_s = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                counts[idx] += 1
                self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.keep_spans:
                    self._keep(span_id, idx, start, end, stack[-1][0] if stack else -1)
            if probe:
                self.sizes[name] += len(result)
            return result

        return wrapper

    def _keep(self, span_id, idx, start, end, parent):
        if len(self.span_id) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        self.span_id.append(span_id)
        self.span_name.append(idx)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)

    def install(self):
        """Wrap every target and rebind each sdpcert module global that referred to one."""
        wrappers = {}
        for owner, attr, kind, fn, name in traced_targets():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(fn, name))
            wrapped = wrappers[id(fn)][1]
            self._patch(owner, attr, kind(wrapped) if kind else wrapped)
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "sdpcert" or mod_name.startswith("sdpcert.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self):
        """Copies of the running totals, to be differenced around one op."""
        return list(self.counts), list(self.self_s), dict(self.sizes)

    def spans_as_json(self):
        return {
            "names": list(self.names),
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": [
                [self.span_id[i], self.span_name[i], self.span_start[i], self.span_end[i],
                 self.span_parent[i]]
                for i in range(len(self.span_id))
            ],
            "dropped": self.spans_dropped,
        }


def profile_counts(call):
    """Calls per span name of every traced target, counted by sys.setprofile while call() runs.

    The independent cross-check of the wrappers: it sees each Python-level
    call of the original code objects, however the caller reached them.
    """
    codes = {inspect.unwrap(fn).__code__: name for _, _, _, fn, name in traced_targets()}
    counts = {}

    def profiler(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] = counts.get(name, 0) + 1

    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts
