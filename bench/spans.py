"""In-process tracing of the package's public functions.

`Tracer.install` replaces every public function attribute of the traced
modules, including names a module re-imports from another (such as
`deperr.errors.series_hazard`), with a wrapper that records a span.  Spans
carry a name (`<defining module>.<function>`), start, end and parent; self
time is the span's duration minus the time covered by its child spans.
Totals are accumulated as spans close, the first `SPAN_CAP` spans are kept
in memory and written out by `write`.  `uninstall` restores the originals.
Nothing in the package's source is edited.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

SPAN_CAP = 100_000
LAYERS = ("cli", "grids", "models", "errors", "parallel", "simulate")


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span recorder; `watch` names (outer, inner) call pairs to count."""

    def __init__(self, watch=()) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.active: Counter = Counter()
        self.nested: Counter = Counter()
        self.watch = {}
        for outer, inner in watch:
            self.watch.setdefault(inner, []).append(outer)
        self.observers: dict[str, list] = defaultdict(list)
        self.spans: list[tuple] = []
        self.span_count = 0
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def observe(self, name: str, fn) -> None:
        """Call fn(args, kwargs, result) after each call of span `name`."""
        self.observers[name].append(fn)

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        active = self.active
        outers = self.watch.get(name, ())
        observers = self.observers[name]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            span_id = tracer.span_count
            tracer.span_count += 1
            for outer in outers:
                if active[outer]:
                    tracer.nested[(outer, name)] += 1
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                dur = end - start
                stats.calls += 1
                stats.total += dur
                stats.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span_id < SPAN_CAP:
                    tracer.spans.append((span_id, parent, name, start, end))
            for obs in observers:
                obs(args, kwargs, result)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap each public deperr function reachable as a module attribute."""
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(value):
                    continue
                key = id(value)
                if key not in wrappers:
                    wrappers[key] = self._wrap(span_name(value), value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layer_self_time(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += stat.self_time
        return out

    def write(self, path) -> None:
        """Write the kept spans and per-name totals as one JSON document."""
        doc = {
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans_recorded": self.span_count,
            "spans_kept": len(self.spans),
            "spans": self.spans,
            "totals": {
                name: {"calls": s.calls, "total_s": s.total,
                       "self_s": s.self_time}
                for name, s in sorted(self.stats.items()) if s.calls
            },
        }
        path.write_text(json.dumps(doc))


def _is_traceable(value) -> bool:
    module = getattr(value, "__module__", "") or ""
    if not module.startswith("deperr.") or module == "deperr.numerics":
        return False
    if isinstance(value, functools._lru_cache_wrapper):
        return True
    return inspect.isfunction(value)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
