"""In-memory span tracing by wrapping functions from outside the program.

A span is (name, start, end, parent, item): the wrapped function's layer and
name, perf_counter times, the index of the enclosing span (-1 at top level)
and the ordinal of the workload item (record, step or question) it belongs
to. Wrappers are installed where each caller looks the function up (a module
global or a class attribute), so ``qgen`` itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def replace_function(patches: Patches, owner, attr, make):
    """Replace owner.attr by make(function); class- and staticmethods keep
    their kind."""
    raw = owner.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        patches.set(owner, attr, type(raw)(make(raw.__func__)))
    else:
        patches.set(owner, attr, make(raw))


def resolve(site: str):
    """'qgen.model:matmul' -> (module, 'matmul');
    'qgen.model:TransformerModel.decode' -> (class, 'decode')."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self, item_span: str):
        self.item_span = item_span
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self.item = -1
        self._patches = Patches()

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        starts_item = name == self.item_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_item:
                self.item += 1
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, sites):
        """sites: (site, span name, counter or None) triples."""
        for site, name, count in sites:
            owner, attr = resolve(site)
            replace_function(
                self._patches, owner, attr,
                lambda fn, name=name, count=count: self._wrap(name, fn, count),
            )

    def uninstall(self):
        self._patches.restore()

    def end_op(self):
        """Fold the distinct values seen in one operation into counters."""
        for key, values in self.seen.items():
            self.counters[f"{key}.distinct"] += len(values)
        self.seen.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\titem\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")


class SpanStats:
    """Per-name aggregates of a span list. Self time is a span's duration
    minus the time its direct children cover. Keys are span names and
    (span name, parent span name) pairs."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.durations = defaultdict(list)
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self.durations[name].append(dur)
            for key in (name, (name, spans[parent][0] if parent >= 0 else "")):
                self.calls[key] += 1
                self.self_s[key] += dur - child[i]
                self.incl_s[key] += dur

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items()
                   if isinstance(k, str) and k.startswith(prefix))
