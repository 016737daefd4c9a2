"""Span recorder that times calls into each layer from outside the program.

``Recorder.install`` rebinds the layers' public callables wherever the
program looks them up — class attributes for methods; module globals,
``from``-imported aliases and default-argument values for functions — and
``uninstall`` puts the originals back.  Nothing under ``src/`` knows about
it.  Spans are kept in memory (name, start, end, parent span, wave id) and
written as Chrome trace JSON when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from contextlib import contextmanager

#: (span name, module, attribute path).  One span name per public callable;
#: the layer is the name's prefix.
TARGETS = (
    ("runtime.scheduler.submit", "repro.runtime.scheduler", "QueryService.submit_many"),
    ("runtime.scheduler.drain", "repro.runtime.scheduler", "QueryService.drain"),
    ("runtime.scheduler.apply_mutations", "repro.runtime.scheduler", "QueryService.apply_mutations"),
    ("runtime.session.run_batch", "repro.runtime.session", "GraphSession.run_batch"),
    ("runtime.session.run_batch_pool", "repro.runtime.session", "GraphSession.run_batch_pool"),
    ("runtime.session.apply_mutations", "repro.runtime.session", "GraphSession.apply_mutations"),
    ("runtime.session.index", "repro.runtime.session", "GraphSession.index"),
    ("runtime.engine.run", "repro.runtime.engine", "SuperstepEngine.run"),
    ("runtime.comm.exchange", "repro.runtime.comm", "exchange_sync"),
    ("runtime.message.combine", "repro.runtime.message", "combine_or"),
    ("core.khop.compute", "repro.core.khop", "KHopPartitionTask.compute"),
    ("core.khop.apply", "repro.core.khop", "KHopPartitionTask.apply_inbox"),
    ("core.khop.finalize", "repro.core.khop", "KHopPartitionTask.finalize"),
    ("core.khop.batch", "repro.core.khop", "concurrent_khop"),
    ("index.planner.answer", "repro.index.planner", "IndexPlanner.answer"),
    ("index.planner.answer_cached", "repro.index.planner", "IndexPlanner.answer_cached"),
    ("index.incremental.apply", "repro.index.incremental", "IncrementalIndex.apply"),
    ("index.incremental.finalize", "repro.index.incremental", "IncrementalIndex.finalize"),
    ("index.build.build", "repro.index.build", "build_hub_labels"),
    ("qos.cache.lookup", "repro.qos.cache", "ResultCache.lookup_many"),
    ("qos.cache.store", "repro.qos.cache", "ResultCache.store_many"),
    ("qos.locality.select", "repro.qos.locality", "affinity_select"),
    ("runtime.pool.start", "repro.runtime.pool", "WorkerPool.__init__"),
    ("runtime.pool.ensure_task", "repro.runtime.pool", "WorkerPool.ensure_task"),
    ("runtime.pool.run", "repro.runtime.pool", "WorkerPool.run"),
    ("dynamic.delta.apply", "repro.dynamic.delta", "DynamicGraph.apply"),
    ("dynamic.delta.compact", "repro.dynamic.delta", "DynamicGraph.compact"),
    ("dynamic.wal.append", "repro.dynamic.wal", "WriteAheadLog.append"),
    ("dynamic.wal.sync", "repro.dynamic.wal", "WriteAheadLog.sync"),
    ("runtime.durability.on_mutation", "repro.runtime.durability", "DurabilityManager.on_mutation"),
    ("runtime.durability.checkpoint", "repro.runtime.durability", "DurabilityManager.checkpoint"),
    ("graph.load", "repro.graph.datasets", "load_dataset"),
    ("graph.partition", "repro.graph.partition", "range_partition"),
)

SETUP_WAVE = -1
# span fields
NAME, START, END, PARENT, WAVE = range(5)


def _functions_of(module):
    """Every plain function a ``repro`` module defines, methods included."""
    for value in list(vars(module).values()):
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for attr in vars(value).values():
                attr = getattr(attr, "__func__", attr)  # static/classmethod
                if isinstance(attr, types.FunctionType):
                    yield attr


def _rebind_function(old, new) -> None:
    """Replace ``old`` by ``new`` in every loaded ``repro`` module: globals
    (which covers ``from x import f`` aliases) and argument defaults (which
    covers ``def run(combiner=combine_or)``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
        for fn in _functions_of(module):
            if fn.__defaults__ and any(d is old for d in fn.__defaults__):
                fn.__defaults__ = tuple(
                    new if d is old else d for d in fn.__defaults__
                )
            if fn.__kwdefaults__:
                for key, d in fn.__kwdefaults__.items():
                    if d is old:
                        fn.__kwdefaults__[key] = new


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.wave = SETUP_WAVE
        self._stack: list[int] = []
        self._hooks: dict = {}
        self._installed: list[tuple] = []

    def on(self, span_name: str, hook) -> None:
        """Call ``hook(args, kwargs, result)`` after each ``span_name`` call
        (for counts taken where the work happens)."""
        self._hooks[span_name] = hook

    # -- recording ----------------------------------------------------------- #

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (the per-wave root)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.wave])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index)
            hook = recorder._hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- rebinding ----------------------------------------------------------- #

    def install(self) -> None:
        # import everything first, so every alias a rebind must reach exists
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        for span_name, module_name, path in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(span_name, original))
                self._installed.append((owner, attr, original, None))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original)
                _rebind_function(original, wrapper)
                self._installed.append((None, attr, original, wrapper))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, wrapper = self._installed.pop()
            if owner is not None:
                setattr(owner, attr, original)
            else:
                _rebind_function(wrapper, original)

    # -- reading ------------------------------------------------------------- #

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self, waves_only: bool = True) -> dict:
        """``name -> {"n", "span_s", "self_s"}`` summed over the spans of the
        traced waves (or of every span, set-up included)."""
        out: dict = {}
        for s, own in zip(self.spans, self.self_seconds()):
            if waves_only and s[WAVE] < 0:
                continue
            row = out.setdefault(s[NAME], {"n": 0, "span_s": 0.0, "self_s": 0.0})
            row["n"] += 1
            row["span_s"] += s[END] - s[START]
            row["self_s"] += own
        return out

    def write_chrome_trace(self, path) -> None:
        """Chrome ``about:tracing`` / Perfetto JSON: one complete event per
        span, ``args`` carrying the parent span and the wave id."""
        t0 = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": s[NAME],
                "cat": s[NAME].rsplit(".", 1)[0],
                "ph": "X",
                "ts": (s[START] - t0) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": i, "parent": s[PARENT], "wave": s[WAVE]},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
