"""Per-layer spans for the benchmark's traced run, recorded from outside.

:func:`install` wraps the public entry points of each ``repro`` layer
(scheduler, stores, codec, stages, clustering, instrumentation, memory
oracles, perf model, runtime, workloads, renderers) in place, so one
traced ``repro`` run attributes its wall time to layers with no edit to
``src/``.  A callable that other modules bound with ``from x import y``
is replaced in every module that holds it.

Spans nest: a layer's *self time* is its span's duration minus the part
of that interval its child spans cover (:func:`self_times`).  Traced
runs are serial, so one process records every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["SpanRecorder", "install", "self_times"]


class SpanRecorder:
    """In-memory spans and counters of one traced process.

    A span is ``[id, parent_id, name, start, end]`` with
    :func:`time.perf_counter` stamps; counters are ``"<span>.<key>"``
    totals (``.calls`` for every wrapped call).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._started = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [self._started, parent, name, 0.0, 0.0]
        self._started += 1
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] += value

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name.

    Self time is a span's duration minus the union of its direct
    children's intervals, clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


# ------------------------------------------------------------------ wrappers
def _wrap(recorder: SpanRecorder, name, fn, size=None, *, timed: bool = True):
    """A wrapper of ``fn`` counting calls and, if ``timed``, opening a span.

    ``name`` is a span name, or a callable of the bound instance for
    methods whose span name depends on the instance (stages).  ``size``
    is an optional ``(counter key, reader)`` pair; the reader takes the
    call's ``(args, kwargs, result)`` and returns the amount to add.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(args[0])
        recorder.count(label + ".calls")
        if not timed:
            return fn(*args, **kwargs)
        span = recorder.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if size is not None:
            recorder.count(f"{label}.{size[0]}", size[1](args, kwargs, result))
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _rebind_function(recorder, name, module, attr, size=None, *, timed=True) -> None:
    """Wrap a module-level function in its module and every ``repro``
    module that imported it by value."""
    original = getattr(module, attr)
    wrapper = _wrap(recorder, name, original, size, timed=timed)
    for holder in list(sys.modules.values()):
        if not getattr(holder, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, wrapper)


def _wrap_method(recorder, name, cls, attr, size=None) -> None:
    original = cls.__dict__[attr]
    if not getattr(original, "__perfbench_wrapped__", False):
        setattr(cls, attr, _wrap(recorder, name, original, size))


def _classes_defining(package: str, attr: str):
    """Classes defined under ``package`` whose own body defines ``attr``."""
    root = importlib.import_module(package)
    modules = [root] + [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(root.__path__)
    ]
    for module in modules:
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and attr in value.__dict__
            ):
                yield value


def _arg_size(position: int, keyword: str):
    """Reader of an array argument's element count."""
    return lambda a, k, r: (a[position] if len(a) > position else k[keyword]).size


#: (span name, "module:function" or "module:Class.method", size reader).
_ENTRY_POINTS = (
    ("exec.scheduler", "repro.exec.scheduler:StudyScheduler.run", None),
    ("exec.cell", "repro.exec.scheduler:_execute_item", None),
    (
        "exec.stagestore.load",
        "repro.exec.stagestore:StageStore.load",
        ("hits", lambda a, k, r: int(r is not None)),
    ),
    ("exec.stagestore.store", "repro.exec.stagestore:StageStore.store", None),
    (
        "exec.columnar.write",
        "repro.exec.columnar:write_payload_atomic",
        ("bytes", lambda a, k, r: r),
    ),
    (
        "exec.columnar.read",
        "repro.exec.columnar:read_payload_file",
        ("bytes", lambda a, k, r: r[1] if r is not None else 0),
    ),
    ("exec.store.spill", "repro.exec.store:StudyStore.spill", None),
    ("exec.store.spill", "repro.exec.store:StudyStore.reclaim", None),
    ("clustering.simpoint", "repro.clustering.simpoint:run_simpoint", None),
    (
        "instrumentation.collect",
        "repro.instrumentation.collector:BarrierPointCollector.collect",
        None,
    ),
    (
        "instrumentation.streamed",
        "repro.instrumentation.streamed:StreamedSignatureCollector.feed",
        ("accesses", _arg_size(2, "tile")),
    ),
    ("mem.oracle", "repro.mem.reuse:reuse_distances", ("accesses", _arg_size(0, "lines"))),
    (
        "mem.oracle",
        "repro.mem.cache:CacheSimulator.miss_mask",
        ("accesses", _arg_size(1, "lines")),
    ),
    ("hw.true_counters", "repro.hw.perf:PerfModel.true_counters", None),
    ("runtime.execute", "repro.runtime.execution:execute_program", None),
    ("runtime.execute", "repro.runtime.distributed:execute_distributed", None),
)


def install() -> SpanRecorder:
    """Wrap every layer's entry points; return the recorder they feed."""
    recorder = SpanRecorder()
    importlib.import_module("repro.cli")
    from repro.api.registry import stage_registry

    for name, target, size in _ENTRY_POINTS:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls, attr = qualname.split(".")
            _wrap_method(recorder, name, getattr(module, cls), attr, size)
        else:
            _rebind_function(recorder, name, module, qualname, size)
    # k-means runs thousands of times per cold run: count, don't time.
    _rebind_function(
        recorder,
        "clustering.kmeans",
        importlib.import_module("repro.clustering.kmeans"),
        "kmeans",
        timed=False,
    )
    for stage_name in stage_registry.names():
        for cls in stage_registry.get(stage_name).__mro__:
            if "run" in cls.__dict__:
                _wrap_method(recorder, lambda stage: f"api.stage.{stage.name}", cls, "run")
                break
    for cls in _classes_defining("repro.workloads", "program"):
        _wrap_method(recorder, "workloads.program", cls, "program")
    for cls in _classes_defining("repro.experiments", "render"):
        _wrap_method(recorder, "experiments.render", cls, "render")
    return recorder
