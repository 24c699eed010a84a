"""Outside-in span recording for the benchmark's traced run.

The program is not instrumented for this benchmark.  Instead the traced
run replaces public functions of each layer with thin wrappers that open
a span around the original call, and puts every original object back
when the run ends.  The untraced runs never install a wrapper, so the
end-to-end metrics are measured on the unmodified program.

A span records its name, start, end and parent.  A layer's *self time*
is its span's duration minus the part of that interval its child spans
cover; the root spans (one per timed workload step) keep as their self
time whatever no wrapped function covered, reported as
``unattributed.self_s``.  Self times of all spans therefore add up to
the root spans' total duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["SpanRecorder", "Target", "installed", "self_times",
           "layer_table", "chrome_trace"]

#: ``measure(counters, args, kwargs, result)`` adds layer counts (bytes,
#: batch sizes, ...) after a wrapped call returns
Measure = Callable[[Dict[str, float], tuple, dict, object], None]


class SpanRecorder:
    """Keeps spans of one workload in memory, as parallel lists.

    Wrappers record only while a root span is open, so set-up, checks
    and anything else outside the timed steps leave no spans behind.
    """

    def __init__(self, workload: str,
                 clock: Callable[[], float] = time.perf_counter):
        self.workload = workload
        self._clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        #: extra per-layer counts added by :data:`Measure` hooks
        self.counters: Dict[str, float] = {}

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed out of order "
                f"(innermost open span is {self.names[popped]!r})")

    @contextmanager
    def root(self, name: str) -> Iterator[int]:
        """One timed workload step; spans opened inside become children."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)


@dataclass(frozen=True)
class Target:
    """One public function of one layer, to be wrapped in the traced run.

    ``owner`` is the module that defines it and ``attr`` its name there,
    ``Class.method`` for a method.  A module-level function is replaced
    in every loaded ``repro`` module that imported it by name, so a call
    is seen whichever import site it goes through.
    """

    layer: str
    owner: str
    attr: str
    label: Optional[str] = None
    measure: Optional[Measure] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.label or self.attr}"


def _wrap(fn: Callable, name: str, recorder: SpanRecorder,
          measure: Optional[Measure]) -> Callable:
    begin, end = recorder.begin, recorder.end
    counters = recorder.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder._stack:
            return fn(*args, **kwargs)
        index = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(index)
        if measure is not None:
            measure(counters, args, kwargs, result)
        return result

    return wrapper


def _patch_sites(target: Target) -> List[Tuple[object, str, object]]:
    """Every (namespace, attribute, original) pair the target replaces."""
    module = importlib.import_module(target.owner)
    if "." in target.attr:
        class_name, method = target.attr.split(".", 1)
        cls = getattr(module, class_name)
        if method not in cls.__dict__:
            raise AttributeError(
                f"{target.owner}.{target.attr} is not defined on the class")
        return [(cls, method, cls.__dict__[method])]
    original = getattr(module, target.attr)
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr, original))
    return sites


@contextmanager
def installed(targets: Sequence[Target],
              recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore.

    Restoration puts back the very objects that were there before, so
    code outside the block runs exactly the program as shipped.
    """
    patched: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            sites = _patch_sites(target)
            wrapper = _wrap(sites[0][2], target.name, recorder,
                            target.measure)
            for namespace, attr, original in sites:
                patched.append((namespace, attr, original))
                setattr(namespace, attr, wrapper)
        yield
    finally:
        for namespace, attr, original in reversed(patched):
            setattr(namespace, attr, original)


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Duration of each span minus the time its children cover.

    Children's intervals are merged before they are subtracted, so
    overlapping children are not counted twice, and clipped to the
    parent's interval.
    """
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()),
                            key=starts.__getitem__):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_table(recorder: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``busy_s`` sums the durations of spans with no same-named ancestor,
    so a function that re-enters itself is not counted twice.
    """
    names, starts, ends, parents = (recorder.names, recorder.starts,
                                     recorder.ends, recorder.parents)
    selfs = self_times(starts, ends, parents)
    table: Dict[str, Dict[str, float]] = {}
    for index, name in enumerate(names):
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[index]
        ancestor = parents[index]
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor < 0:
            row["busy_s"] += ends[index] - starts[index]
    return table


def chrome_trace(recorder: SpanRecorder, max_spans: int) -> str:
    """The first ``max_spans`` spans as Chrome ``trace_event`` JSON.

    Built with :meth:`repro.obs.tracing.Tracer.export_chrome_trace`;
    each event's args carry its span index, parent index and workload.
    Spans are kept in the order they began, so a prefix holds every
    kept span's parent.
    """
    from repro.obs.tracing import Span, Tracer

    tracer = Tracer(max_spans=max_spans)
    epoch = recorder.starts[0] if recorder.starts else 0.0
    kept = min(len(recorder.names), max_spans)
    tracer.spans.extend(
        Span(name=recorder.names[i], category=recorder.workload,
             start_s=recorder.starts[i] - epoch,
             duration_s=recorder.ends[i] - recorder.starts[i],
             depth=0, thread_id=0,
             args={"span": i, "parent": recorder.parents[i],
                   "workload": recorder.workload})
        for i in range(kept))
    trace = json.loads(tracer.export_chrome_trace(
        process_name=f"perfbench {recorder.workload}"))
    trace["otherData"] = {"spans_recorded": len(recorder.names),
                          "spans_exported": kept}
    return json.dumps(trace)
