"""Span tracing from outside the program, and the per-layer rollup.

:class:`Tracer` replaces each traced public function of ``repro`` with a
wrapper at every name it is bound under (``runner.py`` binds
``ensure_lowered`` and friends at import time, the experiments package
re-exports ``run_plan`` ...), records one span per call in memory, and
puts every original back on :meth:`Tracer.restore`.

Worker processes of the local pool are forked from the traced process,
so they inherit the wrappers.  A forked worker drops the spans it
inherited and appends its own to ``spill_dir/spans-<pid>.jsonl`` each
time its outermost span closes; :meth:`Tracer.collect` merges them.
``time.perf_counter`` is the system-wide monotonic clock on Linux, so
spans of different processes share one time axis.

Self time is the span's duration minus the time its child spans (in the
same process) cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pathlib
import sys
import time
from dataclasses import asdict, dataclass

#: Spans that are harness glue, not a layer of their own.
GLUE_LAYERS = ("run", "point")
#: Layers that simulate (run in pool workers, or in-process when serial).
SIM_LAYERS = ("point", "workloads", "record", "lower", "replay.stream",
              "replay.arvi.current", "replay.arvi.load-back",
              "replay.arvi.perfect", "engine")

_ARVI_MODES = {"CURRENT": "current", "LOAD_BACK": "load-back",
               "PERFECT": "perfect"}


@dataclass
class Span:
    pid: int
    layer: str
    start: float
    end: float
    self_s: float
    parent: str | None          # layer of the enclosing span
    count: float | None = None   # instructions, lowerings or cache hits


def _instructions(result) -> int:
    return result.total_instructions


def _trace_length(trace) -> int:
    return len(trace.pcs)


def _hit(result) -> int:
    return 1   # only non-None results are counted: a cache hit


class Before:
    """A span count computed from the call's arguments, before the call."""

    def __init__(self, function) -> None:
        self.function = function


def _replay_layer(signature: inspect.Signature):
    def classify(args, kwargs) -> str:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        kind = bound.arguments["kind"].name
        if kind != "ARVI":
            return "replay.stream"
        return "replay.arvi." + _ARVI_MODES[bound.arguments["value_mode"].name]
    return classify


def targets():
    """(module, qualified name, layer or classifier, count extractor).

    A count extractor maps a call's non-None result to the span's count;
    ``lower``'s is a :class:`Before`, evaluated on the arguments before
    the call, so that only calls that actually lower count.
    """
    from repro.pipeline import kernel

    replay = _replay_layer(inspect.signature(kernel.kernel_run))
    lowers = Before(lambda program, trace: int(
        not kernel.is_lowered(trace, program)))
    return [
        ("repro.experiments.scheduler", "run_plan", "sched", None),
        ("repro.experiments.runner", "execute_point", "point", None),
        ("repro.experiments.cache", "ResultCache.get", "cache.get", _hit),
        ("repro.experiments.cache", "ResultCache.put", "cache.put", None),
        ("repro.experiments.aggregate", "ViewAggregator.on_plan",
         "aggregate", None),
        ("repro.experiments.aggregate", "ViewAggregator.on_progress",
         "aggregate", None),
        ("repro.experiments.aggregate", "ViewAggregator.on_result",
         "aggregate", None),
        ("repro.experiments.aggregate", "ViewAggregator.on_failure",
         "aggregate", None),
        ("repro.experiments.aggregate", "ViewAggregator.mark_done",
         "aggregate", None),
        ("repro.experiments.plan", "build_plan", "plan", None),
        ("repro.experiments.plan", "plan_from_points", "plan", None),
        ("repro.workloads.registry", "get_program", "workloads", None),
        ("repro.experiments.tracing", "load_or_record", "record",
         _trace_length),
        ("repro.pipeline.kernel", "ensure_lowered", "lower", lowers),
        ("repro.pipeline.kernel", "kernel_run", replay, _instructions),
        ("repro.pipeline.engine", "PipelineEngine.run", "engine",
         _instructions),
    ]


class Tracer:
    """Wraps the traced functions and keeps their spans in memory."""

    def __init__(self, spill_dir: "str | os.PathLike") -> None:
        self.spill_dir = pathlib.Path(spill_dir)
        self.owner = os.getpid()
        self.spans: list[Span] = []
        self._pid = self.owner
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused while restore() scans for it.
        self._originals: dict[int, tuple[object, object]] = {}

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        for module_name, qualname, layer, count in targets():
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, layer, count))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, layer, count)
            for holder, attr in _bindings(original):
                self._patch(holder, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, including at names bound later."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        for module in list(sys.modules.values()):
            for attr, value in _module_items(module):
                wrapper, original = self._originals.get(id(value),
                                                        (None, None))
                if value is wrapper:
                    setattr(module, attr, original)
        self._originals.clear()

    def _patch(self, holder, attr: str, wrapper) -> None:
        current = holder.__dict__[attr] if isinstance(holder, type) \
            else getattr(holder, attr)
        self._patches.append((holder, attr, current))
        setattr(holder, attr, wrapper)

    def _wrap(self, original, layer, count):
        classify = layer if callable(layer) else None
        pre = isinstance(count, Before)
        perf = time.perf_counter
        stack_of = self._current_stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            name = classify(args, kwargs) if classify else layer
            tally = count.function(*args, **kwargs) if pre else None
            frame = [name, perf(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                if not pre and count and result is not None:
                    tally = count(result)
                self.spans.append(Span(
                    self._pid, name, frame[1], end, duration - frame[2],
                    stack[-1][0] if stack else None, tally))
                if not stack and self._pid != self.owner:
                    self._spill()

        self._originals[id(wrapper)] = (wrapper, original)
        return wrapper

    # -- recording -----------------------------------------------------------

    def _current_stack(self) -> list[list]:
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker: the parent's open spans and finished
            # spans are the parent's, not ours.
            self._pid = pid
            self._stack = []
            self.spans = []
        return self._stack

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with path.open("a") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
        self.spans = []

    @contextlib.contextmanager
    def region(self, layer: str = "run"):
        """A harness span around the timed region."""
        stack = self._current_stack()
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(self._pid, layer, frame[1], end,
                                   end - frame[1] - frame[2], None))

    def collect(self) -> list[Span]:
        """Own spans plus every forked worker's spilled spans."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                spans.append(Span(**json.loads(line)))
        return spans


def _module_items(module):
    try:
        return list(vars(module).items())
    except TypeError:
        return []


def _bindings(original):
    """Every (module, name) whose attribute is ``original``."""
    found = []
    for module in list(sys.modules.values()):
        for attr, value in _module_items(module):
            if value is original:
                found.append((module, attr))
    return found


# -- rollup ------------------------------------------------------------------

def rollup(spans: list[Span], *, owner: int, slots: int) -> dict:
    """Per-layer totals and the process-time account of one traced run.

    With ``W`` the ``run`` span, the frame is ``W`` on the serial backend
    (one process) and ``(slots + 1) x W`` on the pool (the parent plus
    ``slots`` workers), and it splits exactly into

    ``frame = sum(layer self time) + unattributed + idle``

    Layer self time includes ``sched`` (``run_plan``'s own time: its
    bookkeeping, and on the pool waiting for workers).  ``unattributed``
    is harness glue: the ``run`` span itself and ``execute_point``
    outside its phases.  ``idle`` is worker-slot time no worker spent
    inside a traced call (``slots x W`` minus worker busy time; 0 when
    serial).
    """
    runs = [span for span in spans if span.layer == "run"
            and span.pid == owner]
    if len(runs) != 1:
        raise ValueError(f"expected one run span, got {len(runs)}")
    run = runs[0]
    wall = run.end - run.start
    inside = [span for span in spans
              if span.start >= run.start and span.end <= run.end]
    layers: dict[str, dict] = {}
    for span in spans:
        entry = layers.setdefault(span.layer, {"calls": 0, "self_s": 0.0,
                                               "count": 0.0})
        entry["calls"] += 1
        entry["self_s"] += span.self_s
        entry["count"] += span.count or 0.0
    unattributed = sum(span.self_s for span in inside
                       if span.layer in GLUE_LAYERS)
    attributed = sum(span.self_s for span in inside
                     if span.layer not in GLUE_LAYERS)
    outer = [span for span in inside
             if span.layer in SIM_LAYERS and span.parent not in SIM_LAYERS]
    busy = sum(span.end - span.start for span in outer)
    if all(span.pid == owner for span in inside):
        frame, idle = wall, 0.0
    else:
        frame = (slots + 1) * wall
        idle = slots * wall - sum(span.end - span.start for span in outer
                                  if span.pid != owner)
    # Critical path: per run_plan call, the busiest process's simulation
    # time (the slowest worker's span chain), summed over the calls.
    critical = 0.0
    for stage in (span for span in inside
                  if span.layer == "sched" and span.pid == owner):
        per_pid: dict[int, float] = {}
        for span in outer:
            if span.start >= stage.start and span.end <= stage.end:
                per_pid[span.pid] = (per_pid.get(span.pid, 0.0)
                                     + span.end - span.start)
        critical += max(per_pid.values(), default=0.0)
    return {
        "wall_s": wall,
        "frame_s": frame,
        "layers": layers,
        "attributed_s": attributed,
        "unattributed_s": unattributed,
        "idle_s": idle,
        "busy_s": busy,
        "critical_path_s": critical,
    }
