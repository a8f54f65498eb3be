"""Experiment runner: the facade over the plan/schedule/cache layers.

The four configurations match paper Section 5:

* ``baseline``   — two-level 2Bc-gskew (L1 4 KB + L2 32 KB hybrid);
* ``current``    — ARVI level 2 with committed (current) values;
* ``load back``  — ARVI with aggressively hoisted loads;
* ``perfect``    — ARVI with oracle values (upper bound).

:func:`execute_point` performs one raw simulation; :func:`run_point` adds
default resolution (``REPRO_SCALE`` / ``REPRO_WARMUP``); :func:`run_suite`
expands a benchmark x configuration x depth grid through
:mod:`repro.experiments.plan`, shards it across processes via
:mod:`repro.experiments.scheduler` (``REPRO_JOBS`` workers) and replays
completed points from :mod:`repro.experiments.cache` — identical keyed
results whether a point was computed serially, in parallel, or loaded
from the cache.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.arvi import ARVIConfig, ValueMode
from repro.experiments.cache import ResultCache
from repro.experiments.plan import (
    CONFIGURATIONS,
    ExperimentPoint,
    build_plan,
    point_key,
)
from repro.experiments.scheduler import ProgressCallback, run_plan
from repro.experiments.tracing import load_or_record
from repro.obs.interval import IntervalSampler
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.kernel import (
    KernelUnsupported,
    ensure_lowered,
    is_lowered,
    kernel_run,
)
from repro.pipeline.stats import SimulationResult
from repro.pipeline.trace import CommittedTrace
from repro.predictors.twolevel import LevelTwoKind
from repro.settings import Settings
from repro.workloads.registry import BENCHMARKS, get_program

__all__ = [
    "CONFIGURATIONS",
    "ExperimentPoint",
    "execute_point",
    "run_point",
    "run_suite",
]

_VALUE_MODES = {
    "current": ValueMode.CURRENT,
    "load back": ValueMode.LOAD_BACK,
    "perfect": ValueMode.PERFECT,
}


def execute_point(point: ExperimentPoint, *,
                  trace: "CommittedTrace | bool | None" = None,
                  info: dict | None = None,
                  ) -> SimulationResult:
    """Simulate one *resolved* point (no cache, no default resolution).

    This is the single compute kernel every execution path funnels
    through — the serial loop and the pool workers both call it.

    ``trace`` selects the functional source for ``redirect`` points
    (results are bit-for-bit identical either way):

    * a :class:`~repro.pipeline.trace.CommittedTrace` — replay it
      instead of re-interpreting the program (how the scheduler shares
      one recording across a batch);
    * ``None`` (default) — honour the environment: unless
      ``REPRO_TRACE=0``, the persistent trace store supplies (or
      records) the trace; with it off, run the live core;
    * ``False`` — force the live functional core regardless of the
      environment (the perf harness measures the live path this way).

    ``wrongpath`` points always run the live core.

    A replayed trace runs through the compiled kernel over the lowered
    trace — ``baseline`` as the stream pass, the ARVI configurations as
    the fused pass.  Anything the kernel cannot express falls back to
    the live engine, counted in ``kernel_fallback_total`` and attributed
    to the point in the run ledger.  ``info``, when given, reports which
    path actually ran: ``info["kernel_source"]`` is ``"kernel"`` or
    ``"live"`` (mirroring the backends' ``trace_source``), and
    ``info["phase_seconds"]`` the wall time per phase, next to any
    record/lower seconds the caller already put there for this point.
    """
    point.validate()
    if trace is not None and not isinstance(trace, CommittedTrace) \
            and trace is not False:
        raise TypeError(
            "trace must be a CommittedTrace, False (force the live "
            f"core) or None (honour REPRO_TRACE); got {trace!r}")
    if point.scale is None or point.warmup is None:
        raise ValueError(
            "execute_point requires a resolved point; call "
            "point.resolve() first or use run_point/run_suite")
    perf = time.perf_counter
    phase_seconds: dict[str, float] = {} if info is None \
        else info.setdefault("phase_seconds", {})
    with obs.span(point.benchmark, kind="point", attrs={
            "benchmark": point.benchmark,
            "configuration": point.configuration,
            "depth": point.pipeline_depth,
            "speculation": point.speculation}):
        result = _execute_phases(point, trace, info, phase_seconds, perf)
    result.configuration = point.configuration
    return result


def _execute_phases(point: ExperimentPoint,
                    trace: "CommittedTrace | bool | None",
                    info: dict | None,
                    phase_seconds: dict[str, float],
                    perf) -> SimulationResult:
    """The phase-instrumented body of :func:`execute_point`.

    Each phase (``lower`` / ``replay`` / ``live``; ``record`` lives in
    :func:`~repro.experiments.tracing.load_or_record`) is wall-clock
    timed into ``phase_seconds`` unconditionally — the bench harness
    reads these — and wrapped in a ledger span when telemetry is on.
    """
    program = get_program(point.benchmark, scale=point.scale,
                          seed=point.seed)
    config = machine_for_depth(point.pipeline_depth,
                               speculation=point.speculation)

    settings = Settings.from_env()
    if point.speculation == "redirect" and trace is not False:
        if trace is None and settings.trace == "on":
            trace = load_or_record(point.benchmark, point.scale, point.seed,
                                   phase_seconds=phase_seconds)
        if trace is not None:
            result = _kernel_replay(point, program, trace, config,
                                    phase_seconds, perf)
            if result is not None:
                if info is not None:
                    info["kernel_source"] = "kernel"
                return result
    if info is not None:
        info["kernel_source"] = "live"

    if point.configuration == "baseline":
        predictor = build_predictor(LevelTwoKind.HYBRID, config)
        mode = ValueMode.CURRENT
    else:
        predictor = build_predictor(LevelTwoKind.ARVI, config,
                                    point.arvi_config)
        mode = _VALUE_MODES[point.configuration]

    telemetry = obs.current()
    every = settings.obs_interval if telemetry is not None else 0
    sampler = IntervalSampler(every) if every else None

    start = perf()
    with obs.span("live", kind="phase", attrs={"phase": "live"}):
        engine = PipelineEngine(program, config, predictor, value_mode=mode,
                                warmup_instructions=point.warmup,
                                sampler=sampler)
        result = engine.run()
        if sampler is not None and telemetry is not None:
            for sample in sampler.samples:
                telemetry.emit("interval", kind="interval",
                               attrs=sample.to_attrs())
                telemetry.observe("engine.ddt_chain_length",
                                  sample.chain_length)
    phase_seconds["live"] = perf() - start
    return result


def _kernel_fallback(point: ExperimentPoint, exc: Exception) -> None:
    """Count and attribute one compiled-replay fallback.

    ``kernel_fallback_total{reason=...}`` aggregates across a run; the
    ``kernel_fallback`` ledger event carries the point key (prefix) and
    grid coordinates so a live point in a traced grid is attributable
    from the run ledger alone.
    """
    obs.inc("kernel_fallback_total",
            reason=str(exc).split(";")[0][:80])
    obs.emit("kernel_fallback", kind="phase", attrs={
        "point": point_key(point)[:12],
        "benchmark": point.benchmark,
        "configuration": point.configuration,
        "depth": point.pipeline_depth,
        "tier": "kernel",
        "reason": str(exc)[:200]})


def _kernel_replay(point: ExperimentPoint, program, trace, config,
                   phase_seconds: dict[str, float],
                   perf) -> "SimulationResult | None":
    """Replay one redirect point through the compiled kernel.

    ``baseline`` maps to the stream pass (``LevelTwoKind.HYBRID``); the
    paper's ARVI configurations map to the fused ARVI pass.  Returns
    None when the kernel declines the point — the fallback is counted
    and attributed via :func:`_kernel_fallback`, and the caller runs
    the live engine.
    """
    if point.configuration == "baseline":
        kind, value_mode = LevelTwoKind.HYBRID, ValueMode.CURRENT
    else:
        kind = LevelTwoKind.ARVI
        value_mode = _VALUE_MODES[point.configuration]
    try:
        if not is_lowered(trace, program):
            start = perf()
            with obs.span("lower", kind="phase",
                          attrs={"phase": "lower"}):
                ensure_lowered(program, trace)
            phase_seconds["lower"] = perf() - start
        start = perf()
        with obs.span("replay", kind="phase", attrs={
                "phase": "replay", "mode": "kernel"}):
            result = kernel_run(
                program, trace, config, kind,
                warmup_instructions=point.warmup,
                value_mode=value_mode,
                arvi_config=point.arvi_config)
        phase_seconds["replay"] = perf() - start
    except KernelUnsupported as exc:
        _kernel_fallback(point, exc)
        return None
    return result


def run_point(point: ExperimentPoint, *, scale: float | None = None,
              warmup: int | None = None, seed: int | None = None,
              arvi_config: ARVIConfig | None = None,
              speculation: str | None = None) -> SimulationResult:
    """Simulate one experiment point and return its statistics."""
    resolved = point.resolve(scale=scale, warmup=warmup, seed=seed,
                             arvi_config=arvi_config,
                             speculation=speculation)
    resolved.validate()
    return execute_point(resolved)


def run_suite(configurations=CONFIGURATIONS, depths=(20,),
              benchmarks=BENCHMARKS, *, scale: float | None = None,
              warmup: int | None = None, seed: int = 1,
              arvi_config: ARVIConfig | None = None,
              speculation: str = "redirect",
              jobs: int | None = None, cache: ResultCache | None = None,
              use_cache: bool = True,
              progress: ProgressCallback | None = None,
              backend=None,
              manifest=None,
              sink=None,
              ) -> dict[tuple[str, str, int], SimulationResult]:
    """Run a grid of experiment points; keyed (benchmark, config, depth).

    Facade over plan -> schedule -> cache -> collect.  ``jobs=None``
    honours ``REPRO_JOBS`` (default CPU count, ``1`` = serial);
    ``cache``/``use_cache`` control result replay (default store under
    ``benchmarks/results/cache/``, disable globally with ``REPRO_CACHE=0``).
    ``speculation`` selects the engine's wrong-path model for every point
    of the grid ("redirect" | "wrongpath"); run the suite once per mode to
    sweep it — each mode has its own cache keys, so replays never mix.
    Same-benchmark points are simulated in per-worker batches that share
    one program build.  ``backend=None`` honours
    ``REPRO_BACKEND`` (``serial`` | ``local`` | ``queue``; see
    :mod:`repro.experiments.backends`) — results are bit-for-bit equal
    on every backend.  ``manifest=None`` honours ``REPRO_MANIFEST``
    (crash-safe resumable runs; see :func:`run_plan`).  ``sink`` is an
    optional live-view aggregator (see
    :mod:`repro.experiments.aggregate`) fed every progress tick and
    per-point result as the grid runs; ``sink=None`` honours
    ``REPRO_SERVE`` (serve the views over HTTP/SSE for the duration of
    the run; see :mod:`repro.serve`).
    """
    plan = build_plan(configurations, depths, benchmarks, scale=scale,
                      warmup=warmup, seed=seed, arvi_config=arvi_config,
                      speculation=speculation)
    results = run_plan(plan, jobs=jobs, cache=cache, use_cache=use_cache,
                       progress=progress, backend=backend,
                       manifest=manifest, sink=sink)
    return {point.grid_key: result for point, result in results.items()}
