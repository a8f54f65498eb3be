"""Compiled replay kernel (DESIGN.md §10).

The hard invariant: a kernel replay of a lowered committed trace is
bit-for-bit equal (``==``) to the live engine run, across workloads,
predictor kinds, pipeline depths, warmups and replay budgets.  Anything
the kernel cannot express is a loud ``KernelUnsupported`` (or
``TraceError`` for truncated recordings), never silent divergence;
:func:`~repro.experiments.runner.execute_point` then falls back to the
live engine and says so via ``kernel_source``.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import ValueMode
from repro.experiments.plan import (
    CONFIGURATIONS,
    ExperimentPoint,
    build_plan,
    point_key,
)
from repro import obs
from repro.experiments import runner
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan
from repro.obs.ledger import read_events
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.functional import FunctionalCore
from repro.pipeline.kernel import (
    KernelUnsupported,
    ensure_lowered,
    is_lowered,
    kernel_run,
)
from repro.pipeline.trace import TraceError, record_trace
from repro.predictors.gskew import level1_gskew
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import SPECS, get_program

SCALE = 0.05


@pytest.fixture(scope="module")
def program():
    return get_program("m88ksim", scale=SCALE, seed=1)


@pytest.fixture(scope="module")
def trace(program):
    return record_trace(program)


def engine_result(program, *, kind=LevelTwoKind.HYBRID, depth=20,
                  warmup=500, budget=None):
    """The live engine run — the oracle every kernel replay must equal."""
    config = machine_for_depth(depth)
    predictor = build_predictor(kind, config)
    engine = PipelineEngine(program, config, predictor,
                            value_mode=ValueMode.CURRENT,
                            warmup_instructions=warmup)
    return engine.run() if budget is None else engine.run(budget)


class TestEquality:
    @pytest.mark.parametrize("kind", [LevelTwoKind.HYBRID,
                                      LevelTwoKind.NONE])
    @pytest.mark.parametrize("depth", [20, 60])
    @pytest.mark.parametrize("warmup", [0, 500])
    def test_kernel_equals_live(self, program, trace, kind, depth, warmup):
        live = engine_result(program, kind=kind, depth=depth, warmup=warmup)
        kernel = kernel_run(program, trace, machine_for_depth(depth), kind,
                            warmup_instructions=warmup)
        assert kernel == live

    @pytest.mark.parametrize("workload", ["compress", "li"])
    def test_other_workloads(self, workload):
        program = get_program(workload, scale=0.02, seed=1)
        trace = record_trace(program)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            warmup_instructions=100)
        assert kernel == engine_result(program, warmup=100)

    @pytest.mark.parametrize("workload", sorted(SPECS))
    def test_every_workload(self, workload):
        program = get_program(workload, scale=0.02, seed=1)
        trace = record_trace(program)
        kernel = kernel_run(program, trace, machine_for_depth(40),
                            warmup_instructions=100)
        assert kernel == engine_result(program, depth=40, warmup=100)

    def test_lowered_columns_match_live_stream(self, program, trace):
        """The lowered arrays the kernel reads agree with the live
        functional core's committed stream, column by column."""
        dyns = list(FunctionalCore(program).run())
        lowered = ensure_lowered(program, trace)
        assert lowered.length == len(dyns)
        assert lowered.pcs == [d.pc for d in dyns]
        assert lowered.byte_pcs == [d.pc * 4 for d in dyns]
        assert lowered.branch_pos == [
            i for i, d in enumerate(dyns) if d.taken is not None]
        assert lowered.branch_taken == [
            d.taken for d in dyns if d.taken is not None]
        assert lowered.mem_pos == [
            i for i, d in enumerate(dyns) if d.addr is not None]
        assert lowered.mem_addr == [
            d.addr for d in dyns if d.addr is not None]
        assert lowered.values() == [
            0 if d.result is None else d.result for d in dyns]

    def test_one_level1_pass_per_lowered_trace(self, program,
                                               monkeypatch):
        """The hybrid, single-level and ARVI streams of a trace all read
        one level-1 gskew pass, and still equal the live engine."""
        from repro.pipeline import kernel

        built = []

        def counting_level1():
            built.append(1)
            return level1_gskew()

        monkeypatch.setattr(kernel, "level1_gskew", counting_level1)
        trace = record_trace(program)
        config = machine_for_depth(40)
        for kind in (LevelTwoKind.HYBRID, LevelTwoKind.NONE,
                     LevelTwoKind.ARVI):
            assert kernel_run(program, trace, config, kind,
                              warmup_instructions=500) \
                == engine_result(program, kind=kind, depth=40)
        assert len(built) == 1

    def test_lowered_form_is_shared_across_configs(self, program, trace):
        lowered = ensure_lowered(program, trace)
        assert is_lowered(trace, program)
        assert ensure_lowered(program, trace) is lowered
        for depth in (20, 40, 60):
            kernel_run(program, trace, machine_for_depth(depth))
        assert ensure_lowered(program, trace) is lowered


@functools.lru_cache(maxsize=1)
def _small():
    """A small (program, trace) pair the budget property replays
    (built once; hypothesis forbids function-scoped fixtures)."""
    program = get_program("li", scale=0.01, seed=1)
    return program, record_trace(program)


class TestBudgetProperty:
    """Kernel == live at *every* replay budget and warmup — the
    truncation arithmetic (prefix sums, bisected branch windows, RAS
    pops) must agree with the engine cutting off mid-stream."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_live_at_any_budget(self, data):
        program, trace = _small()
        budget = data.draw(st.integers(0, trace.length), label="budget")
        warmup = data.draw(st.integers(0, 60), label="warmup")
        depth = data.draw(st.sampled_from([20, 40, 60]), label="depth")
        live = engine_result(program, depth=depth, warmup=warmup,
                             budget=budget)
        kernel = kernel_run(program, trace, machine_for_depth(depth),
                            warmup_instructions=warmup,
                            max_instructions=budget)
        assert kernel == live


class TestFallback:
    def test_wrongpath_is_unsupported(self, program, trace):
        with pytest.raises(KernelUnsupported, match="redirect"):
            kernel_run(program, trace,
                       machine_for_depth(20, speculation="wrongpath"))

    def test_unsupported_messages_name_the_workload(self, program, trace):
        # Fallbacks in a grid are attributed from the run ledger; the
        # message itself must say *whose* replay declined.
        with pytest.raises(KernelUnsupported, match="m88ksim"):
            kernel_run(program, trace,
                       machine_for_depth(20, speculation="wrongpath"))

    def test_truncated_trace_raises_instead_of_diverging(self, program):
        short = record_trace(program, max_instructions=50)
        with pytest.raises(TraceError, match="exhausted"):
            kernel_run(program, short, machine_for_depth(20))

    def test_budget_truncated_recording_replays_within_budget(self,
                                                              program):
        short = record_trace(program, max_instructions=50)
        kernel = kernel_run(program, short, machine_for_depth(20),
                            warmup_instructions=0, max_instructions=50)
        assert kernel == engine_result(program, warmup=0, budget=50)

    def test_wrong_program_rejected(self, trace):
        other = get_program("compress", scale=SCALE, seed=1)
        with pytest.raises(TraceError, match="does not match"):
            kernel_run(other, trace, machine_for_depth(20))


class TestExecutePoint:
    """The kernel -> live fallback and the kernel_source observability."""

    def _point(self, **overrides):
        fields = dict(benchmark="m88ksim", configuration="baseline",
                      pipeline_depth=40, scale=SCALE, warmup=500)
        fields.update(overrides)
        return ExperimentPoint(**fields).resolve()

    def test_kernel_equals_live_and_reports_source(self, trace):
        point = self._point()
        info_kernel, info_live = {}, {}
        kernel = execute_point(point, trace=trace, info=info_kernel)
        live = execute_point(point, trace=False, info=info_live)
        assert kernel == live
        assert info_kernel["kernel_source"] == "kernel"
        assert info_live["kernel_source"] == "live"

    def test_unsupported_kernel_falls_back_to_live(self, trace, tmp_path,
                                                   monkeypatch):
        """A KernelUnsupported replay runs the live engine instead —
        same result — and is counted and attributed in the run ledger."""
        def decline(*args, **kwargs):
            raise KernelUnsupported("replay of 'm88ksim': declined; why")

        point = self._point()
        expected = execute_point(point, trace=False)
        monkeypatch.setattr(runner, "kernel_run", decline)
        telemetry = obs.start_run(label="fallback", root=tmp_path)
        try:
            info = {}
            result = execute_point(point, trace=trace, info=info)
            counters = telemetry.snapshot_metrics()["counters"]
        finally:
            ledger = obs.close_run(telemetry)
        assert result == expected
        assert info["kernel_source"] == "live"
        assert {"name": "kernel_fallback_total",
                "labels": {"reason": "replay of 'm88ksim': declined"},
                "value": 1} in counters
        [event] = [e for e in read_events(ledger)
                   if e["name"] == "kernel_fallback"]
        assert event["attrs"] == {
            "point": point_key(point)[:12], "benchmark": "m88ksim",
            "configuration": "baseline", "depth": 40, "tier": "kernel",
            "reason": "replay of 'm88ksim': declined; why"}

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_fallback_equals_live_for_every_configuration(
            self, trace, monkeypatch, configuration):
        # The live fallback builds each configuration's own predictor
        # and value mode, exactly as a trace=False run does.
        def decline(*args, **kwargs):
            raise KernelUnsupported("replay of 'm88ksim': declined")

        point = self._point(configuration=configuration)
        expected = execute_point(point, trace=False)
        monkeypatch.setattr(runner, "kernel_run", decline)
        info = {}
        assert execute_point(point, trace=trace, info=info) == expected
        assert info["kernel_source"] == "live"

    def test_live_points_report_live(self, trace):
        info = {}
        execute_point(self._point(), trace=False, info=info)
        assert info["kernel_source"] == "live"

    def test_arvi_configuration_replays_through_kernel(self, trace):
        # The paper's own grid axis replays compiled too (fused pass).
        info = {}
        arvi = execute_point(self._point(configuration="current"),
                             trace=trace, info=info)
        assert info["kernel_source"] == "kernel"
        assert arvi == execute_point(self._point(configuration="current"),
                                     trace=False)

    def test_wrongpath_points_stay_live(self):
        info = {}
        execute_point(self._point(benchmark="li", scale=0.01, warmup=50,
                                  speculation="wrongpath"), info=info)
        assert info["kernel_source"] == "live"


class TestProgressPhase:
    """The scheduler satellite: one-time lowering is its own
    ``phase="lower"`` event and never advances the completed counter."""

    def _run(self, events):
        plan = build_plan(("baseline",), (20, 40, 60), ("li",),
                          scale=0.01, warmup=50)
        results = run_plan(plan, jobs=1, use_cache=False,
                           backend="serial", progress=events.append)
        return plan, results

    def test_lowering_is_its_own_phase(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        # A fresh trace store: the session store may already hold this
        # workload lowered, and then there is no lowering pass to report.
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        events = []
        plan, results = self._run(events)
        assert len(results) == len(plan)
        lower = [e for e in events if e.phase == "lower"]
        points = [e for e in events if e.phase == "point"]
        assert len(lower) == 1            # one workload identity -> once
        assert len(points) == len(plan)
        # The lower event precedes every completed point of its batch
        # and does not advance the counter.
        assert events.index(lower[0]) < min(
            events.index(e) for e in points
            if e.batch_id == lower[0].batch_id)
        assert lower[0].completed == 0
        assert [e.completed for e in points] == list(
            range(1, len(plan) + 1))

    def test_no_lower_phase_without_traces(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        events = []
        plan, results = self._run(events)
        assert len(results) == len(plan)
        assert [e.phase for e in events] == ["point"] * len(plan)
