"""Committed-trace recording (DESIGN.md §8).

The hard invariant: the recorded columns reproduce the live functional
core's committed stream exactly — every field the timing model reads —
and the serialized form round-trips losslessly (a loaded trace replays
through the kernel to the live engine's result).  Malformed traces are
loud ``TraceError``\\ s (the store layer turns them into misses), never
silent divergence.  Kernel == live across configurations is
``test_kernel.py`` / ``test_kernel_arvi.py``.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import ValueMode
from repro.experiments.plan import ExperimentPoint
from repro.experiments.runner import execute_point
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.functional import FunctionalCore
from repro.pipeline.kernel import ensure_lowered, kernel_run
from repro.pipeline.trace import (
    CommittedTrace,
    TraceError,
    TraceRecorder,
    record_trace,
)
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import get_program

SCALE = 0.05


@pytest.fixture(scope="module")
def program():
    return get_program("m88ksim", scale=SCALE, seed=1)


@pytest.fixture(scope="module")
def trace(program):
    return record_trace(program)


def engine_result(program, *, kind=LevelTwoKind.HYBRID,
                  mode=ValueMode.CURRENT, depth=20, warmup=500):
    """The live engine run every replay of a trace must equal."""
    config = machine_for_depth(depth)
    return PipelineEngine(program, config, build_predictor(kind, config),
                          value_mode=mode,
                          warmup_instructions=warmup).run()


def replay_result(program, trace, *, kind=LevelTwoKind.HYBRID,
                  mode=ValueMode.CURRENT, depth=20, warmup=500):
    """The same run replayed from the committed trace by the kernel."""
    return kernel_run(program, trace, machine_for_depth(depth), kind,
                      warmup_instructions=warmup, value_mode=mode)


def resolved_point(**overrides):
    fields = dict(benchmark="m88ksim", configuration="baseline",
                  pipeline_depth=20, scale=SCALE, warmup=500)
    fields.update(overrides)
    return ExperimentPoint(**fields).resolve()


class TestRecording:
    def test_stream_fidelity_field_by_field(self, program, trace):
        """Every column matches the live functional core's committed
        stream: the fields the timing model reads (operand values are
        deliberately not recorded)."""
        live = FunctionalCore(program)
        dyns = list(live.run())
        assert trace.length == len(dyns) == live.instruction_count
        assert list(trace.pcs) == [d.pc for d in dyns]
        assert list(trace.results) == [
            d.result for d in dyns if d.result is not None]
        taken = [d.taken for d in dyns if d.taken is not None]
        assert trace.branch_count == len(taken)
        assert [bool((trace.taken_bits[j >> 3] >> (j & 7)) & 1)
                for j in range(trace.branch_count)] == taken
        assert list(trace.addrs) == [
            d.addr for d in dyns if d.addr is not None]
        assert list(trace.store_values) == [
            d.store_value for d in dyns if d.store_value is not None]
        assert trace.final_next_pc == dyns[-1].next_pc
        assert trace.halted == live.halted

    def test_recorder_is_single_use(self, program):
        recorder = TraceRecorder(program)
        recorder.record()
        with pytest.raises(TraceError, match="single-use"):
            recorder.record()

    def test_budget_truncated_recording(self, program):
        short = record_trace(program, max_instructions=100)
        assert short.length == 100
        assert not short.halted

    def test_columns_are_compact(self, program, trace):
        # Sparse columns: only branches/memory ops/stores consume entries.
        assert trace.branch_count < trace.length
        assert len(trace.addrs) < trace.length
        assert len(trace.store_values) <= len(trace.addrs)
        assert len(trace.taken_bits) == (trace.branch_count + 7) // 8


class TestReplayEquality:
    @pytest.mark.parametrize("kind,mode", [
        (LevelTwoKind.HYBRID, ValueMode.CURRENT),
        (LevelTwoKind.ARVI, ValueMode.CURRENT),
        (LevelTwoKind.ARVI, ValueMode.LOAD_BACK),
        (LevelTwoKind.ARVI, ValueMode.PERFECT),
    ])
    @pytest.mark.parametrize("depth", [20, 60])
    def test_replay_equals_live_simulation(self, program, trace, kind,
                                           mode, depth):
        live = engine_result(program, kind=kind, mode=mode, depth=depth)
        replayed = replay_result(program, trace, kind=kind, mode=mode,
                                 depth=depth)
        assert replayed == live

    def test_one_trace_drives_many_engines(self, program, trace):
        """One recording serves every configuration: replaying it again
        reuses the same lowered form and still matches the live run."""
        first = replay_result(program, trace)
        lowered = ensure_lowered(program, trace)
        second = replay_result(program, trace)
        arvi = replay_result(program, trace, kind=LevelTwoKind.ARVI)
        assert first == second == engine_result(program)
        assert arvi == engine_result(program, kind=LevelTwoKind.ARVI)
        assert ensure_lowered(program, trace) is lowered


class TestRoundTrip:
    def test_serialize_load_replay(self, program, trace):
        loaded = CommittedTrace.from_bytes(trace.to_bytes())
        assert loaded.length == trace.length
        assert loaded.pcs == trace.pcs
        assert loaded.results == trace.results
        assert loaded.taken_bits == trace.taken_bits
        assert loaded.addrs == trace.addrs
        assert loaded.store_values == trace.store_values
        assert loaded.halted == trace.halted
        config = machine_for_depth(20)
        live = PipelineEngine(
            program, config, build_predictor(LevelTwoKind.HYBRID, config),
            value_mode=ValueMode.CURRENT, warmup_instructions=500).run()
        assert kernel_run(program, loaded, config,
                          warmup_instructions=500) == live

    @pytest.mark.parametrize("mangle", [
        lambda blob: b"",
        lambda blob: b"NOTATRACE" + blob[9:],
        lambda blob: blob[:40],
        lambda blob: blob[:-8],
        lambda blob: blob + b"trailing-garbage",
    ])
    def test_malformed_bytes_raise(self, trace, mangle):
        with pytest.raises(TraceError):
            CommittedTrace.from_bytes(mangle(trace.to_bytes()))

    def test_format_version_mismatch_raises(self, trace, monkeypatch):
        import repro.pipeline.trace as trace_module

        blob = trace.to_bytes()
        monkeypatch.setattr(trace_module, "TRACE_FORMAT_VERSION", 999)
        with pytest.raises(TraceError, match="format"):
            CommittedTrace.from_bytes(blob)


@functools.lru_cache(maxsize=1)
def _fuzz_blob() -> bytes:
    """A small serialized trace the fuzz property corrupts (built once;
    hypothesis forbids function-scoped fixtures)."""
    return record_trace(get_program("li", scale=0.01, seed=1)).to_bytes()


class TestWireFuzz:
    """The shipped-trace integrity property (ISSUE 5): traces travel to
    distributed queue workers as bytes, so *any* truncation or bit flip
    — framing, header, digest, or a single column value — must raise
    ``TraceError``.  A silently divergent replay is the one failure mode
    a distributed backend can never tolerate."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_truncation_and_bitflips_always_raise(self, data):
        blob = _fuzz_blob()
        if data.draw(st.booleans(), label="truncate"):
            cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
            corrupted = blob[:cut]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
            bit = data.draw(st.integers(0, 7), label="bit")
            mutated = bytearray(blob)
            mutated[pos] ^= 1 << bit
            corrupted = bytes(mutated)
        with pytest.raises(TraceError):
            CommittedTrace.from_bytes(corrupted)

    def test_column_bitflip_is_caught_by_checksum(self, trace):
        """A flipped result value passes every structural check; only
        the digest can (and must) reject it."""
        blob = bytearray(trace.to_bytes())
        blob[-3] ^= 0x10                 # inside the store_values column
        with pytest.raises(TraceError, match="checksum"):
            CommittedTrace.from_bytes(bytes(blob))


class TestGuards:
    def test_wrong_program_rejected(self, trace):
        other = get_program("compress", scale=SCALE, seed=1)
        with pytest.raises(TraceError, match="does not match"):
            trace.validate_for(other)

    def test_wrongpath_rejects_replay_core(self, trace):
        """A wrong-path point never replays a trace, even one handed to
        it explicitly: it runs the live engine."""
        point = resolved_point(speculation="wrongpath")
        info = {}
        result = execute_point(point, trace=trace, info=info)
        assert info["kernel_source"] == "live"
        assert result == execute_point(point, trace=False)

    def test_engine_requires_matching_program(self, trace):
        # A trace of another workload is a loud error at the point
        # level, not a silent live fallback or a divergent replay.
        with pytest.raises(TraceError, match="does not match"):
            execute_point(resolved_point(benchmark="li"), trace=trace)

    def test_exhausted_trace_raises_instead_of_diverging(self, program):
        short = record_trace(program, max_instructions=50)
        with pytest.raises(TraceError, match="exhausted"):
            execute_point(resolved_point(), trace=short)

    def test_truncated_trace_engine_run_raises(self, program):
        # The fused ARVI pass guards truncation like the stream pass.
        short = record_trace(program, max_instructions=50)
        with pytest.raises(TraceError, match="exhausted"):
            kernel_run(program, short, machine_for_depth(20),
                       LevelTwoKind.ARVI)
