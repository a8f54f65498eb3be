"""Memory outcome streams (DESIGN.md §10).

A replay that reads its cache outcomes from a stream recorded under
*another* configuration must equal the live engine bit for bit: cache
state depends only on the access sequence and the geometry, and the
per-load forwarding check guards the sequence.  Where the forwarding
decisions differ (perl), the replay must notice and re-run live.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import ValueMode
from repro.pipeline.caches import (
    D_SIDE,
    I_SIDE,
    MemoryHierarchy,
    geometry_key,
    latency_table,
    stats_from_outcomes,
)
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.kernel import ensure_lowered, kernel_run
from repro.pipeline.memstream import MemoryStream, PlayingSource, StreamDiverged
from repro.pipeline.trace import record_trace
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import SPECS, get_program

SCALE = 0.02
BUDGET = 5000
WARMUP = 100

CONFIGS = {
    "baseline": (LevelTwoKind.HYBRID, ValueMode.CURRENT),
    "current": (LevelTwoKind.ARVI, ValueMode.CURRENT),
    "load back": (LevelTwoKind.ARVI, ValueMode.LOAD_BACK),
    "perfect": (LevelTwoKind.ARVI, ValueMode.PERFECT),
}
DEPTHS = (20, 40, 60)
#: Recording points with pairwise distinct configurations and depths:
#: every (configuration, depth) differs in both from at least one.
RECORDINGS = (("perfect", 60), ("baseline", 20), ("current", 40))


def live(program, configuration, depth, budget=BUDGET):
    kind, mode = CONFIGS[configuration]
    config = machine_for_depth(depth)
    return PipelineEngine(program, config, build_predictor(kind, config),
                          value_mode=mode,
                          warmup_instructions=WARMUP).run(budget)


def replay(program, trace, configuration, depth, budget=BUDGET):
    """Kernel replay; returns (result, how the memory outcomes came)."""
    kind, mode = CONFIGS[configuration]
    info = {}
    result = kernel_run(program, trace, machine_for_depth(depth), kind,
                        value_mode=mode, warmup_instructions=WARMUP,
                        max_instructions=budget, info=info)
    return result, info["memory_stream"]


def recorded_stream(program, configuration, depth, budget=BUDGET):
    """The stream a first replay of (configuration, depth) records."""
    trace = record_trace(program, budget)
    assert replay(program, trace, configuration, depth, budget)[1] \
        == "recorded"
    return ensure_lowered(program, trace).memory_stream(
        machine_for_depth(depth))


class TestOutcomeCodes:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(0, (1 << 22) - 1)),
                    min_size=1, max_size=400))
    def test_outcome_latency_equals_live_latency(self, accesses):
        """``latency_table[outcome]`` is what ``*_latency`` returns, and
        the outcome counts rebuild the live statistics."""
        for depth in DEPTHS:
            config = machine_for_depth(depth)
            table = latency_table(config)
            by_latency = MemoryHierarchy(config)
            by_outcome = MemoryHierarchy(config)
            codes = bytearray()
            for data, addr in accesses:
                addr *= 4
                if data:
                    expected = by_latency.data_latency(addr)
                    code = by_outcome.outcome(addr, D_SIDE)
                else:
                    expected = by_latency.instruction_latency(addr)
                    code = by_outcome.outcome(addr, I_SIDE)
                assert table[code] == expected
                codes.append(code)
            assert by_outcome.stats() == by_latency.stats()
            assert stats_from_outcomes(bytes(codes), len(codes)) \
                == by_latency.stats()

    def test_paper_machines_share_one_geometry(self):
        keys = {geometry_key(machine_for_depth(depth)) for depth in DEPTHS}
        assert len(keys) == 1
        tables = {tuple(latency_table(machine_for_depth(depth)))
                  for depth in DEPTHS}
        assert len(tables) == 3


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_stream_from_another_point_equals_live(workload):
    """Every configuration x depth, replayed from a stream recorded under
    a different configuration *and* depth, equals the live engine."""
    program = get_program(workload, scale=SCALE, seed=1)
    streams = {recording: recorded_stream(program, *recording)
               for recording in RECORDINGS}
    trace = record_trace(program, BUDGET)
    lowered = ensure_lowered(program, trace)
    for configuration in CONFIGS:
        for depth in DEPTHS:
            recording = next(r for r in RECORDINGS
                             if r[0] != configuration and r[1] != depth)
            lowered.add_memory_stream(machine_for_depth(depth),
                                      streams[recording])
            result, outcome = replay(program, trace, configuration, depth)
            assert result == live(program, configuration, depth), (
                workload, configuration, depth, recording, outcome)
            # Only perl's store-forwarding decisions depend on timing.
            if workload != "perl":
                assert outcome == "played", (configuration, depth)


def test_perl_forwarding_divergence_reruns_live():
    program = get_program("perl", scale=SCALE, seed=1)
    trace = record_trace(program, BUDGET)
    assert replay(program, trace, "baseline", 20)[1] == "recorded"
    stream = ensure_lowered(program, trace).memory_stream(
        machine_for_depth(20))
    result, outcome = replay(program, trace, "baseline", 40)
    assert outcome == "diverged"
    assert result == live(program, "baseline", 40)
    # A diverged replay leaves the recorded stream in place.
    assert ensure_lowered(program, trace).memory_stream(
        machine_for_depth(20)) is stream


def test_shorter_stream_is_never_used_for_a_longer_run():
    program = get_program("vortex", scale=SCALE, seed=1)
    trace = record_trace(program, BUDGET)
    assert replay(program, trace, "current", 20, budget=2000)[1] \
        == "recorded"
    result, outcome = replay(program, trace, "current", 20)
    assert outcome == "recorded"
    assert result == live(program, "current", 20)
    # The longer recording replaced the shorter one, and serves both.
    stream = ensure_lowered(program, trace).memory_stream(
        machine_for_depth(20))
    assert stream.length == BUDGET
    result, outcome = replay(program, trace, "perfect", 60, budget=2000)
    assert outcome == "played"
    assert result == live(program, "perfect", 60, budget=2000)


@settings(max_examples=12, deadline=None)
@given(recording=st.tuples(st.sampled_from(sorted(CONFIGS)),
                           st.sampled_from(DEPTHS)),
       replaying=st.tuples(st.sampled_from(sorted(CONFIGS)),
                           st.sampled_from(DEPTHS)),
       workload=st.sampled_from(["perl", "m88ksim"]),
       recorded_budget=st.integers(0, 3000),
       budget=st.integers(0, 3000))
def test_any_recording_any_replay_any_budget(recording, replaying, workload,
                                             recorded_budget, budget):
    program = get_program(workload, scale=0.01, seed=1)
    trace = record_trace(program, 3000)
    replay(program, trace, *recording, budget=recorded_budget)
    result, outcome = replay(program, trace, *replaying, budget=budget)
    assert result == live(program, *replaying, budget=budget)
    if min(budget, trace.length) > min(recorded_budget, trace.length):
        assert outcome == "recorded"
    else:
        assert outcome in ("played", "diverged")
    if outcome == "played":
        # Playing is only right if the replay's own access sequence is a
        # prefix of the recording's: record it afresh and compare.
        played = ensure_lowered(program, trace).memory_stream(
            machine_for_depth(replaying[1]))
        own = recorded_stream(program, *replaying, budget=budget)
        used = len(own.codes)
        assert own.codes == played.codes[:used]
        assert own.access_pos == played.access_pos[:used]


def test_playing_source_refuses_either_forwarding_mismatch():
    """A load the recording saw read the D-cache must not forward, and
    one it saw forward must not read the D-cache: either way the replay
    stops before reading a latency past the divergence."""
    stream = MemoryStream(codes=bytes([0, 6, 7]), forwarded=bytes([0, 1, 0]),
                          access_pos=array("I", [0, 1, 3]), length=4)
    source = PlayingSource(stream, machine_for_depth(20))
    table = latency_table(machine_for_depth(20))
    assert source.ilat(0) == table[0]
    assert source.dlat(0) == table[6]
    source.forward(1)
    with pytest.raises(StreamDiverged):
        source.dlat(1)
    with pytest.raises(StreamDiverged):
        source.forward(2)
    assert source.dlat(2) == table[7]
