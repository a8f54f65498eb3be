"""Experiment-service trace layer: sharing policy, disk store, equality.

Trace-replayed grids equal live-core grids ``==`` across workloads x
configurations x depths x both speculation modes — plus the store rules
(fingerprint-keyed staleness, corrupt files recompute, atomic writes, a
failed write costs only a recording, later plans read earlier plans'
traces, already lowered).
"""

import errno
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.aggregate import ViewAggregator
from repro.experiments.plan import (
    ExperimentPoint,
    build_plan,
    plan_from_points,
)
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan
from repro.experiments.tracing import (
    SharedTraces,
    TraceStore,
    kernel_mode,
    load_or_record,
    persist_lowered,
    spec_mode,
    trace_key,
    trace_mode,
)
from repro.pipeline.config import machine_for_depth
from repro.pipeline.kernel import _PERSISTED, ensure_lowered, is_lowered
from repro.pipeline.trace import record_trace
from repro.workloads.registry import get_program

SCALE = 0.02
WARMUP = 200


def point(benchmark="m88ksim", configuration="baseline", depth=20,
          seed=1, speculation="redirect"):
    return ExperimentPoint(benchmark, configuration, depth, scale=SCALE,
                           warmup=WARMUP, seed=seed,
                           speculation=speculation).resolve()


class TestKnobs:
    def test_trace_mode_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_mode() == "on"
        for off in ("0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_TRACE", off)
            assert trace_mode() == "off"
        for on in ("1", "memory", "disk"):
            monkeypatch.setenv("REPRO_TRACE", on)
            assert trace_mode() == "on"

    def test_trace_mode_rejects_unknown_values(self, monkeypatch):
        # REPRO_TRACE alone picks kernel or live, so a typo must not
        # silently pick one.
        monkeypatch.setenv("REPRO_TRACE", "dsik")
        with pytest.raises(ValueError, match="REPRO_TRACE 'dsik'") as err:
            trace_mode()
        for accepted in ("'0'", "'1'", "'disk'", "'memory'"):
            assert accepted in str(err.value)

    @pytest.mark.parametrize("raw,legacy", [
        ("TRUE", "memory"), (" Yes ", "memory"), ("on", "memory"),
        ("memory", "memory"), ("DISK", "disk"), (" off ", "off"),
        ("No", "off"), ("False", "off"),
    ])
    def test_every_accepted_spelling(self, monkeypatch, raw, legacy):
        # ``legacy`` is the mode the spelling selected when there were
        # two on-modes ("memory" and "disk"): each still parses, and both
        # now select the one on-mode.  Case and surrounding whitespace
        # are normalized; the kernel is used exactly when traces are.
        monkeypatch.setenv("REPRO_TRACE", raw)
        expected = "off" if legacy == "off" else "on"
        assert trace_mode() == expected
        assert kernel_mode() is (expected == "on")

    def test_unknown_value_fails_the_point(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "dsik")
        with pytest.raises(ValueError, match="REPRO_TRACE"):
            execute_point(point())

    def test_benchmark_shims(self, monkeypatch):
        # kernel_mode/spec_mode are no knobs of their own: one follows
        # REPRO_TRACE, the other is constant.
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert kernel_mode() is False
        assert spec_mode() is False
        monkeypatch.setenv("REPRO_TRACE", "disk")
        assert kernel_mode() is True
        assert spec_mode() is False

    def test_default_trace_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        assert TraceStore().directory == tmp_path

    def test_trace_key_covers_workload_identity(self):
        base = trace_key("m88ksim", SCALE, 1)
        assert trace_key("m88ksim", SCALE, 1) == base  # stable
        assert trace_key("compress", SCALE, 1) != base
        assert trace_key("m88ksim", SCALE * 2, 1) != base
        assert trace_key("m88ksim", SCALE, 2) != base
        assert trace_key("m88ksim", SCALE, 1, max_instructions=10) != base

    def test_trace_key_tracks_source_fingerprint(self, monkeypatch):
        """Editing the simulator strands stale traces, like stale results."""
        import repro.experiments.tracing as tracing_module

        before = trace_key("m88ksim", SCALE, 1)
        monkeypatch.setattr(tracing_module, "code_fingerprint",
                            lambda: "deadbeef")
        assert trace_key("m88ksim", SCALE, 1) != before


class TestTraceStore:
    def test_put_get_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        program = get_program("m88ksim", scale=SCALE, seed=1)
        trace = record_trace(program)
        key = trace_key("m88ksim", SCALE, 1)
        assert store.get(key) is None and store.misses == 1
        store.put(key, trace)
        assert key in store and len(store) == 1
        loaded = store.get(key)
        assert loaded is not None and store.hits == 1
        assert loaded.pcs == trace.pcs and loaded.halted == trace.halted

    def test_corrupt_entry_is_a_miss_and_rerecorded(self, tmp_path):
        store = TraceStore(tmp_path)
        key = trace_key("m88ksim", SCALE, 1)
        store.directory.mkdir(parents=True, exist_ok=True)
        (store.directory / f"{key}.trace").write_bytes(b"garbage")
        assert store.get(key) is None
        trace = load_or_record("m88ksim", SCALE, 1, store=store)
        assert trace.length > 0
        assert store.get(key) is not None  # overwritten with a good one

    def test_stale_trace_under_colliding_key_is_rerecorded(self, tmp_path):
        """A trace of the wrong program under a key (hand-copied file)
        fails validation and is recomputed, not replayed."""
        store = TraceStore(tmp_path)
        key = trace_key("m88ksim", SCALE, 1)
        store.put(key, record_trace(get_program("compress", scale=SCALE,
                                                seed=1)))
        trace = load_or_record("m88ksim", SCALE, 1, store=store)
        assert trace.program_name == get_program(
            "m88ksim", scale=SCALE, seed=1).name
        assert store.get(key).program_name == trace.program_name

    def test_malformed_key_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        with pytest.raises(ValueError):
            store.get("../escape")

    def test_clear_removes_entries(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(trace_key("m88ksim", SCALE, 1),
                  record_trace(get_program("m88ksim", scale=SCALE, seed=1)))
        assert store.clear() == 1
        assert len(store) == 0


class TestLoweredStore:
    """Derived columns persist beside their trace (DESIGN.md §8), under
    the same key and checksum rules: anything off is a miss, rebuilt."""

    KEY = trace_key("m88ksim", SCALE, 1)

    def _stored(self, directory):
        """Record, replay (lowering + derived columns + a memory stream)
        and persist m88ksim into a store at ``directory``."""
        store = TraceStore(directory)
        trace = load_or_record("m88ksim", SCALE, 1, store=store)
        execute_point(point(configuration="current"), trace=trace)
        persist_lowered(trace_key("m88ksim", SCALE, 1), trace, store)
        assert store.lowered_put_failed == 0
        return trace

    def _reload(self, directory):
        store = TraceStore(directory)
        return store, load_or_record("m88ksim", SCALE, 1, store=store)

    def test_store_hands_back_a_lowered_trace(self, tmp_path):
        original = self._stored(tmp_path)._lowered_cache
        store, trace = self._reload(tmp_path)
        program = get_program("m88ksim", scale=SCALE, seed=1)
        assert store.lowered_hits == 1 and is_lowered(trace, program)
        lowered = ensure_lowered(program, trace)
        assert not lowered.dirty
        for name in _PERSISTED:
            assert getattr(lowered, name) == getattr(original, name), name
        assert lowered.memory_stream(machine_for_depth(20)) is not None
        info = {}
        assert execute_point(point(configuration="perfect"), trace=trace,
                             info=info) \
            == execute_point(point(configuration="perfect"), trace=False)
        assert info["memory_stream"] == "played"
        assert "lower" not in info["phase_seconds"]

    @pytest.mark.parametrize("damage", ["truncated", "bit flip", "garbage",
                                        "other workload", "empty"])
    def test_damaged_blob_is_a_miss_and_rebuilt(self, tmp_path, damage):
        self._stored(tmp_path)
        path = tmp_path / f"{self.KEY}.lowered"
        data = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(data[:len(data) // 2])
        elif damage == "bit flip":
            flipped = bytearray(data)
            flipped[len(data) // 2] ^= 0x10
            path.write_bytes(bytes(flipped))
        elif damage == "garbage":
            path.write_bytes(b"REPROLWR" + b"\xff" * 64)
        elif damage == "empty":
            path.write_bytes(b"")
        else:
            # A well-formed blob of another trace under this key.
            other = TraceStore(tmp_path / "other")
            compress = load_or_record("compress", SCALE, 1, store=other)
            ensure_lowered(get_program("compress", scale=SCALE, seed=1),
                           compress)
            persist_lowered(self.KEY, compress, other)
            path.write_bytes(
                (tmp_path / "other" / f"{self.KEY}.lowered").read_bytes())
        store, trace = self._reload(tmp_path)
        assert store.lowered_misses == 1 and not is_lowered(trace)
        assert execute_point(point(configuration="current"), trace=trace) \
            == execute_point(point(configuration="current"), trace=False)
        persist_lowered(self.KEY, trace, store)   # rebuilt and rewritten
        store, trace = self._reload(tmp_path)
        assert store.lowered_hits == 1 and is_lowered(trace)

    def test_blob_from_another_code_fingerprint_is_a_miss(
            self, tmp_path, monkeypatch):
        """A lowered blob written under another key (another code
        fingerprint) is refused even when its trace is byte-identical."""
        import repro.experiments.tracing as tracing_module

        monkeypatch.setattr(tracing_module, "code_fingerprint",
                            lambda: "deadbeef")
        stale_key = trace_key("m88ksim", SCALE, 1)
        self._stored(tmp_path / "stale")
        stale = tmp_path / "stale" / f"{stale_key}.lowered"
        monkeypatch.undo()
        assert stale_key != self.KEY
        self._stored(tmp_path)
        (tmp_path / f"{self.KEY}.lowered").write_bytes(stale.read_bytes())
        store, trace = self._reload(tmp_path)
        assert store.lowered_misses == 1 and not is_lowered(trace)

    def test_failed_write_only_counts(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        store = TraceStore(blocker)
        trace = load_or_record("m88ksim", SCALE, 1, store=store)
        execute_point(point(), trace=trace)
        persist_lowered(self.KEY, trace, store)
        assert store.lowered_put_failed == 1

        def broken(key, lowered):
            raise OSError(errno.ENOSPC, "No space left on device")

        store = TraceStore(tmp_path / "store")
        trace = load_or_record("m88ksim", SCALE, 1, store=store)
        execute_point(point(), trace=trace)
        monkeypatch.setattr(store, "put_lowered", broken)
        persist_lowered(self.KEY, trace, store)
        assert store.lowered_put_failed == 1
        assert not (tmp_path / "store" / f"{self.KEY}.lowered").exists()

    def test_unchanged_lowered_form_is_not_rewritten(self, tmp_path):
        self._stored(tmp_path)
        store, trace = self._reload(tmp_path)
        path = tmp_path / f"{self.KEY}.lowered"
        before = path.stat().st_mtime_ns
        execute_point(point(configuration="current"), trace=trace)
        persist_lowered(self.KEY, trace, store)
        assert path.stat().st_mtime_ns == before
        assert store.lowered_put_failed == 0

    def test_clear_and_len_handle_lowered_files(self, tmp_path):
        self._stored(tmp_path)
        store = TraceStore(tmp_path)
        assert sorted(p.suffix for p in tmp_path.iterdir()) \
            == [".lowered", ".trace"]
        assert len(store) == 1          # one entry, two files
        (tmp_path / "orphan.lowered.tmp").write_bytes(b"")
        assert store.clear() == 1
        assert len(store) == 0 and not any(tmp_path.iterdir())

    def test_second_serial_plan_acquires_lowered_traces(self, monkeypatch,
                                                        tmp_path):
        """The serial backend's sweep-wide pool persists and reads the
        lowered forms like the pool workers do (the local pool is
        ``TestDiskMode.test_second_plan_reads_the_store``)."""
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        plan = build_plan(("baseline", "current", "perfect"), (20, 60),
                          ("m88ksim", "perl"), scale=SCALE, warmup=WARMUP)
        grids, phases, events = [], [], []
        for _ in range(2):
            sink = ViewAggregator()
            seen = []
            grids.append(run_plan(plan, jobs=1, backend="serial",
                                  use_cache=False, sink=sink,
                                  progress=seen.append))
            phases.append(
                sink.snapshot().views["status"]["phase_seconds"])
            events.append({event.phase for event in seen})
        monkeypatch.setenv("REPRO_TRACE", "0")
        live = run_plan(plan, jobs=1, use_cache=False)
        assert grids[0] == live and grids[1] == live
        assert "lower" in events[0] and phases[0]["lower"] > 0
        assert events[1] == {"point"}
        assert "lower" not in phases[1] and "record" not in phases[1]
        assert len(list(tmp_path.glob("*.lowered"))) == 2


class TestSharedTraces:
    def test_wrongpath_points_stay_live(self):
        points = [point(speculation="wrongpath") for _ in range(3)]
        traces = SharedTraces(points)
        assert all(traces.get(p) is None for p in points)

    def test_single_redirect_point_gets_a_trace(self, monkeypatch,
                                                tmp_path):
        # Record + kernel beats the live engine even for one point, and
        # the recording persists for the next run.
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        single = point()
        trace = SharedTraces([single]).get(single)
        assert trace is not None
        assert len(TraceStore(tmp_path)) == 1
        assert execute_point(single, trace=trace) \
            == execute_point(single, trace=False)

    def test_shared_workload_records_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        first = traces.get(points[0])
        second = traces.get(points[1])
        assert first is not None and first is second  # one recording

    def test_off_mode_disables_sharing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        assert traces.get(points[0]) is None

    def test_pool_drops_trace_after_last_consumer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        points = [point(configuration=c) for c in ("baseline", "current")]
        traces = SharedTraces(points)
        traces.get(points[0])
        assert traces._traces  # held for the remaining consumer
        traces.get(points[1])
        assert not traces._traces  # released: bounded memory


class TestExecutePointTraceArgument:
    def test_invalid_trace_values_rejected_clearly(self):
        with pytest.raises(TypeError, match="CommittedTrace"):
            execute_point(point(), trace=True)
        with pytest.raises(TypeError, match="CommittedTrace"):
            execute_point(point(), trace="yes")

    def test_explicit_trace_and_force_live_agree(self):
        program = get_program("m88ksim", scale=SCALE, seed=1)
        trace = record_trace(program)
        assert (execute_point(point(), trace=trace)
                == execute_point(point(), trace=False))


class TestDiskMode:
    """The store is the default: traces persist across calls and plans."""

    def test_cold_single_point_records_then_replays(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE", "0")
        live = execute_point(point())
        monkeypatch.delenv("REPRO_TRACE")
        cold = execute_point(point())       # records into the store
        store = TraceStore(tmp_path)
        assert len(store) == 1
        warm = execute_point(point())       # replays from the store
        assert cold == live == warm

    def test_disk_mode_key_isolation_by_seed(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE", "disk")
        execute_point(point(seed=1))
        execute_point(point(seed=2))
        assert len(TraceStore(tmp_path)) == 2

    def test_second_plan_reads_the_store(self, monkeypatch, tmp_path):
        """Successive run_plan calls on the local pool: the first records
        and lowers each workload once, the second records and lowers
        nothing (its traces come back from the store already lowered),
        and both equal the live grid."""
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        plan = build_plan(("baseline", "current"), (20, 40),
                          ("m88ksim", "li"), scale=SCALE, warmup=WARMUP)
        grids, phases, events = [], [], []
        for _ in range(2):
            sink = ViewAggregator()
            seen = []
            grids.append(run_plan(plan, jobs=2, backend="local",
                                  use_cache=False, sink=sink,
                                  progress=seen.append))
            phases.append(
                sink.snapshot().views["status"]["phase_seconds"])
            events.append({event.phase for event in seen})
        monkeypatch.setenv("REPRO_TRACE", "0")
        live = run_plan(plan, jobs=1, use_cache=False)
        assert grids[0] == live and grids[1] == live
        assert phases[0]["record"] > 0 and phases[0]["lower"] > 0
        assert "record" not in phases[1] and "lower" not in phases[1]
        assert "lower" in events[0] and events[1] == {"point"}
        assert phases[1]["replay"] > 0
        assert len(TraceStore(tmp_path)) == 2
        assert len(list(tmp_path.glob("*.lowered"))) == 2

    def test_failed_store_write_is_only_a_miss(self, monkeypatch, tmp_path):
        """A store that cannot be written (here a regular file where the
        directory should be) still yields the recorded trace."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        store = TraceStore(blocker)
        trace = load_or_record("m88ksim", SCALE, 1, store=store)
        assert trace.length > 0
        assert store.put_failed == 1 and store.misses == 1

        plan = build_plan(("baseline", "current"), (20,), ("m88ksim",),
                          scale=SCALE, warmup=WARMUP)
        monkeypatch.setenv("REPRO_TRACE_DIR", str(blocker))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        traced = run_plan(plan, jobs=1, use_cache=False)
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert traced == run_plan(plan, jobs=1, use_cache=False)


class TestGridEquality:
    """The PR 4 satellite property: trace-replayed == live-core grids."""

    @settings(max_examples=5, deadline=None)
    @given(
        benchmarks=st.lists(st.sampled_from(["m88ksim", "li", "compress"]),
                            min_size=1, max_size=2, unique=True),
        configurations=st.lists(
            st.sampled_from(["baseline", "current", "load back", "perfect"]),
            min_size=1, max_size=2, unique=True),
        depths=st.lists(st.sampled_from([20, 40, 60]), min_size=1,
                        max_size=2, unique=True),
        speculation=st.sampled_from(["redirect", "wrongpath"]),
        seed=st.integers(1, 2),
    )
    def test_trace_replayed_grids_equal_live_grids(
            self, benchmarks, configurations, depths, speculation, seed):
        plan = plan_from_points([
            ExperimentPoint(benchmark, configuration, depth, scale=0.01,
                            warmup=50, seed=seed, speculation=speculation)
            for benchmark in benchmarks
            for configuration in configurations
            for depth in depths
        ])
        previous = os.environ.get("REPRO_TRACE")
        try:
            os.environ["REPRO_TRACE"] = "0"
            live = run_plan(plan, jobs=1, use_cache=False)
            os.environ["REPRO_TRACE"] = "1"
            traced_serial = run_plan(plan, jobs=1, use_cache=False)
            traced_batched = run_plan(plan, jobs=2, use_cache=False)
        finally:
            if previous is None:
                os.environ.pop("REPRO_TRACE", None)
            else:
                os.environ["REPRO_TRACE"] = previous
        assert traced_serial == live
        assert traced_batched == live

    def test_mixed_speculation_grid_shares_only_redirect(self, monkeypatch):
        """wrongpath points in a traced grid still run live and still
        agree with an untraced run."""
        pts = [point(configuration="baseline"),
               point(configuration="current"),
               point(speculation="wrongpath"),
               point(configuration="current", speculation="wrongpath")]
        plan = plan_from_points(pts)
        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = run_plan(plan, jobs=1, use_cache=False)
        monkeypatch.setenv("REPRO_TRACE", "0")
        live = run_plan(plan, jobs=1, use_cache=False)
        assert traced == live
