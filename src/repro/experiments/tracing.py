"""Trace acquisition policy and the persistent on-disk trace store.

The mechanics of recording and replaying a committed instruction stream
live in :mod:`repro.pipeline.trace`; this module decides *when* the
experiment service uses them and where recorded traces persist:

* ``REPRO_TRACE`` (:attr:`repro.settings.Settings.trace`) — the one
  switch between the two execution paths: ``"on"`` (default) gives
  every redirect point a committed trace, read from the store or
  recorded once and persisted there, and replays it through the
  compiled kernel (:mod:`repro.pipeline.kernel`); ``"off"`` runs every
  point on the live engine.
* :class:`TraceStore` — content-addressed ``*.trace`` files next to the
  result cache (``benchmarks/results/traces/``, relocate with
  ``REPRO_TRACE_DIR``).  Keys include the same package source
  fingerprint the result cache uses (:func:`~repro.experiments.plan.
  code_fingerprint`), so editing the simulator or a workload strands
  stale traces under dead keys instead of replaying them; corrupted or
  truncated files are misses that trigger re-recording, and a failed
  write only costs the next process a recording — never an error.
* :class:`SharedTraces` — the per-batch/per-sweep pool.  Each workload
  identity (benchmark, scale, seed) is fetched from the store (or
  recorded) at most once per batch, so every later ``run_plan`` — and
  every worker of it — reads the trace instead of re-running the
  functional core.  Wrong-path points always keep the live core —
  wrong-path synthesis reads live architectural state.

Changing this module never changes a simulation outcome (replay is
bit-for-bit, enforced by the equality suite), so like the rest of the
experiment harness it is excluded from the result-cache fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from collections import Counter

from repro import obs
from repro.faults import fsio
from repro.experiments.plan import ExperimentPoint, code_fingerprint
from repro.pipeline.functional import DEFAULT_MAX_INSTRUCTIONS
from repro.pipeline.trace import CommittedTrace, TraceError, TraceRecorder
from repro.settings import Settings
from repro.workloads.registry import get_program

#: Versions the trace *key* payload (the file layout is versioned
#: separately by ``pipeline.trace.TRACE_FORMAT_VERSION``).
TRACE_KEY_SCHEMA_VERSION = 1


def trace_mode() -> str:
    """``REPRO_TRACE`` -> "on" | "off" (default "on").

    Kept only because the benchmark harness records it.
    """
    return Settings.from_env().trace


def kernel_mode() -> bool:
    """Whether traced redirect points replay through the kernel.

    Kept only because the benchmark harness records it; it is
    ``REPRO_TRACE`` != off, not a knob of its own.
    """
    return trace_mode() == "on"


def spec_mode() -> bool:
    """Always False: the generated-code replay tier was removed.

    Kept only because the benchmark harness records it.
    """
    return False


def trace_key(benchmark: str, scale: float, seed: int,
              max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> str:
    """Stable content hash identifying one workload's committed stream.

    The functional path is configuration-independent, so the key covers
    only what shapes the stream: the workload identity, the recording
    budget, and the package source fingerprint (any simulator or
    workload edit strands stale traces exactly like stale results).
    """
    payload = {
        "schema": TRACE_KEY_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "benchmark": benchmark,
        "scale": scale,
        "seed": seed,
        "max_instructions": max_instructions,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TraceStore:
    """Content-addressed store of serialized committed traces."""

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = pathlib.Path(directory) if directory is not None \
            else Settings.from_env().trace_dir
        self.hits = 0
        self.misses = 0
        self.put_failed = 0

    def _path(self, key: str) -> pathlib.Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed trace key {key!r}")
        return self.directory / f"{key}.trace"

    def get(self, key: str) -> CommittedTrace | None:
        """Load a stored trace; any malformed file is a miss."""
        try:
            trace = CommittedTrace.from_bytes(self._path(key).read_bytes())
        except (OSError, TraceError):
            self.misses += 1
            obs.inc("trace_store.cold")
            return None
        self.hits += 1
        obs.inc("trace_store.warm")
        return trace

    def put(self, key: str, trace: CommittedTrace) -> None:
        """Atomically and durably persist one trace under its key.

        Routed through :mod:`repro.faults.fsio` (fsync-before-rename,
        chaos-injectable): a mangled stored trace fails
        ``CommittedTrace.from_bytes`` validation on the next ``get`` and
        is simply re-recorded — the store is a cache, never an oracle.
        """
        path = self._path(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        fsio.atomic_write_bytes(path, trace.to_bytes(), site="trace.put")

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.trace"))

    def clear(self) -> int:
        """Delete every stored trace (and orphaned temp files)."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.trace"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.directory.glob("*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed


def default_trace_store() -> TraceStore:
    return TraceStore()


def load_or_record(benchmark: str, scale: float, seed: int,
                   max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                   store: TraceStore | None = None,
                   phase_seconds: dict[str, float] | None = None,
                   ) -> CommittedTrace:
    """A workload's committed trace: from the store, else recorded.

    ``store=None`` uses the default store (``REPRO_TRACE_DIR``).  A
    stored trace that fails validation against the freshly built
    program (a key collision or hand-copied file) is re-recorded and
    overwritten, mirroring the result cache's corrupt-entry policy.  The
    store is a cache: a write that fails (read-only checkout, a file
    where the directory should be) is counted in
    ``trace_store.put_failed`` and the recorded trace is returned.  A
    recording run adds its wall time to ``phase_seconds["record"]``.
    """
    program = get_program(benchmark, scale=scale, seed=seed)
    if store is None:
        store = default_trace_store()
    key = trace_key(benchmark, scale, seed, max_instructions)
    trace = store.get(key)
    if trace is not None:
        try:
            trace.validate_for(program)
            return trace
        except TraceError:
            pass  # stale under this key: re-record below
    started = time.perf_counter()
    with obs.span("record", kind="phase", attrs={
            "phase": "record", "benchmark": benchmark}):
        trace = TraceRecorder(program).record(max_instructions)
    if phase_seconds is not None:
        phase_seconds["record"] = time.perf_counter() - started
    try:
        store.put(key, trace)
    except OSError:
        store.put_failed += 1
        obs.inc("trace_store.put_failed")
    return trace


def _workload_key(point: ExperimentPoint) -> tuple[str, float | None, int]:
    return (point.benchmark, point.scale, point.seed)


class SharedTraces:
    """Per-batch (or per-serial-sweep) committed-trace pool.

    ``get`` returns the trace an :func:`~repro.experiments.runner.
    execute_point` call should replay, or None for a live run.  A trace
    is fetched (see :func:`load_or_record`) at most once per workload
    identity and dropped from the pool as soon as its last consumer has
    fetched it, bounding memory across long serial sweeps.
    """

    def __init__(self, points) -> None:
        self._on = Settings.from_env().trace == "on"
        self._remaining = Counter(
            _workload_key(point) for point in points
            if point.speculation == "redirect")
        self._traces: dict[tuple, CommittedTrace] = {}

    def get(self, point: ExperimentPoint,
            phase_seconds: dict[str, float] | None = None,
            ) -> CommittedTrace | None:
        """The trace for ``point``; a recording it triggers is timed into
        ``phase_seconds["record"]`` (the consuming point's phases).

        A workload that cannot be built raises here, so callers acquire
        the trace inside the point's own error handling.
        """
        if not self._on or point.speculation != "redirect":
            return None
        key = _workload_key(point)
        remaining = self._remaining[key]
        self._remaining[key] = remaining - 1
        trace = self._traces.pop(key, None)
        if trace is None:
            trace = load_or_record(point.benchmark, point.scale, point.seed,
                                   phase_seconds=phase_seconds)
        if remaining > 1:
            self._traces[key] = trace
        return trace
