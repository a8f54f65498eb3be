"""Work-queue broker for the distributed experiment backend.

Two independent pieces live here (DESIGN.md §9):

* **The wire format** — :func:`encode_message` / :func:`decode_message`
  frame every queue payload (job descriptions, result envelopes) as
  ``magic | u32 body length | canonical-JSON body | raw blob``.  The
  body carries a SHA-256 digest over the canonical body-minus-digest
  plus the blob, so *any* truncation or bit flip — in the framing, the
  JSON, the digest itself or the blob — raises :class:`MessageError`.
  Nothing transport-corrupted can ever decode into a silently different
  job or result.  The blob slot ships binary sidecars (a serialized
  :class:`~repro.pipeline.trace.CommittedTrace`) without base64 bloat.
* **The queue** — :class:`FileBroker`, a single-directory work queue
  (``queue/`` → ``leased/`` → ``results/`` plus a ``ticks/`` progress
  stream) whose only primitives are atomic rename and atomic
  write-then-rename, so any filesystem shared between the scheduler and
  its workers (local disk for subprocess workers, NFS for a cluster)
  works unchanged.  The message layer above is transport-agnostic: a
  socket broker would reuse :func:`encode_message` verbatim.

Queue state machine (the scheduler side lives in
:class:`~repro.experiments.backends.QueueBackend`):

* ``submit`` writes a job message into ``queue/``;
* a worker ``lease``\\ s by atomically renaming the file into
  ``leased/`` — rename either succeeds for exactly one worker or raises,
  so no job is ever double-leased;
* the lease heartbeat is a **monotonic counter** in a ``.hb`` sidecar
  next to the leased file: ``renew`` (and every per-point ``tick``)
  increments it, and :meth:`FileBroker.expired` reports jobs whose
  counter has not advanced for ``lease_timeout`` seconds *of the
  scheduler's own monotonic clock* — immune to wall-clock skew between
  hosts and to coarse-mtime filesystems.  The file mtime (also touched
  by ``renew``) remains the fallback for a lease this scheduler has
  never observed before, e.g. one taken before the scheduler restarted;
* ``complete`` atomically publishes a result message into ``results/``
  and releases the lease; :meth:`FileBroker.collect_results` consumes
  result files, surfacing undecodable ones as :class:`MessageError`
  values (the scheduler retries those with the same bounded-attempt
  machinery as an expired lease — a corrupt payload is never an answer
  and never silently dropped).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
import time
from dataclasses import dataclass

from repro.faults import fsio
from repro.faults.injector import active as _faults_active
from repro.faults.policy import RetriesExhausted, RetryPolicy

#: Versions the framing + digest rules; mismatches are decode errors.
MESSAGE_FORMAT_VERSION = 1

_MAGIC = b"REPROQMS"


class QueueError(RuntimeError):
    """A queue operation failed (transport, lease, or retry exhaustion)."""


class MessageError(QueueError):
    """A queue message is malformed, truncated, or fails its checksum."""


class RemotePointError(QueueError):
    """A worker failed to simulate one point; carries the remote detail."""


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


def encode_message(kind: str, payload: dict, blob: bytes = b"") -> bytes:
    """Frame one message: magic, body length, digested JSON body, blob."""
    header = {
        "format": MESSAGE_FORMAT_VERSION,
        "kind": kind,
        "payload": payload,
        "blob_len": len(blob),
    }
    header["sha256"] = hashlib.sha256(_canonical(header) + blob).hexdigest()
    body = _canonical(header)
    return _MAGIC + struct.pack("<I", len(body)) + body + blob


@dataclass(frozen=True)
class Message:
    """One decoded (and integrity-verified) queue message."""

    kind: str
    payload: dict
    blob: bytes


def decode_message(data: bytes) -> Message:
    """Parse a framed message; any corruption raises :class:`MessageError`.

    The checksum covers the canonical body and the blob, so the JSON
    payload, the counts, the digest field and the binary sidecar are all
    tamper-evident — a bit-flipped message can never decode into a
    different job or result.
    """
    try:
        if data[:8] != _MAGIC:
            raise MessageError("bad queue-message magic")
        (body_len,) = struct.unpack_from("<I", data, 8)
        body = data[12:12 + body_len]
        if len(body) != body_len:
            raise MessageError(
                f"truncated message body ({len(body)} of {body_len} bytes)")
        header = json.loads(body.decode())
        if header.get("format") != MESSAGE_FORMAT_VERSION:
            raise MessageError(
                f"queue-message format {header.get('format')!r} != "
                f"{MESSAGE_FORMAT_VERSION}")
        blob = bytes(data[12 + body_len:])
        if len(blob) != header["blob_len"]:
            raise MessageError(
                f"blob is {len(blob)} bytes, header says "
                f"{header['blob_len']}")
        stated = header.pop("sha256")
        actual = hashlib.sha256(_canonical(header) + blob).hexdigest()
        if stated != actual:
            raise MessageError("queue-message checksum mismatch")
        return Message(kind=header["kind"], payload=header["payload"],
                       blob=blob)
    except MessageError:
        raise
    except Exception as exc:  # truncated/garbage input of any shape
        raise MessageError(f"malformed queue message: {exc}") from exc


@dataclass(frozen=True)
class LeasedJob:
    """One job a worker holds: its id plus the decoded message (``None``
    when the stored file itself failed to decode — the worker reports
    that back so the scheduler can retry from its pristine copy)."""

    job_id: str
    message: Message | None
    error: str | None = None


class FileBroker:
    """Single-directory work queue shared by scheduler and workers."""

    def __init__(self, directory: str | os.PathLike, *,
                 lease_timeout: float = 30.0) -> None:
        self.directory = pathlib.Path(directory)
        self.lease_timeout = float(lease_timeout)
        self.queue_dir = self.directory / "queue"
        self.leased_dir = self.directory / "leased"
        self.results_dir = self.directory / "results"
        self.ticks_dir = self.directory / "ticks"
        for path in (self.queue_dir, self.leased_dir, self.results_dir,
                     self.ticks_dir):
            path.mkdir(parents=True, exist_ok=True)
        # Read offset per tick file, so drain_ticks is incremental.
        self._tick_offsets: dict[str, int] = {}
        # Scheduler-side heartbeat tracking: job -> (last counter value,
        # monotonic instant we saw it change).  Worker-side: job -> the
        # counter value this process last wrote.
        self._hb_seen: dict[str, tuple[int | None, float]] = {}
        self._hb_counts: dict[str, int] = {}
        # Transient-I/O policy for submit/complete/tick.
        self._retry = RetryPolicy()

    # -- low-level helpers ---------------------------------------------------

    @staticmethod
    def _check_job_id(job_id: str) -> str:
        if not job_id or any(c in job_id for c in "/\\\0") \
                or job_id.startswith("."):
            raise ValueError(f"malformed job id {job_id!r}")
        return job_id

    def _atomic_write(self, path: pathlib.Path, data: bytes, *,
                      site: str | None = None) -> None:
        fsio.atomic_write_bytes(path, data, site=site)

    def _hb_path(self, job_id: str) -> pathlib.Path:
        return self.leased_dir / f"{job_id}.hb"

    def _write_heartbeat(self, job_id: str, count: int) -> None:
        try:
            # No fsync: heartbeats are advisory liveness, not results.
            fsio.atomic_write_bytes(self._hb_path(job_id),
                                    str(count).encode(), fsync=False)
        except OSError:
            pass

    def _read_heartbeat(self, job_id: str) -> int | None:
        try:
            return int(self._hb_path(job_id).read_bytes())
        except (OSError, ValueError):
            return None

    def _forget_lease(self, job_id: str) -> None:
        self._hb_seen.pop(job_id, None)
        self._hb_counts.pop(job_id, None)
        try:
            os.unlink(self._hb_path(job_id))
        except OSError:
            pass

    # -- scheduler side ------------------------------------------------------

    def submit(self, job_id: str, payload: dict, blob: bytes = b"") -> None:
        """Enqueue one job message (atomically visible to workers).

        Transient ``OSError`` (real or injected) is retried under the
        broker's :class:`~repro.faults.policy.RetryPolicy`; exhaustion
        raises the typed :class:`~repro.faults.policy.RetriesExhausted`.
        """
        self._check_job_id(job_id)
        data = encode_message("job", payload, blob)
        self._retry.call(
            lambda: self._atomic_write(self.queue_dir / f"{job_id}.msg",
                                       data, site="broker.submit"),
            key=f"submit/{job_id}", what=f"submit of job {job_id}")

    def remove(self, job_id: str) -> None:
        """Withdraw a job from the queue and release any lease on it."""
        self._check_job_id(job_id)
        for directory in (self.queue_dir, self.leased_dir):
            try:
                os.unlink(directory / f"{job_id}.msg")
            except OSError:
                pass
        self._forget_lease(job_id)

    def drain_ticks(self) -> list[tuple[str, int, float | None]]:
        """New per-point progress ticks since the last drain.

        Each worker appends ``"<index>\\n"`` or ``"<index>:<seconds>\\n"``
        lines to its job's tick file (the second form carries the
        point's compute duration for progress telemetry); only complete
        lines are consumed (a torn final line is left for the next
        drain), and unparseable lines are skipped — ticks are progress
        hints, never results.  Yields ``(job_id, index, duration)``
        with ``duration=None`` for bare-index lines.
        """
        ticks: list[tuple[str, int, float | None]] = []
        for path in sorted(self.ticks_dir.glob("*.ticks")):
            job_id = path.stem
            offset = self._tick_offsets.get(job_id, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            complete = chunk.rfind(b"\n") + 1
            self._tick_offsets[job_id] = offset + complete
            for line in chunk[:complete].splitlines():
                index_part, _, dur_part = line.partition(b":")
                try:
                    index = int(index_part)
                    duration = float(dur_part) if dur_part else None
                except ValueError:
                    continue
                ticks.append((job_id, index, duration))
            # A requeued job's ticks restart from index 0; truncation is
            # impossible (append-only), so offsets only grow.
        return ticks

    def collect_results(self) -> list[tuple[str, Message | MessageError]]:
        """Consume result files; corrupt ones surface as MessageError."""
        collected: list[tuple[str, Message | MessageError]] = []
        for path in sorted(self.results_dir.glob("*.msg")):
            try:
                data = path.read_bytes()
            except OSError:
                continue
            try:
                outcome: Message | MessageError = decode_message(data)
            except MessageError as exc:
                outcome = exc
            try:
                os.unlink(path)
            except OSError:
                pass
            collected.append((path.stem, outcome))
        return collected

    def expired(self) -> list[str]:
        """Leased jobs whose heartbeat has stalled for ``lease_timeout``.

        Liveness is judged by the monotonic heartbeat *counter* in the
        lease's ``.hb`` sidecar, aged against this process's own
        monotonic clock — wall-clock skew between scheduler and worker
        hosts cannot misfire it.  A lease observed for the first time
        (taken before this scheduler started watching) falls back to the
        file-mtime test once, then joins counter tracking.  That
        one-shot test carries a staleness floor of one observation
        interval (never less than a second): filesystems may round
        ``st_mtime`` to whole seconds, so with a sub-second
        ``lease_timeout`` a lease taken *just now* could otherwise look
        up to a second stale and be expired before its worker ever had
        a chance to heartbeat.  Genuinely orphaned leases (minutes or
        hours old) still expire on first sight.
        """
        now = time.monotonic()
        slack = max(1.0, self.lease_timeout)
        mtime_deadline = time.time() - self.lease_timeout - slack
        stale = []
        for path in self.leased_dir.glob("*.msg"):
            job_id = path.stem
            try:
                mtime = path.stat().st_mtime
            except OSError:
                self._hb_seen.pop(job_id, None)
                continue  # completed/withdrawn between glob and stat
            count = self._read_heartbeat(job_id)
            record = self._hb_seen.get(job_id)
            if record is None:
                if mtime < mtime_deadline:
                    # Orphaned long before this watcher started.  Not
                    # recorded in _hb_seen: the job is about to be
                    # requeued, and its heartbeat age is genuinely
                    # unknown (the mtime came from another host's wall
                    # clock — see lease_age).
                    stale.append(job_id)
                else:
                    self._hb_seen[job_id] = (count, now)
                continue
            seen_count, seen_at = record
            if count is not None and count != seen_count:
                self._hb_seen[job_id] = (count, now)
                continue
            if now - seen_at > self.lease_timeout:
                stale.append(job_id)
        return stale

    def lease_age(self, job_id: str) -> float | None:
        """Seconds since a leased job's last observed heartbeat, or None.

        Skew-immune by construction: the age is this process's own
        monotonic clock measured from the moment the heartbeat counter
        was last seen to advance.  A lease this watcher has never
        observed has no trusted reference point — its file mtime was
        stamped by another host's wall clock, and cross-host skew makes
        ``time.time() - st_mtime`` arbitrarily wrong (a future-skewed
        mtime clamps to an innocent-looking 0.0, hiding a genuinely
        stalled lease) — so the age is ``None`` (unknown), rendered as
        "unknown" in QueueError messages and lease-lifecycle events.
        """
        try:
            path = self.leased_dir / f"{self._check_job_id(job_id)}.msg"
            record = self._hb_seen.get(job_id)
            if record is not None and path.exists():
                return max(0.0, time.monotonic() - record[1])
        except (OSError, ValueError):
            return None
        return None

    def queued_count(self) -> int:
        return sum(1 for _ in self.queue_dir.glob("*.msg"))

    def leased_count(self) -> int:
        return sum(1 for _ in self.leased_dir.glob("*.msg"))

    # -- worker side ---------------------------------------------------------

    def lease(self) -> LeasedJob | None:
        """Atomically claim the oldest queued job, or None when idle.

        The queue→leased rename succeeds for exactly one process; losers
        move on to the next file.  A stored message that fails to decode
        is still *leased* (so it stops bouncing between workers) and
        returned with ``message=None`` — the worker reports the decode
        failure as its result and the scheduler retries from its own
        pristine copy of the job.
        """
        for path in sorted(self.queue_dir.glob("*.msg")):
            target = self.leased_dir / path.name
            try:
                os.rename(path, target)
            except OSError:
                continue  # another worker won the rename
            try:
                os.utime(target)
                data = target.read_bytes()
            except OSError:
                # The scheduler withdrew the job (remove()) in the
                # instant between our rename and this read — it is no
                # longer ours; move on.
                continue
            self._hb_counts[path.stem] = 0
            self._write_heartbeat(path.stem, 0)
            try:
                message = decode_message(data)
            except MessageError as exc:
                return LeasedJob(path.stem, None, error=str(exc))
            return LeasedJob(path.stem, message)
        return None

    def renew(self, job_id: str) -> None:
        """Heartbeat: advance the lease's monotonic counter (+ mtime)."""
        self._check_job_id(job_id)
        injector = _faults_active()
        if injector is not None \
                and injector.heartbeat_stalled(self.lease_timeout):
            return  # injected stall: the scheduler must expire us
        try:
            os.utime(self.leased_dir / f"{job_id}.msg")
        except OSError:
            return  # lease already reclaimed; the result dedupe handles it
        count = self._hb_counts.get(job_id, 0) + 1
        self._hb_counts[job_id] = count
        self._write_heartbeat(job_id, count)

    def tick(self, job_id: str, index: int,
             duration: float | None = None) -> None:
        """Record one completed point (and renew the lease)."""
        self._check_job_id(job_id)
        line = f"{index}\n" if duration is None \
            else f"{index}:{duration:.6f}\n"

        def _append() -> None:
            injector = _faults_active()
            if injector is not None:
                injector.maybe_io_error("broker.tick")
            with open(self.ticks_dir / f"{job_id}.ticks", "ab") as handle:
                handle.write(line.encode())

        try:
            self._retry.call(_append, key=f"tick/{job_id}/{index}",
                             what=f"tick for job {job_id}")
        except RetriesExhausted:
            pass  # ticks are progress hints; the result is what matters
        self.renew(job_id)

    def complete(self, job_id: str, payload: dict, blob: bytes = b"", *,
                 raw: bytes | None = None) -> None:
        """Publish a result message and release the lease.

        ``raw`` bypasses encoding — it exists for fault injection (the
        worker's ``--corrupt-results`` flag) and tests.  Transient
        ``OSError`` on the result write is retried like ``submit``.
        """
        self._check_job_id(job_id)
        data = raw if raw is not None \
            else encode_message("result", payload, blob)
        self._retry.call(
            lambda: self._atomic_write(self.results_dir / f"{job_id}.msg",
                                       data, site="broker.complete"),
            key=f"complete/{job_id}", what=f"result publish for job {job_id}")
        try:
            os.unlink(self.leased_dir / f"{job_id}.msg")
        except OSError:
            pass
        self._forget_lease(job_id)

    def release(self, job_id: str) -> bool:
        """Hand a leased job back to the queue (graceful shutdown).

        The opposite of :meth:`lease`: the leased file atomically moves
        back into ``queue/`` so the next worker picks it up immediately
        instead of waiting out the lease timeout.  Returns False when
        the lease is no longer ours (already expired and requeued, or
        completed) — callers should then just carry on.
        """
        self._check_job_id(job_id)
        try:
            os.rename(self.leased_dir / f"{job_id}.msg",
                      self.queue_dir / f"{job_id}.msg")
        except OSError:
            return False
        self._forget_lease(job_id)
        return True
