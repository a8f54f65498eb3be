"""Memory outcome streams: replay a trace's cache outcomes without caches.

The replay kernel's two timing loops ask a *latency source* for every
demand access: ``ilat(i)`` when instruction ``i``'s fetch starts a new
I-cache line, ``dlat(m)`` when load ``m`` (its memory-op index) reads
the D-cache, and ``forward(m)`` when load ``m`` takes its data from an
in-flight store instead.  Two sources implement that interface:

* :class:`RecordingSource` runs the live :class:`~repro.pipeline.caches.
  MemoryHierarchy` and captures a :class:`MemoryStream` as it goes: one
  outcome code per access (TLB hit or miss; L1, L2 or memory), plus
  which loads forwarded;
* :class:`PlayingSource` reads latencies straight from such a stream
  through the machine's 12-entry :func:`~repro.pipeline.caches.
  latency_table`.

Why playing is exact (DESIGN.md §10): cache and TLB state is a function
of the access sequence and the geometry alone — latencies never feed
back into it — and the kernel issues its accesses in a fixed order
(instruction by instruction, the fetch access before the load's).  The
I-side accesses sit at fixed instructions for a given line size, so the
only timing-dependent part of the sequence is which loads forward.
:class:`PlayingSource` checks every load's decision against the stream
as it is made and raises :class:`StreamDiverged` on the first mismatch,
before any latency past it is read; the kernel then re-runs the point
on the live hierarchy.  A stream therefore serves every configuration
with the same :func:`~repro.pipeline.caches.geometry_key` — all three
paper machines share one — for budgets up to the one it was recorded
under.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

from repro.pipeline.caches import (
    D_SIDE,
    I_SIDE,
    MemoryHierarchy,
    MemoryStats,
    latency_table,
    stats_from_outcomes,
)
from repro.pipeline.config import MachineConfig

__all__ = [
    "MemoryStream",
    "PlayingSource",
    "RecordingSource",
    "StreamDiverged",
]

#: 4-byte unsigned array typecode for instruction indexes.
_U32 = "I" if array("I").itemsize == 4 else "L"


class StreamDiverged(Exception):
    """A load's forwarding decision differs from the recorded stream."""


class MemoryStream:
    """One recorded demand-access outcome sequence of a lowered trace.

    * ``codes`` — one outcome code per access, in access order;
    * ``forwarded`` — one byte per memory op of the trace, 1 iff that
      load forwarded from a store (and so never read the D-cache);
    * ``access_pos`` — the instruction index of each access
      (non-decreasing, a flat u32 array: one long-lived buffer rather
      than an int object per access), so a shorter replay's share is a
      bisect;
    * ``length`` — the instructions the recording covered.
    """

    __slots__ = ("codes", "forwarded", "access_pos", "length")

    def __init__(self, codes: bytes, forwarded: bytes, access_pos: array,
                 length: int) -> None:
        self.codes = codes
        self.forwarded = forwarded
        self.access_pos = access_pos
        self.length = length

    def to_tuple(self) -> tuple:
        """Marshal-friendly form (``access_pos`` as native-order bytes)."""
        return (self.codes, self.forwarded, self.access_pos.tobytes(),
                self.length)

    @classmethod
    def from_tuple(cls, fields: tuple) -> "MemoryStream":
        codes, forwarded, positions, length = fields
        access_pos = array(_U32)
        access_pos.frombytes(positions)
        if len(codes) != len(access_pos):
            raise ValueError("memory stream columns differ in length")
        return cls(bytes(codes), bytes(forwarded), access_pos, int(length))

    def stats(self, n_run: int) -> MemoryStats:
        """Demand statistics of a replay of the first ``n_run`` instructions."""
        return stats_from_outcomes(self.codes,
                                   bisect_left(self.access_pos, n_run))


class RecordingSource:
    """The live hierarchy, capturing the outcome stream as it runs.

    ``byte_pcs``, ``mem_addr`` and ``mem_pos`` are the lowered trace's
    columns: each instruction's byte address, and each memory op's
    effective address and instruction index.
    """

    def __init__(self, config: MachineConfig, byte_pcs: list[int],
                 mem_addr: list[int], mem_pos: list[int]) -> None:
        memory = MemoryHierarchy(config)
        table = latency_table(config)
        outcome = memory.outcome
        codes = bytearray()
        append_code = codes.append
        access_pos = array(_U32)
        append_pos = access_pos.append
        forwarded = bytearray(len(mem_addr))

        def ilat(i: int) -> int:
            code = outcome(byte_pcs[i], I_SIDE)
            append_code(code)
            append_pos(i)
            return table[code]

        def dlat(m: int) -> int:
            code = outcome(mem_addr[m], D_SIDE)
            append_code(code)
            append_pos(mem_pos[m])
            return table[code]

        def forward(m: int) -> None:
            forwarded[m] = 1

        self.ilat = ilat
        self.dlat = dlat
        self.forward = forward
        self._memory = memory
        self._codes = codes
        self._access_pos = access_pos
        self._forwarded = forwarded

    def stats(self, n_run: int) -> MemoryStats:
        return self._memory.stats()

    def stream(self, n_run: int) -> MemoryStream:
        """The captured stream of a run over the first ``n_run``
        instructions."""
        return MemoryStream(bytes(self._codes), bytes(self._forwarded),
                            self._access_pos, n_run)


class PlayingSource:
    """Latencies read from a recorded stream, validated load by load."""

    def __init__(self, stream: MemoryStream, config: MachineConfig) -> None:
        latency = map(latency_table(config).__getitem__,
                      stream.codes).__next__
        forwarded = stream.forwarded

        def ilat(i: int) -> int:
            return latency()

        def dlat(m: int) -> int:
            if forwarded[m]:
                raise StreamDiverged(m)
            return latency()

        def forward(m: int) -> None:
            if not forwarded[m]:
                raise StreamDiverged(m)

        self.ilat = ilat
        self.dlat = dlat
        self.forward = forward
        self.stats = stream.stats
