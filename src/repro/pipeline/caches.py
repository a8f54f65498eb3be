"""Set-associative caches, TLBs and the memory hierarchy timing model.

These are *timing* models only: data values come from the functional core,
so the caches track tags and recency, not contents.  ``MemoryHierarchy``
composes L1I/L1D over a unified L2 over main memory and returns the access
latency for a given address, performing fills along the way.

Wrong-path accesses (``wrong_path=True``, issued by the engine's
``wrongpath`` speculation mode) mutate tag/recency state exactly like
demand accesses — that *is* the pollution/prefetch effect being modelled —
but are counted separately, so demand miss rates stay comparable across
speculation modes and the pollution itself is measurable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.pipeline.config import CacheConfig, MachineConfig, TLBConfig


class SetAssociativeCache:
    """LRU set-associative cache over byte addresses (tags only)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        if 1 << self._line_shift != config.line_bytes:
            raise ValueError("line size must be a power of two")
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self.hit_latency = config.hit_latency
        # Each set is a dict tag -> recency counter; dict order is not used,
        # an explicit counter implements exact LRU.
        self._sets: list[dict[int, int]] = [dict() for _ in range(self._num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.wrong_path_hits = 0
        self.wrong_path_misses = 0

    def _locate(self, addr: int) -> tuple[dict[int, int], int]:
        line = addr >> self._line_shift
        return self._sets[line % self._num_sets], line // self._num_sets

    def access(self, addr: int, *, wrong_path: bool = False) -> bool:
        """Look up and fill on miss; returns True on hit.

        ``wrong_path`` accesses update tag/recency state identically (a
        wrong-path fill is a real fill — pollution) but count into the
        separate wrong-path statistics.
        """
        tick = self._tick + 1
        self._tick = tick
        cache_set, tag = self._locate(addr)
        if tag in cache_set:
            cache_set[tag] = tick
            if wrong_path:
                self.wrong_path_hits += 1
            else:
                self.hits += 1
            return True
        if wrong_path:
            self.wrong_path_misses += 1
        else:
            self.misses += 1
        if len(cache_set) >= self._assoc:
            victim = min(cache_set, key=cache_set.__getitem__)
            del cache_set[victim]
        cache_set[tag] = tick
        return False

    def probe(self, addr: int) -> bool:
        """Look up without filling or touching recency."""
        cache_set, tag = self._locate(addr)
        return tag in cache_set

    def invalidate_all(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """LRU set-associative TLB; returns the added miss penalty."""

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self._page_shift = config.page_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._sets: list[dict[int, int]] = [dict() for _ in range(self._num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.wrong_path_hits = 0
        self.wrong_path_misses = 0

    def access(self, addr: int, *, wrong_path: bool = False) -> int:
        """Translate; returns 0 on hit, the miss penalty on a TLB miss."""
        self._tick += 1
        page = addr >> self._page_shift
        tlb_set = self._sets[page % self._num_sets]
        tag = page // self._num_sets
        if tag in tlb_set:
            tlb_set[tag] = self._tick
            if wrong_path:
                self.wrong_path_hits += 1
            else:
                self.hits += 1
            return 0
        if wrong_path:
            self.wrong_path_misses += 1
        else:
            self.misses += 1
        if len(tlb_set) >= self.config.assoc:
            victim = min(tlb_set, key=tlb_set.__getitem__)
            del tlb_set[victim]
        tlb_set[tag] = self._tick
        return self.config.miss_penalty


@dataclass
class MemoryStats:
    """Aggregated hierarchy statistics for reporting."""

    l1i_hits: int = 0
    l1i_misses: int = 0
    l1d_hits: int = 0
    l1d_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    itlb_misses: int = 0
    dtlb_misses: int = 0
    # Wrong-path (speculative) accesses, counted separately so demand miss
    # rates stay comparable across speculation modes; a wrong-path miss is
    # a fill performed for a squashed instruction — the pollution metric.
    wrong_path_l1i_accesses: int = 0
    wrong_path_l1i_misses: int = 0
    wrong_path_l1d_accesses: int = 0
    wrong_path_l1d_misses: int = 0
    wrong_path_l2_misses: int = 0
    wrong_path_itlb_misses: int = 0
    wrong_path_dtlb_misses: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryStats":
        # Strict: a missing counter means a truncated/stale payload, and
        # the result cache must treat that as a corrupt-entry miss.
        return cls(**{f.name: int(data[f.name])
                      for f in dataclasses.fields(cls)})


#: Outcome-code bases of the two demand sides (see
#: :meth:`MemoryHierarchy.outcome`): a code is ``side + 3 * tlb_miss +
#: level``, so the 12 codes index :func:`latency_table` directly.
I_SIDE = 0
D_SIDE = 6


def latency_table(config: MachineConfig) -> list[int]:
    """Latency of each of the 12 outcome codes on this machine.

    Mirrors ``MemoryHierarchy._access``: a TLB miss adds its penalty,
    then the L1 hit latency, plus the L2 hit latency on an L1 miss, plus
    the memory latency on an L2 miss.
    """
    table = []
    for level1, tlb in ((config.icache, config.itlb),
                        (config.dcache, config.dtlb)):
        for penalty in (0, tlb.miss_penalty):
            l1 = penalty + level1.hit_latency
            l2 = l1 + config.l2cache.hit_latency
            table += [l1, l2, l2 + config.memory_latency]
    return table


def geometry_key(config: MachineConfig) -> tuple[int, ...]:
    """Everything about the hierarchy that shapes its outcomes.

    Cache and TLB sizes, associativities, line and page sizes — but no
    latency: two machines with equal keys return the same outcome code
    for every access of every access sequence.
    """
    key: list[int] = []
    for cache in (config.icache, config.dcache, config.l2cache):
        key += [cache.size_bytes, cache.assoc, cache.line_bytes]
    for tlb in (config.itlb, config.dtlb):
        key += [tlb.entries, tlb.assoc, tlb.page_bytes]
    return tuple(key)


def stats_from_outcomes(codes: bytes, used: int) -> MemoryStats:
    """The demand statistics of the first ``used`` outcome codes."""
    count = [codes.count(bytes((code,)), 0, used) for code in range(12)]
    levels = [count[code] + count[code + 3] for code in (0, 1, 2, 6, 7, 8)]
    return MemoryStats(
        l1i_hits=levels[0], l1i_misses=levels[1] + levels[2],
        l1d_hits=levels[3], l1d_misses=levels[4] + levels[5],
        l2_hits=levels[1] + levels[4], l2_misses=levels[2] + levels[5],
        itlb_misses=sum(count[3:6]), dtlb_misses=sum(count[9:12]),
    )


class MemoryHierarchy:
    """Two-level cache + TLB timing model.

    ``instruction_latency(addr)`` and ``data_latency(addr)`` return the
    total access latency in cycles for the given byte address, updating
    cache/TLB state.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1i = SetAssociativeCache(config.icache)
        self.l1d = SetAssociativeCache(config.dcache)
        self.l2 = SetAssociativeCache(config.l2cache)
        self.itlb = TLB(config.itlb)
        self.dtlb = TLB(config.dtlb)

    def _access(self, level1: SetAssociativeCache, tlb: TLB,
                addr: int, wrong_path: bool = False) -> int:
        latency = tlb.access(addr, wrong_path=wrong_path)
        l1_hit_latency = level1.hit_latency
        if level1.access(addr, wrong_path=wrong_path):
            return latency + l1_hit_latency
        latency += l1_hit_latency  # detect the miss
        l2 = self.l2
        if l2.access(addr, wrong_path=wrong_path):
            return latency + l2.hit_latency
        return latency + l2.hit_latency + self.config.memory_latency

    def instruction_latency(self, addr: int, *, wrong_path: bool = False) -> int:
        return self._access(self.l1i, self.itlb, addr, wrong_path)

    def data_latency(self, addr: int, *, wrong_path: bool = False) -> int:
        return self._access(self.l1d, self.dtlb, addr, wrong_path)

    def outcome(self, addr: int, side: int) -> int:
        """One demand access, as an outcome code instead of a latency.

        Performs exactly the state updates of ``instruction_latency``
        (``side`` = :data:`I_SIDE`) or ``data_latency`` (:data:`D_SIDE`)
        and returns ``side + 3 * tlb_miss + level`` (level 0 = L1 hit,
        1 = L2 hit, 2 = memory).  ``latency_table(config)[code]`` is the
        latency the ``*_latency`` call would have returned.
        """
        if side:
            level1, tlb = self.l1d, self.dtlb
        else:
            level1, tlb = self.l1i, self.itlb
        misses = tlb.misses
        tlb.access(addr)
        code = side + 3 if tlb.misses != misses else side
        if level1.access(addr):
            return code
        if self.l2.access(addr):
            return code + 1
        return code + 2

    def stats(self) -> MemoryStats:
        return MemoryStats(
            l1i_hits=self.l1i.hits, l1i_misses=self.l1i.misses,
            l1d_hits=self.l1d.hits, l1d_misses=self.l1d.misses,
            l2_hits=self.l2.hits, l2_misses=self.l2.misses,
            itlb_misses=self.itlb.misses, dtlb_misses=self.dtlb.misses,
            wrong_path_l1i_accesses=(self.l1i.wrong_path_hits
                                     + self.l1i.wrong_path_misses),
            wrong_path_l1i_misses=self.l1i.wrong_path_misses,
            wrong_path_l1d_accesses=(self.l1d.wrong_path_hits
                                     + self.l1d.wrong_path_misses),
            wrong_path_l1d_misses=self.l1d.wrong_path_misses,
            wrong_path_l2_misses=self.l2.wrong_path_misses,
            wrong_path_itlb_misses=self.itlb.wrong_path_misses,
            wrong_path_dtlb_misses=self.dtlb.wrong_path_misses,
        )
