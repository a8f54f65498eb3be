"""Compiled replay kernel: lower a committed trace once, replay it fast.

The experiment service records the committed instruction stream once
per workload (:mod:`repro.pipeline.trace`); this module replays it per
timing configuration without per-instruction interpretation.
A :class:`LoweredTrace` converts :class:`~repro.pipeline.trace.
CommittedTrace` columns into dense per-instruction arrays plus
precomputed metadata, **once per workload identity**, shared read-only
by every redirect timing point of a batch:

* a fused per-instruction *kernel class* (ALU / frontend-other / load /
  store / mult / div / conditional branch, with an I-cache line-change
  flag folded in),
* dependence distances from a one-shot DDT-style last-writer pass
  (``dep1``/``dep2`` name the producing *stream index* of each source
  register — exactly what renamed physical-register readiness resolves
  to in the engine, see DESIGN.md §10; ``-1`` is "no such source" and
  ``-2 - r`` a read of logical *r*'s initial value),
* store-forwarding sources per memory op (the latest prior store to the
  same word — the engine's ``pending_stores`` dict, precomputed),
* ROB/LSQ occupancy metadata (memory-op stream positions, so the
  occupancy heads are plain array lookups per config),
* prefix sums for the measured-window load/store statistics, the RAS
  accuracy stream, and the branch decision streams (the level-1 gskew,
  the level-2 hybrid and the ARVI confidence estimator are
  timing-independent, so each is simulated once per trace and shared
  across every config; the level-1 stream feeds all the others).

:func:`kernel_run` then evaluates one timing configuration as a lean
array pass over the lowered form: the same fetch/issue/commit arithmetic
as :meth:`~repro.pipeline.engine.PipelineEngine.run`, stage for stage,
minus everything that cannot affect a redirect-mode result.  For the
hybrid/none kinds that strips *all* rename/DDT/RSE/shadow maintenance
(their decisions precompute into shared streams); for the ARVI kinds
the pass (DESIGN.md §13) reuses precomputed level-1/confidence streams
and per-branch dependence-ancestor masks, and keeps only what is
timing-*dependent* per configuration — a retire pointer that cuts each
mask to the in-flight DDT chain, the load-hoist times and the BVIT.
Results are **bit-for-bit equal** to live execution through
:class:`~repro.pipeline.engine.PipelineEngine` — enforced by the
equality suites (``tests/pipeline/test_kernel.py``,
``tests/pipeline/test_kernel_arvi.py``) and by the hard gates in
``python -m repro.bench``.

Fallback rules (DESIGN.md §10): anything the lowered form cannot
express raises :class:`KernelUnsupported` and the caller runs the live
engine instead — ``wrongpath`` speculation (needs live architectural
state) and non-standard predictor stacks.  A budget that would step
past a truncated recording raises
:class:`~repro.pipeline.trace.TraceError`.  Which path actually ran is
observable via the ``kernel_source`` field threaded through
:func:`~repro.experiments.runner.execute_point`, and every fallback
increments the ``kernel_fallback_total`` counter with its reason.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapreplace

from repro.core.arvi import ARVIConfig, ValueMode
from repro.core.bvit import BVIT
from repro.core.shadow import DEFAULT_ID_BITS, DEFAULT_VALUE_BITS
from repro.isa import regs
from repro.isa.decoded import (
    FU_ALU as K_ALU,
    FU_DIV as K_DIV,
    FU_LOAD as K_LOAD,
    FU_MULT as K_MULT,
    FU_OTHER as K_OTHER,
    FU_STORE as K_STORE,
    KCLASS_BRANCH as K_BRANCH,
    RAS_PUSH,
)
from repro.isa.program import DATA_BASE, STACK_TOP, Program
from repro.pipeline.caches import MemoryHierarchy
from repro.pipeline.config import MachineConfig
from repro.pipeline.functional import DEFAULT_MAX_INSTRUCTIONS
from repro.pipeline.stats import BranchClassStats, SimulationResult
from repro.pipeline.trace import CommittedTrace, TraceError
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gskew import level1_gskew, level2_gskew
from repro.predictors.twolevel import LevelTwoKind

__all__ = [
    "KernelUnsupported",
    "LOWER_TICK",
    "LoweredTrace",
    "ensure_lowered",
    "is_lowered",
    "kernel_run",
]

#: Pseudo point index backends tick when a batch pays the one-time
#: lowering cost; the scheduler turns it into a ``phase="lower"``
#: ProgressEvent instead of a completed point (negative so it can never
#: collide with a real index — and it survives the queue's integer tick
#: wire format).
LOWER_TICK = -1

#: Folded into the per-(line-mask) fused code when the instruction's
#: fetch starts a new I-cache line (``code & 7`` recovers the kernel
#: class — FU_* 0-5 plus KCLASS_BRANCH, see DecodedProgram.static_columns).
_LINE_CHANGE = 8

_REDIRECT_LATENCY = 1  # keep in sync with pipeline.engine

#: Value bits the engine's shadow register file keeps per register.
_SHADOW_VALUE_MASK = (1 << DEFAULT_VALUE_BITS) - 1
#: Logical-id bits the engine's shadow map table keeps per register.
_SHADOW_ID_MASK = (1 << DEFAULT_ID_BITS) - 1

_SUPPORTED_KINDS = (LevelTwoKind.HYBRID, LevelTwoKind.NONE,
                    LevelTwoKind.ARVI)

#: Level-2 kinds whose branch decisions are fully timing-independent and
#: therefore precompute into shared :class:`_BranchStreams` — the form
#: the flattened stream loop replays.  ARVI is supported by
#: :func:`kernel_run` but runs its own pass: its level-1/confidence
#: streams and chain masks are timing-independent, but the BVIT keys
#: read per-configuration retirement and hoist timing.
_STREAM_KINDS = (LevelTwoKind.HYBRID, LevelTwoKind.NONE)


class KernelUnsupported(RuntimeError):
    """The kernel cannot express this configuration; fall back to the
    live engine (never silently diverge)."""


def _level1_stream(bpcs: list[int], btaken: list[bool]) -> list[bool]:
    """The level-1 gskew's prediction for every branch of the stream.

    Every configuration puts the same 4 KB 2Bc-gskew at level 1, trained
    on nothing but the committed (pc, taken) sequence, each branch's
    predict immediately followed by its own train — so one pass serves
    every level-2 kind and every timing configuration of a trace.
    """
    level1 = level1_gskew()
    predict = level1.predict
    update = level1.update
    predictions: list[bool] = []
    append = predictions.append
    for pc, taken in zip(bpcs, btaken):
        append(predict(pc))
        update(pc, taken)
    return predictions


class _BranchStreams:
    """Per-predictor-kind branch decision streams and stat prefix sums.

    The two-level hybrid's decisions depend only on the (pc, taken)
    branch sequence — never on cycle timing — so one pass over the
    recorded outcomes and the shared level-1 stream yields, for every
    branch *j* of the stream: whether the final prediction was wrong
    (``bad``, a redirect), and whether level 2 overrode level 1
    (``override``, a fetch bubble on a correct final prediction).  The
    cumulative arrays turn the engine's measured-window branch
    statistics into prefix-sum differences.
    """

    __slots__ = ("bad", "override", "cum_final", "cum_l1", "cum_override",
                 "cum_helpful", "cum_harmful")

    def __init__(self, bpcs: list[int], btaken: list[bool],
                 l1_stream: list[bool], kind: LevelTwoKind) -> None:
        hybrid = kind is LevelTwoKind.HYBRID
        level2 = level2_gskew() if hybrid else None
        bad: list[bool] = []
        override: list[bool] = []
        cf = [0]
        cl1 = [0]
        cov = [0]
        chp = [0]
        chm = [0]
        for pc, taken, l1_pred in zip(bpcs, btaken, l1_stream):
            if hybrid:
                l2_pred = level2.predict(pc)
                used = l2_pred != l1_pred
                final = l2_pred if used else l1_pred
                level2.update(pc, taken)
            else:
                used = False
                final = l1_pred
            final_correct = final == taken
            l1_correct = l1_pred == taken
            bad.append(not final_correct)
            override.append(used)
            cf.append(cf[-1] + final_correct)
            cl1.append(cl1[-1] + l1_correct)
            cov.append(cov[-1] + used)
            chp.append(chp[-1] + (used and final_correct and not l1_correct))
            chm.append(chm[-1] + (used and l1_correct and not final_correct))
        self.bad = bad
        self.override = override
        self.cum_final = cf
        self.cum_l1 = cl1
        self.cum_override = cov
        self.cum_helpful = chp
        self.cum_harmful = chm


def _confidence_stream(bpcs: list[int], btaken: list[bool],
                       l1_stream: list[bool]) -> list[bool]:
    """The ARVI configurations' confidence verdict for every branch.

    Like the level-1 prediction it consumes nothing but the committed
    branch sequence (and whether level 1 was right), so it is shared by
    every ARVI configuration of a trace.  The BVIT side is *not*
    precomputable — its lookup keys read which chain members have
    retired and when loads could have been hoisted, which differ per
    machine configuration — so :func:`kernel_run` replays it per config
    in the ARVI pass (with the chain masks of
    :meth:`LoweredTrace.arvi_chains`).
    """
    confidence = ConfidenceEstimator()
    is_confident = confidence.is_confident
    update = confidence.update
    verdicts: list[bool] = []
    append = verdicts.append
    for pc, taken, l1_pred in zip(bpcs, btaken, l1_stream):
        append(is_confident(pc))
        update(pc, l1_pred == taken, taken)
    return verdicts


class LoweredTrace:
    """Dense array form of one committed trace, shared across configs."""

    __slots__ = (
        "program", "trace", "length",
        "pcs", "kclass", "byte_pcs", "dep1", "dep2",
        "mem_pos", "mem_addr", "store_dep",
        "load_prefix", "store_prefix",
        "branch_pos", "branch_pcs", "branch_taken",
        "jr_pos", "jr_correct_cum", "_hasres",
        "_codes", "_level1", "_streams", "_values", "_confident",
        "_chains",
    )

    # -- derived caches ------------------------------------------------------

    def codes_for(self, line_mask: int) -> list[int]:
        """Fused class+line-change codes for one I-cache line mask."""
        codes = self._codes.get(line_mask)
        if codes is not None:
            return codes
        codes = list(self.kclass)
        last = -1  # the engine's last fetch line starts at -1
        byte_pcs = self.byte_pcs
        for i in range(self.length):
            line = byte_pcs[i] & line_mask
            if line != last:
                last = line
                codes[i] |= _LINE_CHANGE
        self._codes[line_mask] = codes
        return codes

    def level1_stream(self) -> list[bool]:
        """The shared level-1 prediction per branch (cached)."""
        level1 = self._level1
        if level1 is None:
            level1 = _level1_stream(self.branch_pcs, self.branch_taken)
            self._level1 = level1
        return level1

    def streams_for(self, kind: LevelTwoKind) -> _BranchStreams:
        """Branch decision streams for one level-2 kind (cached)."""
        streams = self._streams.get(kind)
        if streams is None:
            if kind not in _STREAM_KINDS:
                raise KernelUnsupported(
                    f"replay of {self.program.name!r}: level-2 kind "
                    f"{kind.value!r} has no precomputable decision stream "
                    "(its decisions read live DDT/timing state)")
            streams = _BranchStreams(self.branch_pcs, self.branch_taken,
                                     self.level1_stream(), kind)
            self._streams[kind] = streams
        return streams

    def values(self) -> list[int]:
        """Dense committed result values, one entry per instruction.

        ``values()[i]`` is the committed result of instruction *i* (the
        engine's ``dyn.result``) or 0 when the opcode produces none —
        the densification of the trace's sparse ``results`` column via
        the static ``has_result`` table.  Built lazily (only the ARVI
        pass reads values) and cached for every config of a batch.
        """
        vals = self._values
        if vals is not None:
            return vals
        results = self.trace.results
        hasres_tab = self._hasres
        vals = [0] * self.length
        ri = 0
        try:
            for i, pc in enumerate(self.pcs):
                if hasres_tab[pc]:
                    vals[i] = results[ri]
                    ri += 1
        except IndexError as exc:
            raise TraceError(
                f"trace of {self.trace.program_name!r} is internally "
                "inconsistent (column lengths do not match the stream)"
            ) from exc
        if ri != len(results):
            raise TraceError(
                f"trace of {self.trace.program_name!r} is internally "
                "inconsistent (column lengths do not match the stream)")
        self._values = vals
        return vals

    def confidence_stream(self) -> list[bool]:
        """The shared ARVI confidence verdict per branch (cached)."""
        confident = self._confident
        if confident is None:
            confident = _confidence_stream(
                self.branch_pcs, self.branch_taken, self.level1_stream())
            self._confident = confident
        return confident

    def arvi_chains(self, rob_entries: int) -> list[int]:
        """Per-branch register-dependence ancestors in a ROB window (cached).

        Entry *j* belongs to the *j*-th conditional branch (stream index
        *i*): bit *k* is set iff instruction *i - k* is a transitive
        register-dependence ancestor of the branch's sources, for
        ``1 <= k < rob_entries``.  Commit is in order, so the DDT chain
        at the branch's rename is exactly this mask cut to the in-flight
        suffix ``[h, i)`` (bits ``k <= i - h``) — and the ROB keeps
        ``i - h < rob_entries``, so farther ancestors never matter
        (DESIGN.md §13).  One pass over ``dep1``/``dep2`` with a
        ROB-sized ring of per-instruction rows (``ring[x % rob]`` is
        instruction *x*'s own ancestor set, itself as bit 0).
        """
        chains = self._chains.get(rob_entries)
        if chains is not None:
            return chains
        rob = rob_entries
        window = (1 << rob) - 1
        ring = [0] * rob
        dep1 = self.dep1
        dep2 = self.dep2
        chains = []
        for i, k in enumerate(self.kclass):
            row = 0
            p = dep1[i]
            if p >= 0 and i - p < rob:
                row = ring[p % rob] << (i - p)
            p = dep2[i]
            if p >= 0 and i - p < rob:
                row |= ring[p % rob] << (i - p)
            row &= window
            if k == K_BRANCH:
                chains.append(row)
            ring[i % rob] = row | 1
        self._chains[rob_entries] = chains
        return chains


def _lower(program: Program, trace: CommittedTrace) -> LoweredTrace:
    trace.validate_for(program)
    cls_tab, src1_tab, src2_tab, wr_tab, ras_tab, hasres_tab = \
        program.decoded().static_columns()
    n = trace.length
    branches = trace.branch_count
    pcs_list = trace.pcs.tolist()

    lowered = LoweredTrace.__new__(LoweredTrace)
    lowered.program = program
    lowered.trace = trace
    lowered.length = n
    lowered.pcs = pcs_list
    lowered._hasres = hasres_tab
    lowered._codes = {}
    lowered._level1 = None
    lowered._streams = {}
    lowered._values = None
    lowered._confident = None
    lowered._chains = {}

    kclass = [cls_tab[pc] for pc in pcs_list]
    lowered.kclass = kclass
    lowered.byte_pcs = [pc * 4 for pc in pcs_list]
    load_prefix = [0] * (n + 1)
    store_prefix = [0] * (n + 1)
    mem_pos: list[int] = []
    branch_pos: list[int] = []
    branch_pcs: list[int] = []
    loads = stores = 0
    for i, k in enumerate(kclass):
        if k == K_LOAD:
            loads += 1
            mem_pos.append(i)
        elif k == K_STORE:
            stores += 1
            mem_pos.append(i)
        elif k == K_BRANCH:
            branch_pos.append(i)
            branch_pcs.append(pcs_list[i])
        load_prefix[i + 1] = loads
        store_prefix[i + 1] = stores
    lowered.load_prefix = load_prefix
    lowered.store_prefix = store_prefix
    lowered.mem_pos = mem_pos
    lowered.branch_pos = branch_pos
    lowered.branch_pcs = branch_pcs
    taken_bits = trace.taken_bits
    lowered.branch_taken = [
        bool((taken_bits[j >> 3] >> (j & 7)) & 1)
        for j in range(branches)]
    ras_events = [i for i, pc in enumerate(pcs_list) if ras_tab[pc]]

    if (len(lowered.branch_pos) != branches
            or len(lowered.mem_pos) != len(trace.addrs)):
        raise TraceError(
            f"trace of {trace.program_name!r} is internally inconsistent "
            "(column lengths do not match the stream)")

    # One-shot DDT-style dependence pass: each source register resolves
    # to the stream index of its last prior writer (the instruction whose
    # physical destination register the engine's rename map would read).
    # A read of logical r's initial value resolves to ``-2 - r`` (never a
    # stream index, so the timing loops' ``dep >= 0`` tests skip it, and
    # distinct from ``-1``, "no such source").
    dep1 = [-1] * n
    dep2 = [-1] * n
    last_writer = [-2 - r for r in range(32)]
    for i, pc in enumerate(pcs_list):
        src = src1_tab[pc]
        if src >= 0:
            dep1[i] = last_writer[src]
        src = src2_tab[pc]
        if src >= 0:
            dep2[i] = last_writer[src]
        dest = wr_tab[pc]
        if dest >= 0:
            last_writer[dest] = i
    lowered.dep1 = dep1
    lowered.dep2 = dep2

    # Store-forwarding sources: for each load, the stream index of the
    # latest prior store to the same word — the engine's never-cleared
    # ``pending_stores`` dict, resolved ahead of time.
    mem_addr = trace.addrs.tolist()
    lowered.mem_addr = mem_addr
    store_dep = [-1] * len(mem_addr)
    last_store: dict[int, int] = {}
    for m, pos in enumerate(lowered.mem_pos):
        word = mem_addr[m] & ~3
        if kclass[pos] == K_LOAD:
            store_dep[m] = last_store.get(word, -1)
        else:
            last_store[word] = pos
    lowered.store_dep = store_dep

    # Return-address-stack accuracy stream (depth 16, circular overwrite
    # on overflow, underflow pops count as incorrect — predictors/ras.py
    # semantics).  The stack evolves forward only, so every prefix of
    # the stream is valid for budget-truncated replays.
    jr_pos: list[int] = []
    jr_correct_cum = [0]
    stack: list[int] = []
    final_next_pc = trace.final_next_pc
    for pos in ras_events:
        pc = pcs_list[pos]
        if ras_tab[pc] == RAS_PUSH:
            if len(stack) >= 16:
                stack.pop(0)
            stack.append(pc + 1)
        else:
            target = pcs_list[pos + 1] if pos + 1 < n else final_next_pc
            correct = bool(stack) and stack.pop() == target
            jr_pos.append(pos)
            jr_correct_cum.append(jr_correct_cum[-1] + correct)
    lowered.jr_pos = jr_pos
    lowered.jr_correct_cum = jr_correct_cum
    return lowered


def is_lowered(trace: CommittedTrace, program: Program | None = None) -> bool:
    """Whether ``trace`` already carries a (matching) lowered form."""
    cached = trace._lowered_cache
    if cached is None:
        return False
    return program is None or cached.program is program


def ensure_lowered(program: Program, trace: CommittedTrace) -> LoweredTrace:
    """Lower (and cache) ``trace`` for ``program``.

    The lowered form is built once per (trace, program) pair and shared
    read-only by every replay of the trace — a batch of redirect timing
    points pays the lowering cost exactly once per workload identity.
    """
    cached = trace._lowered_cache
    if cached is not None and cached.program is program:
        return cached
    lowered = _lower(program, trace)
    trace._lowered_cache = lowered
    return lowered


def kernel_run(program: Program, trace: CommittedTrace,
               config: MachineConfig,
               kind: LevelTwoKind = LevelTwoKind.HYBRID, *,
               warmup_instructions: int = 0,
               max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
               value_mode: ValueMode = ValueMode.CURRENT,
               arvi_config: ARVIConfig | None = None,
               ) -> SimulationResult:
    """Replay one timing configuration over the lowered trace.

    Produces a :class:`SimulationResult` bit-for-bit equal to
    ``PipelineEngine(program, config, build_predictor(kind, config,
    arvi_config), value_mode=..., warmup_instructions=...)
    .run(max_instructions)`` — the live run of the program the trace
    was recorded from — for every supported configuration; raises
    :class:`KernelUnsupported` for anything else.  The memory hierarchy runs live, in the engine's
    exact access order — the shared L2 couples I-side and D-side state,
    and store-forwarding outcomes depend on per-config timing, so cache
    latencies cannot be precomputed.

    ``LevelTwoKind.ARVI`` (``value_mode`` / ``arvi_config`` select the
    paper's evaluation configurations) runs the ARVI pass: the shared
    level-1/confidence streams and chain masks are precomputed once per
    trace (per ROB size), while the chain cut-off and the BVIT replay
    per configuration — the lookup keys depend on retirement timing.
    """
    if config.speculation != "redirect":
        raise KernelUnsupported(
            f"replay of {trace.program_name!r}: the replay kernel models "
            "redirect speculation only; wrongpath synthesis reads live "
            "architectural state")
    if kind not in _SUPPORTED_KINDS:
        raise KernelUnsupported(
            f"replay of {trace.program_name!r}: the replay kernel cannot "
            f"express level-2 kind {kind.value!r}")
    lowered = ensure_lowered(program, trace)
    n = lowered.length
    if max_instructions > n and not trace.halted:
        # A budget past a truncated recording is an error, never a
        # silently shorter run.
        raise TraceError(
            f"trace of {trace.program_name!r} exhausted at instruction "
            f"{n}: it was truncated at max_instructions="
            f"{trace.max_instructions}; use a live FunctionalCore or "
            "record a longer trace")
    n_run = n if n < max_instructions else max_instructions
    if n_run < 0:
        n_run = 0

    if kind is LevelTwoKind.ARVI:
        return _arvi_replay(program, lowered, config, value_mode,
                            arvi_config, warmup_instructions, n_run)

    streams = lowered.streams_for(kind)
    memory = MemoryHierarchy(config)

    # ---- hot locals (mirrors the engine's fused loop) ---------------------
    codes = lowered.codes_for(~(config.icache.line_bytes - 1))
    byte_pcs = lowered.byte_pcs
    dep1 = lowered.dep1
    dep2 = lowered.dep2
    mem_pos = lowered.mem_pos
    mem_addr = lowered.mem_addr
    store_dep = lowered.store_dep
    branch_bad = streams.bad
    branch_override = streams.override
    mem_ilat = memory.instruction_latency
    mem_dlat = memory.data_latency
    icache_hit_latency = config.icache.hit_latency
    frontend_depth = config.frontend_depth
    fetch_width = config.fetch_width
    commit_width = config.commit_width
    rob_capacity = config.rob_entries
    lsq_capacity = config.lsq_entries
    alu_latency = config.alu_latency
    mult_latency = config.mult_latency
    div_latency = config.div_latency
    if kind is LevelTwoKind.HYBRID:
        override_redirect = config.predictor_latencies.level2_hybrid + 1
    else:
        override_redirect = 1  # unreachable: NONE never overrides
    muldiv_scalar = config.int_muldiv == 1

    complete_arr = [0] * n_run
    commit_arr = [0] * n_run
    alu_free = [0] * config.int_alus     # zeros are already a valid heap
    dcache_free = [0] * config.dcache_ports
    muldiv_free = 0
    muldiv_heap = [0] * config.int_muldiv
    fetch_barrier = 0
    fetch_cycle = fetch_used = 0
    commit_cycle = commit_used = 0
    last_commit = 0
    mem_i = 0
    branch_i = 0

    for i in range(n_run):
        code = codes[i]
        k = code & 7

        # ---- fetch (barrier -> ROB -> LSQ -> I-cache -> bandwidth) --------
        earliest = fetch_barrier
        if i >= rob_capacity:
            free_at = commit_arr[i - rob_capacity] + 1
            if free_at > earliest:
                earliest = free_at
        if k == K_LOAD or k == K_STORE:
            if mem_i >= lsq_capacity:
                free_at = commit_arr[mem_pos[mem_i - lsq_capacity]] + 1
                if free_at > earliest:
                    earliest = free_at
        if code & _LINE_CHANGE:
            extra = mem_ilat(byte_pcs[i]) - icache_hit_latency
            if extra > 0:
                earliest += extra
        if earliest > fetch_cycle:
            fetch_cycle = earliest
            fetch_used = 0
        if fetch_used >= fetch_width:
            fetch_cycle += 1
            fetch_used = 0
        fetch_used += 1
        fetch = fetch_cycle

        # ---- issue / execute ---------------------------------------------
        ready = fetch + frontend_depth
        dep = dep1[i]
        if dep >= 0:
            when = complete_arr[dep]
            if when > ready:
                ready = when
        dep = dep2[i]
        if dep >= 0:
            when = complete_arr[dep]
            if when > ready:
                ready = when
        if k == K_ALU or k == K_BRANCH:
            server_free = alu_free[0]
            issue = ready if ready >= server_free else server_free
            heapreplace(alu_free, issue + 1)
            complete = issue + alu_latency
        elif k == K_LOAD:
            server_free = alu_free[0]
            issue = ready if ready >= server_free else server_free
            heapreplace(alu_free, issue + 1)
            agen1 = issue + 1
            server_free = dcache_free[0]
            access = agen1 if agen1 >= server_free else server_free
            heapreplace(dcache_free, access + 1)
            source = store_dep[mem_i]
            if source >= 0 and commit_arr[source] > access:
                data_ready = complete_arr[source]
                complete = (access if access >= data_ready
                            else data_ready) + 1
            else:
                complete = access + mem_dlat(mem_addr[mem_i])
            mem_i += 1
        elif k == K_STORE:
            server_free = alu_free[0]
            issue = ready if ready >= server_free else server_free
            heapreplace(alu_free, issue + 1)
            complete = issue + 1
            mem_i += 1
        elif k == K_OTHER:
            server_free = alu_free[0]
            issue = ready if ready >= server_free else server_free
            heapreplace(alu_free, issue + 1)
            complete = issue + 1
        elif k == K_MULT:
            if muldiv_scalar:
                issue = ready if ready >= muldiv_free else muldiv_free
                muldiv_free = issue + 1
            else:
                server_free = muldiv_heap[0]
                issue = ready if ready >= server_free else server_free
                heapreplace(muldiv_heap, issue + 1)
            complete = issue + mult_latency
        else:  # K_DIV (unpipelined)
            if muldiv_scalar:
                issue = ready if ready >= muldiv_free else muldiv_free
                muldiv_free = issue + div_latency
            else:
                server_free = muldiv_heap[0]
                issue = ready if ready >= server_free else server_free
                heapreplace(muldiv_heap, issue + div_latency)
            complete = issue + div_latency

        # ---- commit -------------------------------------------------------
        commit_req = complete + 1
        if commit_req < last_commit:
            commit_req = last_commit
        if commit_req > commit_cycle:
            commit_cycle = commit_req
            commit_used = 0
        if commit_used >= commit_width:
            commit_cycle += 1
            commit_used = 0
        commit_used += 1
        last_commit = commit_cycle
        commit_arr[i] = last_commit
        complete_arr[i] = complete

        # ---- control flow resolution -------------------------------------
        if k == K_BRANCH:
            if branch_bad[branch_i]:
                barrier = complete + _REDIRECT_LATENCY
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            elif branch_override[branch_i]:
                barrier = fetch + override_redirect
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            branch_i += 1

    return _stream_result(lowered, kind, config, warmup_instructions,
                          n_run, last_commit, commit_arr, memory)


def _stream_result(lowered: LoweredTrace, kind: LevelTwoKind,
                   config: MachineConfig, warmup: int, n_run: int,
                   last_commit: int, commit_arr: list[int],
                   memory: MemoryHierarchy) -> SimulationResult:
    """Statistics epilogue of the stream loop.

    Everything after the timing loop is a pure function of the lowered
    trace, the branch streams and ``(last_commit, commit_arr)``.
    """
    streams = lowered.streams_for(kind)
    result = SimulationResult(
        benchmark=lowered.program.name,
        configuration=f"2-level {kind.value}",
        pipeline_depth=config.pipeline_depth,
        warmup_instructions=warmup,
        speculation=config.speculation,
    )
    measured_lo = warmup if warmup < n_run else n_run
    result.loads = (lowered.load_prefix[n_run]
                    - lowered.load_prefix[measured_lo])
    result.stores = (lowered.store_prefix[n_run]
                     - lowered.store_prefix[measured_lo])

    branch_lo = bisect_left(lowered.branch_pos, measured_lo)
    branch_hi = bisect_left(lowered.branch_pos, n_run)
    result.cond_branches = branch_hi - branch_lo
    result.final_correct = (streams.cum_final[branch_hi]
                            - streams.cum_final[branch_lo])
    result.l1_correct = (streams.cum_l1[branch_hi]
                         - streams.cum_l1[branch_lo])
    overrides = (streams.cum_override[branch_hi]
                 - streams.cum_override[branch_lo])
    result.overrides = overrides
    result.l2_used = overrides  # hybrid uses L2 exactly when it overrides
    result.overrides_helpful = (streams.cum_helpful[branch_hi]
                                - streams.cum_helpful[branch_lo])
    result.overrides_harmful = (streams.cum_harmful[branch_hi]
                                - streams.cum_harmful[branch_lo])

    result.total_instructions = n_run
    result.total_cycles = last_commit
    measured_start_cycle = commit_arr[warmup] if warmup < n_run else 0
    result.instructions = max(n_run - warmup, 0)
    result.cycles = max(last_commit - measured_start_cycle, 0)
    result.memory = memory.stats()

    pops = bisect_left(lowered.jr_pos, n_run)
    correct_pops = lowered.jr_correct_cum[pops]
    result.ras_accuracy = correct_pops / pops if pops else 1.0
    return result


def _arvi_replay(program: Program, lowered: LoweredTrace,
                 config: MachineConfig, value_mode: ValueMode,
                 arvi_config: ARVIConfig | None, warmup: int,
                 n_run: int) -> SimulationResult:
    """The ARVI pass: engine semantics, flat-loop mechanics.

    Mirrors :meth:`PipelineEngine.run` stage for stage for the ARVI
    configurations.  The timing arithmetic (fetch / issue / commit /
    redirect) is the stream kernel's; the ARVI state on top of it is a
    single *retire pointer* ``h``.  Commit is in order and redirect mode
    never rolls back, so DDT tokens are stream indices, the in-flight
    set at branch *i*'s rename cycle is the suffix ``[h, i)`` (``h``
    counts the instructions committed by then), and the engine's DDT
    chain is the branch's precomputed register-dependence ancestor mask
    (:meth:`LoweredTrace.arvi_chains`) cut to that suffix.  The RSE leaf
    set, the pending/available verdicts, the shadow (or exposed) values
    and logical ids all follow from the producing stream index of each
    leaf: a leaf is pending iff its producer is still in flight
    (``>= h``), its value is the producer's committed result, and under
    ``load back`` a pending load leaf is exposed once its hoisted
    availability (``hoist``) has passed.  No rename map, free list, DDT,
    chain-info table or shadow file is kept (DESIGN.md §13).

    ``RenameError`` / ``DDTError`` cannot arise: the engine maps
    ``num_phys_regs = 32 + rob_entries`` registers and sizes the DDT to
    ``rob_entries`` columns, and the ROB stall in fetch bounds the
    in-flight instructions to ``rob_entries``, so neither the free list
    nor the DDT can run out in redirect mode.

    The level-1 prediction and the confidence verdict are
    timing-independent and come from the trace's shared streams
    (:meth:`LoweredTrace.level1_stream`, :meth:`LoweredTrace.
    confidence_stream`);
    the BVIT runs live (fresh table per config, as the engine builds a
    fresh predictor).  The full ARVI decision stream is **not**
    timing-independent — the cut ``h`` and the hoist times depend on
    per-config commit timing — so equality with the live engine is what
    the tests and the bench gate assert.
    """
    _cls, _src1, _src2, wr_tab, _ras, _hr = \
        program.decoded().static_columns()
    chains = lowered.arvi_chains(config.rob_entries)
    acfg = arvi_config or ARVIConfig()
    memory = MemoryHierarchy(config)
    bvit = BVIT(acfg.sets, acfg.ways)
    bvit_lookup = bvit.lookup
    bvit_update = bvit.update

    # Initial architectural register values (the functional core's), the
    # leaves of producer code ``-2 - r``.
    initial = [0] * 32
    initial[regs.sp] = STACK_TOP
    initial[regs.gp] = DATA_BASE

    # ---- hot locals (the stream kernel's, plus the ARVI state) ------------
    pcs = lowered.pcs
    kclass = lowered.kclass
    codes = lowered.codes_for(~(config.icache.line_bytes - 1))
    byte_pcs = lowered.byte_pcs
    dep1 = lowered.dep1
    dep2 = lowered.dep2
    mem_pos = lowered.mem_pos
    mem_addr = lowered.mem_addr
    store_dep = lowered.store_dep
    values = lowered.values()
    branch_taken = lowered.branch_taken
    l1_stream = lowered.level1_stream()
    conf_stream = lowered.confidence_stream()
    mem_ilat = memory.instruction_latency
    mem_dlat = memory.data_latency
    icache_hit_latency = config.icache.hit_latency
    frontend_depth = config.frontend_depth
    rename_offset = config.rename_offset
    fetch_width = config.fetch_width
    commit_width = config.commit_width
    rob_capacity = config.rob_entries
    lsq_capacity = config.lsq_entries
    alu_latency = config.alu_latency
    mult_latency = config.mult_latency
    div_latency = config.div_latency
    override_redirect = config.predictor_latencies.level2_arvi + 1
    muldiv_scalar = config.int_muldiv == 1
    index_mask = (1 << acfg.index_bits) - 1
    # Shadow register file (11-bit values) then the hash's index width.
    value_index_mask = _SHADOW_VALUE_MASK & index_mask
    id_tag_mask = (1 << acfg.id_tag_bits) - 1
    # Shadow map table (3-bit logical ids) then the id tag's width.
    id_mask = _SHADOW_ID_MASK & id_tag_mask
    depth_limit = (1 << acfg.depth_bits) - 1
    use_id_tag = acfg.use_id_tag
    use_depth_tag = acfg.use_depth_tag
    allocate_soft = not acfg.allocate_only_hard
    is_perfect = value_mode is ValueMode.PERFECT
    is_load_back = value_mode is ValueMode.LOAD_BACK

    complete_arr = [0] * n_run
    commit_arr = [0] * n_run
    # Hoisted load availability (engine _hoist_available); "load back" only.
    hoist = [0] * n_run if is_load_back else None
    alu_free = [0] * config.int_alus
    dcache_free = [0] * config.dcache_ports
    muldiv_free = 0
    muldiv_heap = [0] * config.int_muldiv
    fetch_barrier = 0
    fetch_cycle = fetch_used = 0
    commit_cycle = commit_used = 0
    last_commit = 0
    mem_i = 0
    branch_i = 0
    # Retire pointer: the instructions committed by the current branch's
    # rename cycle.  Rename cycles never decrease, so advancing it only
    # at branches finds the same h as the engine's per-instruction drain.
    h = 0

    cond_branches = final_correct_n = l1_correct_n = 0
    overrides_n = helpful_n = harmful_n = l2_used_n = 0
    calc_b = calc_c = load_b = load_c = 0

    for i in range(n_run):
        code = codes[i]
        k = code & 7

        # ---- fetch (barrier -> ROB -> LSQ -> I-cache -> bandwidth) --------
        earliest = fetch_barrier
        if i >= rob_capacity:
            free_at = commit_arr[i - rob_capacity] + 1
            if free_at > earliest:
                earliest = free_at
        if k == K_LOAD or k == K_STORE:
            if mem_i >= lsq_capacity:
                free_at = commit_arr[mem_pos[mem_i - lsq_capacity]] + 1
                if free_at > earliest:
                    earliest = free_at
        if code & _LINE_CHANGE:
            extra = mem_ilat(byte_pcs[i]) - icache_hit_latency
            if extra > 0:
                earliest += extra
        if earliest > fetch_cycle:
            fetch_cycle = earliest
            fetch_used = 0
        if fetch_used >= fetch_width:
            fetch_cycle += 1
            fetch_used = 0
        fetch_used += 1
        fetch = fetch_cycle

        # ---- ARVI decision at rename (one cycle after fetch) --------------
        if k == K_BRANCH:
            rename_cycle = fetch + rename_offset
            while h < i and commit_arr[h] <= rename_cycle:
                h += 1
            taken = branch_taken[branch_i]
            l1_pred = l1_stream[branch_i]
            confident = conf_stream[branch_i]
            # The DDT chain: ancestors still in flight (bits k <= i - h).
            chain = chains[branch_i] & ((2 << (i - h)) - 1)
            # RSE extraction (ChainInfoTable.extract over producers:
            # loads terminate chains and mark nothing).
            rse_sources = set()
            p = dep1[i]
            if p != -1:
                rse_sources.add(p)
                p = dep2[i]
                if p != -1:
                    rse_sources.add(p)
            if chain:
                span = chain.bit_length() - 1
                rse_targets = set()
                m = chain
                while m:
                    low = m & -m
                    m ^= low
                    x = i + 1 - low.bit_length()
                    if kclass[x] != K_LOAD:
                        rse_targets.add(x)
                        p = dep1[x]
                        if p != -1:
                            rse_sources.add(p)
                            p = dep2[x]
                            if p != -1:
                                rse_sources.add(p)
                if rse_targets:
                    rse_sources -= rse_targets
            else:
                span = 0
            # Key formation (ARVIPredictor.keys, inlined: XOR fold, id
            # sum and any() are commutative, so no sorted() pass).
            index = pcs[i] & index_mask
            id_sum = 0
            is_load_branch = False
            for p in rse_sources:
                if p < 0:  # an initial register value, never pending
                    index ^= initial[-2 - p] & value_index_mask
                    id_sum += (-2 - p) & id_mask
                    continue
                if p < h or is_perfect or (
                        is_load_back and kclass[p] == K_LOAD
                        and hoist[p] <= fetch):
                    index ^= values[p] & value_index_mask
                else:
                    is_load_branch = True
                id_sum += wr_tab[pcs[p]] & id_mask
            id_tag = id_sum & id_tag_mask if use_id_tag else 0
            if use_depth_tag:
                depth_tag = span if span < depth_limit else depth_limit
            else:
                depth_tag = 0
            arvi_taken = bvit_lookup(index, id_tag, depth_tag)
            use_arvi = arvi_taken is not None and not confident
            final = arvi_taken if use_arvi else l1_pred

        # ---- issue / execute ---------------------------------------------
        operands = 0
        dep = dep1[i]
        if dep >= 0:
            operands = complete_arr[dep]
        dep = dep2[i]
        if dep >= 0:
            when = complete_arr[dep]
            if when > operands:
                operands = when
        ready = fetch + frontend_depth
        if operands > ready:
            ready = operands
        if k == K_ALU or k == K_BRANCH:
            server_free = alu_free[0]
            issue = ready if ready >= server_free else server_free
            heapreplace(alu_free, issue + 1)
            complete = issue + alu_latency
        elif k == K_LOAD:
            server_free = alu_free[0]
            issue = ready if ready >= server_free else server_free
            heapreplace(alu_free, issue + 1)
            agen1 = issue + 1
            server_free = dcache_free[0]
            access = agen1 if agen1 >= server_free else server_free
            heapreplace(dcache_free, access + 1)
            source = store_dep[mem_i]
            if source >= 0 and commit_arr[source] > access:
                data_ready = complete_arr[source]
                complete = (access if access >= data_ready
                            else data_ready) + 1
            else:
                complete = access + mem_dlat(mem_addr[mem_i])
            if is_load_back:
                # Hoisted availability: operand readiness, gated by the
                # forwarding store's data, plus the actual latency.
                hoist_start = operands
                if source >= 0 and complete_arr[source] > hoist_start:
                    hoist_start = complete_arr[source]
                hoist[i] = hoist_start + (complete - issue)
            mem_i += 1
        elif k == K_STORE:
            server_free = alu_free[0]
            issue = ready if ready >= server_free else server_free
            heapreplace(alu_free, issue + 1)
            complete = issue + 1
            mem_i += 1
        elif k == K_OTHER:
            server_free = alu_free[0]
            issue = ready if ready >= server_free else server_free
            heapreplace(alu_free, issue + 1)
            complete = issue + 1
        elif k == K_MULT:
            if muldiv_scalar:
                issue = ready if ready >= muldiv_free else muldiv_free
                muldiv_free = issue + 1
            else:
                server_free = muldiv_heap[0]
                issue = ready if ready >= server_free else server_free
                heapreplace(muldiv_heap, issue + 1)
            complete = issue + mult_latency
        else:  # K_DIV (unpipelined)
            if muldiv_scalar:
                issue = ready if ready >= muldiv_free else muldiv_free
                muldiv_free = issue + div_latency
            else:
                server_free = muldiv_heap[0]
                issue = ready if ready >= server_free else server_free
                heapreplace(muldiv_heap, issue + div_latency)
            complete = issue + div_latency

        # ---- commit -------------------------------------------------------
        commit_req = complete + 1
        if commit_req < last_commit:
            commit_req = last_commit
        if commit_req > commit_cycle:
            commit_cycle = commit_req
            commit_used = 0
        if commit_used >= commit_width:
            commit_cycle += 1
            commit_used = 0
        commit_used += 1
        last_commit = commit_cycle
        commit_arr[i] = last_commit
        complete_arr[i] = complete

        # ---- control flow resolution + training ---------------------------
        if k == K_BRANCH:
            final_correct = final == taken
            override = use_arvi and final != l1_pred
            if not final_correct:
                barrier = complete + _REDIRECT_LATENCY
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            elif override:
                barrier = fetch + override_redirect
                if barrier > fetch_barrier:
                    fetch_barrier = barrier
            bvit_update(index, id_tag, depth_tag, taken,
                        allocate=not confident or allocate_soft)
            if i >= warmup:
                cond_branches += 1
                l1_correct = l1_pred == taken
                if final_correct:
                    final_correct_n += 1
                if l1_correct:
                    l1_correct_n += 1
                if override:
                    overrides_n += 1
                    if final_correct and not l1_correct:
                        helpful_n += 1
                    elif l1_correct and not final_correct:
                        harmful_n += 1
                if use_arvi:
                    l2_used_n += 1
                if is_load_branch:
                    load_b += 1
                    if final_correct:
                        load_c += 1
                else:
                    calc_b += 1
                    if final_correct:
                        calc_c += 1
            branch_i += 1

    # ---- statistics -------------------------------------------------------
    result = SimulationResult(
        benchmark=program.name,
        configuration=f"arvi {value_mode.value}",
        pipeline_depth=config.pipeline_depth,
        warmup_instructions=warmup,
        speculation=config.speculation,
    )
    measured_lo = warmup if warmup < n_run else n_run
    result.loads = (lowered.load_prefix[n_run]
                    - lowered.load_prefix[measured_lo])
    result.stores = (lowered.store_prefix[n_run]
                     - lowered.store_prefix[measured_lo])
    result.cond_branches = cond_branches
    result.final_correct = final_correct_n
    result.l1_correct = l1_correct_n
    result.overrides = overrides_n
    result.overrides_helpful = helpful_n
    result.overrides_harmful = harmful_n
    result.l2_used = l2_used_n
    result.calculated = BranchClassStats(branches=calc_b, correct=calc_c)
    result.load = BranchClassStats(branches=load_b, correct=load_c)
    result.arvi_lookups = bvit.stats.lookups
    result.arvi_bvit_hits = bvit.stats.hits

    result.total_instructions = n_run
    result.total_cycles = last_commit
    measured_start_cycle = commit_arr[warmup] if warmup < n_run else 0
    result.instructions = max(n_run - warmup, 0)
    result.cycles = max(last_commit - measured_start_cycle, 0)
    result.memory = memory.stats()

    pops = bisect_left(lowered.jr_pos, n_run)
    correct_pops = lowered.jr_correct_cum[pops]
    result.ras_accuracy = correct_pops / pops if pops else 1.0
    return result
