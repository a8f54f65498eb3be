"""Oracle test for the per-branch dependence-chain precompute.

``LoweredTrace.arvi_chains(rob)`` gives each conditional branch a
relative ancestor mask (bit *k* = instruction *i - k*).  The ARVI replay
pass cuts it at a retire pointer ``h`` and takes the result to be the
DDT chain.  Here a real :class:`~repro.pipeline.rename.RenameMap` and
:class:`~repro.core.ddt.FastDDT` are driven in program order over
recorded traces, committing up to a random non-decreasing ``h`` before
each instruction (ROB-bounded, as fetch guarantees), and at every branch
the cut mask must name exactly ``FastDDT.chain_tokens`` of the branch's
source registers — and its top bit the oldest chain token.
"""

import functools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ddt import FastDDT
from repro.isa.decoded import KCLASS_BRANCH
from repro.pipeline.kernel import ensure_lowered
from repro.pipeline.rename import RenameMap
from repro.pipeline.trace import record_trace
from repro.workloads.registry import get_program


@functools.lru_cache(maxsize=None)
def _recorded(workload):
    program = get_program(workload, scale=0.02, seed=1)
    return program, record_trace(program)


def _mask_tokens(mask, i):
    tokens = set()
    while mask:
        low = mask & -mask
        tokens.add(i + 1 - low.bit_length())
        mask ^= low
    return tokens


def _check_chains(workload, rob, seed, eagerness):
    program, trace = _recorded(workload)
    lowered = ensure_lowered(program, trace)
    chains = lowered.arvi_chains(rob)
    _cls, src1_tab, src2_tab, wr_tab, _ras, _hr = \
        program.decoded().static_columns()
    rng = random.Random(seed)
    rename = RenameMap(32 + rob)
    ddt = FastDDT(32 + rob, rob)
    displaced_at: deque = deque()  # per in-flight instruction
    h = 0
    branch_i = 0
    checked = 0
    for i, pc in enumerate(lowered.pcs):
        # Retire to a random h: never backwards, never past i, and at
        # most rob - 1 instructions left in flight (the ROB stall).
        target = max(h, i - rob + 1)
        if i > target and rng.random() < eagerness:
            target = rng.randint(target, i)
        while h < target:
            assert ddt.commit_oldest() == h
            displaced = displaced_at.popleft()
            if displaced is not None:
                rename.release(displaced)
            h += 1
        s1, s2 = src1_tab[pc], src2_tab[pc]
        srcs = tuple(rename.lookup(s) for s in (s1, s2) if s >= 0)
        if lowered.kclass[i] == KCLASS_BRANCH:
            cut = chains[branch_i] & ((2 << (i - h)) - 1)
            assert _mask_tokens(cut, i) == ddt.chain_tokens(*srcs), (i, h)
            oldest = ddt.oldest_chain_token(*srcs)
            if cut:
                assert oldest == i + 1 - cut.bit_length()
            else:
                assert oldest is None
            branch_i += 1
            checked += 1
        rd = wr_tab[pc]
        if rd >= 0:
            dest, displaced = rename.rename_dest(rd)
        else:
            dest = displaced = None
        assert ddt.allocate(dest, srcs) == i
        displaced_at.append(displaced)
    assert branch_i == len(chains)
    return checked


class TestChainPrecompute:

    @settings(max_examples=30, deadline=None)
    @given(workload=st.sampled_from(["li", "m88ksim"]),
           rob=st.sampled_from([2, 3, 8, 16, 40, 97, 256]),
           seed=st.integers(0, 2**32 - 1),
           eagerness=st.floats(0.0, 1.0))
    def test_cut_mask_is_ddt_chain(self, workload, rob, seed, eagerness):
        assert _check_chains(workload, rob, seed, eagerness) > 0

    @pytest.mark.parametrize("rob", [2, 16])
    @pytest.mark.parametrize("workload", ["li", "m88ksim"])
    def test_lazy_retire_keeps_full_window(self, workload, rob):
        # eagerness 0: h trails by rob - 1, so chains reach the window's
        # far edge (with rob 2, every producer one instruction back).
        assert _check_chains(workload, rob, 0, 0.0) > 0

    def test_masks_cached_per_rob_size(self):
        program, trace = _recorded("li")
        lowered = ensure_lowered(program, trace)
        assert lowered.arvi_chains(16) is lowered.arvi_chains(16)
        assert len(lowered.arvi_chains(16)) == len(lowered.branch_pos)
        assert all(mask < 1 << 16 for mask in lowered.arvi_chains(16))
