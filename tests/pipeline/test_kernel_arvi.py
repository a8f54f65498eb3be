"""ARVI through the compiled replay kernel (the retire-pointer pass).

The same hard invariant as the stream kinds, extended to the paper's
headline predictor: ``kernel_run(..., LevelTwoKind.ARVI)`` is
bit-for-bit equal (``==``) to the live engine run across all three ARVI
latency classes (Table 4: 6/12/18-cycle BVIT at depths 20/40/60), the
three paper value modes (current / load back / perfect), warmups,
replay budgets, ROB/LSQ sizes and custom ARVI geometries.  The pass
keeps no rename map, DDT or shadow file: it cuts each branch's
precomputed dependence-ancestor mask (``LoweredTrace.arvi_chains``,
keyed by ROB size) at a retire pointer, and derives every leaf's
availability, value and id from its producer's stream index.  These
tests are what keep that derivation honest against the engine's real
rename / DDT / RSE / shadow structures; ``test_arvi_chains.py`` checks
the masks themselves against :class:`~repro.core.ddt.FastDDT`.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arvi import ARVIConfig, ValueMode
from repro.pipeline.config import machine_for_depth
from repro.pipeline.engine import PipelineEngine, build_predictor
from repro.pipeline.kernel import kernel_run
from repro.pipeline.trace import record_trace
from repro.predictors.twolevel import LevelTwoKind
from repro.workloads.registry import SPECS, get_program

SCALE = 0.05
MODES = (ValueMode.CURRENT, ValueMode.LOAD_BACK, ValueMode.PERFECT)


@pytest.fixture(scope="module")
def program():
    return get_program("m88ksim", scale=SCALE, seed=1)


@pytest.fixture(scope="module")
def trace(program):
    return record_trace(program)


#: Replay budget of the every-workload sweep: long enough to fill the
#: 256-entry ROB many times over, short enough for tier-1.
SWEEP_BUDGET = 8000


def arvi_engine(program, *, depth=20, warmup=500, mode=ValueMode.CURRENT,
                arvi_config=None, budget=None, **overrides):
    """The live engine run — the oracle every kernel replay must equal."""
    config = machine_for_depth(depth, **overrides)
    predictor = build_predictor(LevelTwoKind.ARVI, config, arvi_config)
    engine = PipelineEngine(program, config, predictor, value_mode=mode,
                            warmup_instructions=warmup)
    return engine.run() if budget is None else engine.run(budget)


class TestARVIEquality:
    """Every latency class x value mode x warmup, kernel vs live."""

    @pytest.mark.parametrize("depth", [20, 40, 60])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("warmup", [0, 500])
    def test_kernel_equals_live(self, program, trace, depth, mode, warmup):
        live = arvi_engine(program, depth=depth, mode=mode, warmup=warmup)
        kernel = kernel_run(program, trace, machine_for_depth(depth),
                            LevelTwoKind.ARVI, warmup_instructions=warmup,
                            value_mode=mode)
        assert kernel == live

    @pytest.mark.parametrize("workload", ["compress", "li"])
    def test_other_workloads(self, workload):
        program = get_program(workload, scale=0.02, seed=1)
        trace = record_trace(program)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=100)
        assert kernel == arvi_engine(program, warmup=100)

    @pytest.mark.parametrize("workload", sorted(SPECS))
    def test_every_workload(self, workload):
        # The ROADMAP gate: every workload x latency class x value mode,
        # on a budgeted prefix of the stream.
        program = get_program(workload, scale=0.02, seed=1)
        trace = record_trace(program, SWEEP_BUDGET)
        for depth in (20, 40, 60):
            for mode in MODES:
                kernel = kernel_run(program, trace, machine_for_depth(depth),
                                    LevelTwoKind.ARVI,
                                    warmup_instructions=100, value_mode=mode,
                                    max_instructions=SWEEP_BUDGET)
                live = arvi_engine(program, depth=depth, warmup=100,
                                   mode=mode, budget=SWEEP_BUDGET)
                assert kernel == live, (depth, mode)

    @pytest.mark.parametrize("rob", [8, 16, 40])
    @pytest.mark.parametrize("mode", MODES)
    def test_small_rob(self, program, trace, rob, mode):
        # The chain window is the ROB: with a small one the retire
        # pointer sits at the window's far edge on most branches.
        live = arvi_engine(program, mode=mode, rob_entries=rob)
        kernel = kernel_run(program, trace,
                            machine_for_depth(20, rob_entries=rob),
                            LevelTwoKind.ARVI, warmup_instructions=500,
                            value_mode=mode)
        assert kernel == live

    @pytest.mark.parametrize("arvi_config", [
        # A small BVIT makes tag collisions matter: on go, a 5-bit id
        # tag summed modulo 8 instead of 32 changes the hit count.
        ARVIConfig(sets=16, index_bits=4, id_tag_bits=5),
        ARVIConfig(sets=16, index_bits=4, depth_bits=3),
        ARVIConfig(index_bits=9),
        ARVIConfig(use_id_tag=False, use_depth_tag=False),
        ARVIConfig(allocate_only_hard=False),
    ], ids=["id_tag_bits", "depth_bits", "index_bits", "no_tags",
            "allocate_soft"])
    def test_key_widths_and_ablations(self, arvi_config):
        program = get_program("go", scale=0.02, seed=1)
        trace = _go_prefix()
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=100,
                            arvi_config=arvi_config,
                            max_instructions=SWEEP_BUDGET)
        assert kernel == arvi_engine(program, warmup=100,
                                     arvi_config=arvi_config,
                                     budget=SWEEP_BUDGET)

    def test_custom_arvi_geometry(self, program, trace):
        custom = ARVIConfig(sets=64, ways=2)
        kernel = kernel_run(program, trace, machine_for_depth(20),
                            LevelTwoKind.ARVI, warmup_instructions=500,
                            arvi_config=custom)
        assert kernel == arvi_engine(program, arvi_config=custom)
        # The geometry matters: the default-geometry result differs (the
        # equality above would be vacuous if the config were ignored).
        assert kernel != kernel_run(program, trace, machine_for_depth(20),
                                    LevelTwoKind.ARVI,
                                    warmup_instructions=500)


@functools.lru_cache(maxsize=1)
def _go_prefix():
    return record_trace(get_program("go", scale=0.02, seed=1), SWEEP_BUDGET)


@functools.lru_cache(maxsize=1)
def _small():
    """A small (program, trace) pair the property replays (built once;
    hypothesis forbids function-scoped fixtures)."""
    program = get_program("li", scale=0.01, seed=1)
    return program, record_trace(program)


class TestARVIProperty:
    """Kernel == live at any (depth, mode, warmup, budget, ROB, LSQ)
    draw — the precomputed confidence stream and ROB-keyed chain masks
    must agree with the engine cutting off mid-stream."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_live_at_any_draw(self, data):
        program, trace = _small()
        depth = data.draw(st.sampled_from([20, 40, 60]), label="depth")
        mode = data.draw(st.sampled_from(MODES), label="mode")
        warmup = data.draw(st.integers(0, 60), label="warmup")
        budget = data.draw(st.integers(0, trace.length), label="budget")
        sizes = {
            "rob_entries": data.draw(st.integers(8, 256), label="rob"),
            "lsq_entries": data.draw(st.integers(4, 64), label="lsq"),
        }
        live = arvi_engine(program, depth=depth, mode=mode, warmup=warmup,
                           budget=budget, **sizes)
        kernel = kernel_run(program, trace, machine_for_depth(depth, **sizes),
                            LevelTwoKind.ARVI, warmup_instructions=warmup,
                            value_mode=mode, max_instructions=budget)
        assert kernel == live
