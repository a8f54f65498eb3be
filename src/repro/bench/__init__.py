"""Tracked performance harness (``python -m repro.bench``).

Measures the simulator's *host* performance — simulated instructions per
second and per-point wall time — so the perf trajectory of the hot path
is tracked from PR 3 onward:

* **single points**: m88ksim and compress, ``baseline`` configuration,
  20-stage machine, in both speculation modes (``redirect`` and
  ``wrongpath``), best-of-N wall time (always the live functional core);
* **kernel replay** (DESIGN.md §8, §10): the redirect points recorded
  once and replayed through the compiled kernel, with per-phase timing
  (record / lower / replay) and the kernel-vs-live speedup.  The kernel
  result **must** be bit-for-bit equal to the live run; a divergence
  raises and fails the run (this is the CI correctness gate — perf
  numbers stay informational).  The PR 4 interpreted-replay numbers
  are carried forward (``kernel.pr4_baseline``) so the kernel's
  speedup over them stays visible across regenerations;
* **ARVI kernel replay** (DESIGN.md §13): every ARVI value mode
  (``current``, ``load back``, ``perfect``) through the kernel's ARVI
  pass vs live — the paper's own sweep axis, hard-gated bit-for-bit
  like the stream kinds (``load back`` alone reaches the hoist times,
  ``perfect`` alone exposes pending values);
* **grid trace amortization**: a redirect configuration x depth grid run
  with traces on (into an empty trace store) vs off (``REPRO_TRACE``),
  tracking the record-once/replay-many win;
* **telemetry overhead** (DESIGN.md §11): the same live point with the
  flight recorder off vs on (``REPRO_OBS=1`` + default-period interval
  sampling) — results must stay bit-for-bit identical, and the relative
  overhead is gated (``--obs-gate``, default <3%) in the perf smoke.

Results are written to ``BENCH_perf.json`` at the repository root.  The
file carries a ``baseline`` section (the pre-optimization seed numbers,
recorded when the harness was introduced) that is preserved across runs;
when the current run's scale/warmup match the baseline's, per-point and
trace-replay speedups are reported against it.  Numbers are
host-dependent — comparisons are only meaningful on the same machine.
The report's ``settings`` section records the resolved ``REPRO_*`` knobs
(:class:`repro.settings.Settings`) the harness ran under.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone

from repro.experiments.plan import ExperimentPoint, plan_from_points
from repro.experiments.runner import execute_point
from repro.experiments.scheduler import run_plan
from repro.pipeline.trace import TraceRecorder
from repro.settings import (
    DEFAULT_INTERVAL_CYCLES,
    Settings,
    env_override,
    results_root,
)
from repro.workloads.registry import get_program

#: v8: ``arvi_kernel`` covers all three value modes, keyed
#: ``"<benchmark>/<configuration>"``; v7: the ``grid_batching`` section
#: left with ``REPRO_BATCH`` and a ``settings`` section records the
#: resolved knobs; v6: the interpreted
#: and generated-code replay tiers are gone, so their ``trace_replay``
#: and codegen sections are dropped and ``kernel`` / ``arvi_kernel``
#: share one shape (kernel vs live, per-phase timings); v5:
#: ``arvi_kernel`` + codegen sections, and the observability overhead
#: re-measured as paired rounds / median-of-ratios; v4 sourced kernel
#: phase timings from ``execute_point``'s ``info["phase_seconds"]`` +
#: the ``observability`` section + CI gate; v3 added the kernel section +
#: carried PR 4 baseline (PR 6); v2 added trace_replay + grid_trace
#: (PR 4).
SCHEMA_VERSION = 8

#: Single-point measurements: (benchmark, speculation mode).
POINT_MATRIX = (
    ("m88ksim", "redirect"),
    ("m88ksim", "wrongpath"),
    ("compress", "redirect"),
    ("compress", "wrongpath"),
)

#: Grid for the trace-sharing comparison: every redirect configuration
#: of one workload at three depths (the Figure 6 shape).
GRID_CONFIGURATIONS = ("baseline", "current", "load back", "perfect")
GRID_DEPTHS = (20, 40, 60)
GRID_BENCHMARK = "m88ksim"

#: The ARVI value modes the ``arvi_kernel`` section gates and reports.
ARVI_CONFIGURATIONS = ("current", "load back", "perfect")


def repo_root() -> pathlib.Path:
    """The checkout root (where ``BENCH_perf.json`` lives)."""
    return results_root().parents[1]


def measure_point(benchmark: str, speculation: str, *, scale: float,
                  warmup: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall time for one cold baseline point."""
    point = ExperimentPoint(benchmark, "baseline", 20, scale=scale,
                            warmup=warmup, speculation=speculation).resolve()
    best = None
    instructions = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = execute_point(point, trace=False)  # always the live core
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        instructions = result.total_instructions
    return {
        "instructions": instructions,
        "wall_seconds": round(best, 4),
        "sim_ips": round(instructions / best, 1),
    }


def measure_kernel_replay(benchmark: str, configuration: str = "baseline",
                          *, scale: float, warmup: int,
                          repeats: int = 3) -> dict:
    """Compiled-kernel replay vs the live engine, per phase.

    Times each phase of the kernel path separately — recording the
    committed trace, lowering it to array form (including the one-shot
    branch decision streams), and the warm per-config replay — and
    *asserts* the kernel result is bit-for-bit equal to the live run:
    the hard correctness gate.  ``baseline`` exercises the stream pass,
    the ARVI configurations the fused pass.

    The lower/replay timings come from ``execute_point``'s
    ``info["phase_seconds"]`` — the same per-phase clocks that feed the
    telemetry ledger spans — so the bench numbers and a run ledger's
    phase breakdown are directly comparable.

    The first replay records the trace's memory outcome stream; the gate
    then also replays a point of *another* configuration and depth from
    that stream (DESIGN.md §10) and asserts it, too, equals its live
    run — so the stream-replay path is gated, not only the recording.
    """
    point = ExperimentPoint(benchmark, configuration, 20, scale=scale,
                            warmup=warmup).resolve()
    live_best = None
    live_result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        live_result = execute_point(point, trace=False)
        elapsed = time.perf_counter() - start
        if live_best is None or elapsed < live_best:
            live_best = elapsed

    program = get_program(benchmark, scale=point.scale, seed=point.seed)
    start = time.perf_counter()
    trace = TraceRecorder(program).record()
    record_seconds = time.perf_counter() - start

    kernel_best = None
    kernel_result = None
    lower_seconds = None
    for _ in range(max(1, repeats)):
        info: dict = {}
        kernel_result = execute_point(point, trace=trace, info=info)
        if info.get("kernel_source") != "kernel":
            raise AssertionError(
                f"{benchmark}/{configuration}: compiled kernel did not "
                f"engage (kernel_source={info.get('kernel_source')!r})")
        phases = info["phase_seconds"]
        if "lower" in phases:      # only the first (cold) run lowers
            lower_seconds = phases["lower"]
        elapsed = phases["replay"]
        if kernel_best is None or elapsed < kernel_best:
            kernel_best = elapsed
    if lower_seconds is None:
        raise AssertionError(
            f"{benchmark}: no cold lowering phase observed — was the "
            "trace already lowered before the harness ran?")

    if kernel_result != live_result:  # the hard correctness gate
        raise AssertionError(
            f"{benchmark}/{configuration}: kernel replay diverged from "
            "the live engine")
    other = ExperimentPoint(
        benchmark, "current" if configuration == "baseline" else "baseline",
        40, scale=scale, warmup=warmup).resolve()
    info = {}
    streamed = execute_point(other, trace=trace, info=info)
    if info.get("memory_stream") != "played":
        raise AssertionError(
            f"{benchmark}/{other.configuration}@40: expected a replay from "
            f"the memory stream recorded at {configuration}@20, got "
            f"{info.get('memory_stream')!r}")
    if streamed != execute_point(other, trace=False):
        raise AssertionError(
            f"{benchmark}/{other.configuration}@40: replay from a memory "
            f"stream recorded at {configuration}@20 diverged from the "
            "live engine")
    instructions = live_result.total_instructions
    return {
        "instructions": instructions,
        "configuration": configuration,
        "phases": {
            "record_seconds": round(record_seconds, 4),
            "lower_seconds": round(lower_seconds, 4),
            "replay_wall_seconds": round(kernel_best, 4),
        },
        "kernel_sim_ips": round(instructions / kernel_best, 1),
        "live_sim_ips": round(instructions / live_best, 1),
        "kernel_vs_live": round(live_best / kernel_best, 4),
    }


def measure_obs_overhead(benchmark: str = "m88ksim", *, scale: float,
                         warmup: int, repeats: int = 3) -> dict:
    """Telemetry-on vs telemetry-off throughput for one live point.

    Runs the same cold baseline point with the flight recorder off and
    inside an active telemetry run with interval sampling at its default
    period (``REPRO_OBS=1`` + ``REPRO_OBS_INTERVAL=1``, ledger into a
    throwaway directory), and reports the relative wall-time overhead.

    Methodology (schema v5): off/on run **back-to-back as a pair** each
    round so host-load drift hits both sides of a ratio equally, the
    first paired round is discarded (it pays cold caches and first-touch
    allocator costs for both sides), and the reported overhead is the
    **median of the per-round on/off ratios** — the old best-of-per-side
    estimator let an unlucky "off" best make the overhead come out
    negative, turning the <3% CI gate into a scheduling-noise test.
    The results **must** be bit-for-bit equal — telemetry observing a
    simulation is the ISSUE 7 do-no-harm gate — and CI additionally
    bounds ``overhead_pct`` via ``--obs-gate`` (default 3%).
    """
    import gc
    import statistics
    import tempfile

    from repro import obs

    point = ExperimentPoint(benchmark, "baseline", 20, scale=scale,
                            warmup=warmup).resolve()
    pairs: list[tuple[float, float]] = []
    off_result = on_result = None
    # Twelve warm pairs minimum: single-run wall times on shared hosts
    # spread 20-30%, so a small-sample median still lands outside the
    # CI gate too often.  A dozen paired ratios keep the median's own
    # noise comfortably inside it, and the off/on legs stay adjacent so
    # load drift cancels within each ratio.
    rounds = max(12, repeats) + 1  # round 0 is a discarded warmup pair
    # The interval knob only samples inside a telemetry run, so the
    # off-leg runs with no sampler although the knob stays set.
    with tempfile.TemporaryDirectory() as tmp, \
            env_override({"REPRO_OBS_INTERVAL": "1"}):
        for _ in range(rounds):
            gc.collect()  # the previous on-leg's dead ledger
            # objects must not be collected inside the off-leg
            start = time.perf_counter()
            off_result = execute_point(point, trace=False)
            off_elapsed = time.perf_counter() - start

            telemetry = obs.start_run(label="bench-overhead", root=tmp)
            try:
                gc.collect()
                start = time.perf_counter()
                on_result = execute_point(point, trace=False)
                on_elapsed = time.perf_counter() - start
            finally:
                obs.close_run(telemetry)
            pairs.append((off_elapsed, on_elapsed))

    if on_result != off_result:  # the do-no-harm hard gate
        raise AssertionError(
            f"{benchmark}: enabling telemetry changed the simulation "
            "result")
    warm = pairs[1:]
    off_median = statistics.median(off for off, _ in warm)
    on_median = statistics.median(on for _, on in warm)
    ratio = statistics.median(on / off for off, on in warm)
    instructions = off_result.total_instructions
    return {
        "benchmark": benchmark,
        "instructions": instructions,
        "interval_cycles": DEFAULT_INTERVAL_CYCLES,
        "rounds": len(warm),
        "off_sim_ips": round(instructions / off_median, 1),
        "on_sim_ips": round(instructions / on_median, 1),
        "off_wall_seconds": round(off_median, 4),
        "on_wall_seconds": round(on_median, 4),
        "overhead_pct": round((ratio - 1.0) * 100, 2),
    }


def measure_grid_trace(*, scale: float, warmup: int, jobs: int = 2,
                       repeats: int = 2) -> dict:
    """Record-once trace win: a redirect config x depth grid, cold.

    The same plan runs through the batched scheduler with traces on
    (record once per workload into an empty trace store, replay every
    point) and off (live core per point); results must be identical,
    only the wall time differs.
    The grid uses the harness scale directly — trace replay amortizes
    *simulation* work, so the points must be big enough to measure.
    """
    points = [
        ExperimentPoint(GRID_BENCHMARK, configuration, depth, scale=scale,
                        warmup=warmup)
        for configuration in GRID_CONFIGURATIONS
        for depth in GRID_DEPTHS
    ]
    plan = plan_from_points(points)

    timings: dict[str, float] = {}
    outcomes: dict[str, dict] = {}
    for _ in range(max(1, repeats)):
        for mode in ("1", "0"):
            with tempfile.TemporaryDirectory() as traces, env_override(
                    {"REPRO_TRACE": mode, "REPRO_TRACE_DIR": traces}):
                start = time.perf_counter()
                outcomes[mode] = run_plan(plan, jobs=jobs, use_cache=False)
                elapsed = time.perf_counter() - start
            if mode not in timings or elapsed < timings[mode]:
                timings[mode] = elapsed

    if outcomes["1"] != outcomes["0"]:  # the hard correctness gate
        raise AssertionError("trace-shared and live grid results differ")
    return {
        "benchmark": GRID_BENCHMARK,
        "points": len(plan),
        "scale": scale,
        "warmup": warmup,
        "jobs": jobs,
        "traced_seconds": round(timings["1"], 4),
        "live_seconds": round(timings["0"], 4),
        "trace_speedup": round(timings["0"] / timings["1"], 4),
    }


def _load_previous(output: pathlib.Path) -> dict | None:
    try:
        previous = json.loads(output.read_text())
    except (OSError, ValueError):
        return None
    return previous if isinstance(previous, dict) else None


def _load_baseline(output: pathlib.Path) -> dict | None:
    """Carry the recorded pre-optimization baseline across runs."""
    previous = _load_previous(output)
    if previous is None:
        return None
    baseline = previous.get("baseline")
    return baseline if isinstance(baseline, dict) else None


def _pr4_baseline(output: pathlib.Path) -> dict | None:
    """Carry the recorded PR 4 interpreted-replay numbers across runs,
    so the kernel's speedup over the pre-kernel replay loop stays
    visible no matter how often the file is regenerated."""
    previous = _load_previous(output)
    if previous is None:
        return None
    kernel = previous.get("kernel")
    if isinstance(kernel, dict) and isinstance(
            kernel.get("pr4_baseline"), dict):
        return kernel["pr4_baseline"]
    return None


def run_bench(*, scale: float = 1.0, warmup: int = 1000, repeats: int = 3,
              jobs: int = 2, skip_trace: bool = False,
              obs_gate: float = 3.0,
              output: pathlib.Path | None = None,
              echo=print) -> dict:
    """Run the harness and write ``BENCH_perf.json``; returns the report."""
    output = repo_root() / "BENCH_perf.json" if output is None else output
    baseline = _load_baseline(output)
    pr4 = _pr4_baseline(output)

    report: dict = {
        "schema": SCHEMA_VERSION,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "scale": scale,
        "warmup": warmup,
        "repeats": repeats,
        "settings": Settings.from_env().to_dict(),
        "points": {},
    }

    for benchmark, speculation in POINT_MATRIX:
        key = f"{benchmark}/{speculation}"
        sample = measure_point(benchmark, speculation, scale=scale,
                               warmup=warmup, repeats=repeats)
        report["points"][key] = sample
        echo(f"{key}: {sample['sim_ips']:,.0f} sim-inst/s "
             f"({sample['instructions']} instructions, "
             f"{sample['wall_seconds']:.3f}s)")

    if not skip_trace:
        redirect = [benchmark for benchmark, speculation in POINT_MATRIX
                    if speculation == "redirect"]  # replay is redirect-only
        report["kernel"] = {}
        if pr4 is not None:
            report["kernel"]["pr4_baseline"] = pr4
        report["arvi_kernel"] = {}
        sections = [("kernel", "baseline")] + [
            ("arvi_kernel", configuration)
            for configuration in ARVI_CONFIGURATIONS]
        for section, configuration in sections:
            for benchmark in redirect:
                sample = measure_kernel_replay(
                    benchmark, configuration, scale=scale, warmup=warmup,
                    repeats=repeats)
                if (section == "kernel" and pr4 is not None
                        and pr4.get("scale") == scale
                        and pr4.get("warmup") == warmup):
                    base = pr4.get("points", {}).get(benchmark)
                    if base:
                        sample["kernel_vs_pr4_replay"] = round(
                            sample["kernel_sim_ips"] / base, 3)
                key = (benchmark if section == "kernel"
                       else f"{benchmark}/{configuration}")
                report[section][key] = sample
                echo(f"{benchmark} {configuration} kernel replay: "
                     f"{sample['kernel_sim_ips']:,.0f} sim-inst/s vs live "
                     f"{sample['live_sim_ips']:,.0f} "
                     f"({sample['kernel_vs_live']:.2f}x; lower "
                     f"{sample['phases']['lower_seconds']:.3f}s, results "
                     "identical)")

        grid = measure_grid_trace(scale=scale, warmup=warmup, jobs=jobs)
        report["grid_trace"] = grid
        echo(f"grid trace sharing ({grid['points']} {GRID_BENCHMARK} "
             f"redirect points, {grid['jobs']} workers): traced "
             f"{grid['traced_seconds']:.2f}s vs live "
             f"{grid['live_seconds']:.2f}s ({grid['trace_speedup']:.2f}x)")

    sample = measure_obs_overhead(scale=scale, warmup=warmup,
                                  repeats=repeats)
    report["observability"] = sample
    echo(f"{sample['benchmark']} telemetry overhead: "
         f"{sample['on_sim_ips']:,.0f} sim-inst/s on vs "
         f"{sample['off_sim_ips']:,.0f} off "
         f"({sample['overhead_pct']:+.2f}%, results identical)")
    if obs_gate > 0 and sample["overhead_pct"] > obs_gate:
        raise AssertionError(
            f"telemetry overhead {sample['overhead_pct']:.2f}% exceeds "
            f"the {obs_gate:.1f}% gate (--obs-gate 0 disables)")

    if baseline is not None:
        report["baseline"] = baseline
        if (baseline.get("scale") == scale
                and baseline.get("warmup") == warmup):
            speedups = {}
            for key, sample in report["points"].items():
                base = baseline.get("points", {}).get(key)
                if base and base.get("sim_ips"):
                    speedups[key] = round(
                        sample["sim_ips"] / base["sim_ips"], 3)
            for benchmark, sample in report.get("kernel", {}).items():
                if benchmark == "pr4_baseline":
                    continue
                base = baseline.get("points", {}).get(f"{benchmark}/redirect")
                if base and base.get("sim_ips"):
                    speedups[f"{benchmark}/redirect via kernel replay"] = (
                        round(sample["kernel_sim_ips"] / base["sim_ips"], 3))
            report["speedup_vs_baseline"] = speedups
            for key, ratio in speedups.items():
                echo(f"{key}: {ratio:.2f}x vs baseline "
                     f"({baseline.get('label', 'recorded baseline')})")
        else:
            echo("baseline recorded at a different scale/warmup; "
                 "speedups not computed")

    output.write_text(json.dumps(report, indent=2) + "\n")
    echo(f"[written to {output}]")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Measure simulator host performance and write "
                    "BENCH_perf.json at the repository root.")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="simulation window scale for the single "
                             "points (default 1.0)")
    parser.add_argument("--warmup", type=int, default=1000,
                        help="warmup instructions per point (default 1000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per point (default 3)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="workers for the grid comparison (default 2)")
    parser.add_argument("--skip-trace", action="store_true",
                        help="skip the kernel-replay comparisons (also "
                             "skips their kernel==live correctness gates)")
    parser.add_argument("--obs-gate", type=float, default=3.0,
                        help="fail if telemetry overhead exceeds this "
                             "percentage (default 3.0; 0 disables the "
                             "gate, the measurement always runs)")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="output path (default: BENCH_perf.json at "
                             "the repo root)")
    args = parser.parse_args(argv)
    run_bench(scale=args.scale, warmup=args.warmup, repeats=args.repeats,
              jobs=args.jobs, skip_trace=args.skip_trace,
              obs_gate=args.obs_gate, output=args.output)
    return 0
