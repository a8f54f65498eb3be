"""Tracked simulator-performance benchmark (DESIGN.md §7-§8).

Runs the ``repro.bench`` harness — simulated-instructions/sec and
per-point wall time for m88ksim/compress in both speculation modes, the
kernel-replay vs live-engine comparisons (whose kernel==live equality is
a hard correctness gate), and the traced-vs-live cold grid — and
refreshes ``BENCH_perf.json`` at the repository root so the perf
trajectory is tracked alongside the paper artifacts.  ``REPRO_SCALE``
rescales the measured points exactly like the figure benchmarks (the
recorded baseline is only comparable at its own scale).
"""

from __future__ import annotations

from repro.bench import run_bench


def test_perf_harness(save_result, scale):
    lines: list[str] = []
    report = run_bench(scale=scale, echo=lines.append)

    text = "\n".join(["simulator performance (repro.bench)", ""] + lines)
    save_result("perf_harness", text)

    # Informational harness, but the measurements themselves must be sane.
    assert report["points"], "no points measured"
    for key, sample in report["points"].items():
        assert sample["sim_ips"] > 0, f"{key}: bad throughput"
    for section in ("kernel", "arvi_kernel"):
        # measure_kernel_replay raised already if kernel != live; here
        # we only sanity-check the recorded numbers.
        for benchmark, sample in report.get(section, {}).items():
            if benchmark == "pr4_baseline":
                continue
            assert sample["kernel_sim_ips"] > 0, f"{benchmark}: bad replay"
            assert sample["phases"]["record_seconds"] >= 0
    grid_trace = report.get("grid_trace")
    if grid_trace is not None:
        assert grid_trace["traced_seconds"] > 0
