"""Tests of the benchmark itself.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import rep, spec
from perfbench.run import Check
from perfbench.tracer import Tracer, rollup

from repro.experiments import ExperimentPoint, execute_point
from repro.experiments import runner, scheduler
from repro.experiments.cache import ResultCache
from repro.pipeline import engine, kernel

ROOT = spec.ROOT


def _run_bench(*args: str, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_wrappers_restore_originals():
    originals = {
        "kernel.ensure_lowered": kernel.ensure_lowered,
        "runner.ensure_lowered": runner.ensure_lowered,
        "runner.kernel_run": runner.kernel_run,
        "runner.load_or_record": runner.load_or_record,
        "runner.get_program": runner.get_program,
        "scheduler.run_plan": scheduler.run_plan,
    }
    get = ResultCache.__dict__["get"]
    run = engine.PipelineEngine.__dict__["run"]
    tracer = Tracer(spill_dir=ROOT / ".perfbench_tmp" / "unused")
    tracer.install()
    late = types.ModuleType("perfbench_late_binding")
    try:
        # Every name a function is called through is wrapped ...
        assert runner.ensure_lowered is kernel.ensure_lowered
        assert runner.ensure_lowered is not originals["runner.ensure_lowered"]
        assert runner.kernel_run is not originals["runner.kernel_run"]
        assert runner.get_program is not originals["runner.get_program"]
        assert ResultCache.__dict__["get"] is not get
        assert engine.PipelineEngine.__dict__["run"] is not run
        # ... including a binding made after install.
        late.run_plan = scheduler.run_plan
        sys.modules[late.__name__] = late
    finally:
        tracer.restore()
        sys.modules.pop(late.__name__, None)
    assert kernel.ensure_lowered is originals["kernel.ensure_lowered"]
    for name, original in originals.items():
        module = {"kernel": kernel, "runner": runner,
                  "scheduler": scheduler}[name.split(".")[0]]
        assert getattr(module, name.split(".")[1]) is original, name
    assert late.run_plan is originals["scheduler.run_plan"]
    assert ResultCache.__dict__["get"] is get
    assert engine.PipelineEngine.__dict__["run"] is run


@pytest.mark.parametrize("backend,jobs", [("serial", 1), ("local", 2)])
def test_traced_run_accounts_for_wall(tmp_path, backend, jobs):
    from repro.experiments import build_plan

    scale, warmup = spec.WINDOWS["redirect"]
    small = build_plan(("baseline",), (20, 40), ("m88ksim", "li"),
                       scale=scale, warmup=warmup, seed=1)
    tracer = Tracer(tmp_path / "spans")
    tracer.install()
    try:
        report = rep.timed_run([small], backend=backend, jobs=jobs,
                               scratch=tmp_path, tracer=tracer)
    finally:
        tracer.restore()
    roll = rollup(tracer.collect(), owner=tracer.owner, slots=jobs)
    layers = roll["layers"]
    assert layers["replay.stream"]["calls"] == len(small)
    assert "replay.arvi.current" not in layers
    assert layers["record"]["calls"] == 2      # one per workload identity
    total = roll["attributed_s"] + roll["unattributed_s"] + roll["idle_s"]
    assert total == pytest.approx(roll["frame_s"], rel=1e-6)
    assert roll["idle_s"] >= 0
    assert 0 < roll["unattributed_s"] / roll["frame_s"] < 0.10
    assert roll["wall_s"] == pytest.approx(report["wall_s"], rel=0.05)


def test_perturbed_result_counts_as_failure():
    scale, warmup = spec.WINDOWS["redirect"]
    point = ExperimentPoint("m88ksim", "baseline", 20, seed=1).resolve(
        scale=scale, warmup=warmup)
    label = spec.point_label("m88ksim", "baseline", 20, "redirect", 1)
    result = execute_point(point, trace=False).to_dict()
    check = Check()
    assert check.expected[label] == spec.result_digest(result)
    perturbed = dict(result, cycles=result["cycles"] + 1)
    workload = "wrongpath-live"   # any workload: only the count matters
    report = {"results": [(label, result)] * (spec.POINTS[workload] - 1)
              + [(label, perturbed)]}
    check.repetition(workload, report)
    assert (check.attempted, check.failed) == (spec.POINTS[workload], 1)
    check.repetition(workload, None)
    assert check.failed == 1 + spec.POINTS[workload]


def test_artifact_plans_match_the_figure_functions(monkeypatch):
    from repro.experiments import figure5, figure6

    captured = []

    def capture(plan, **kwargs):
        captured.append(plan)
        return {}

    monkeypatch.setattr(figure5, "run_plan", capture)
    monkeypatch.setattr(runner, "run_plan", capture)
    scale, warmup = spec.WINDOWS["redirect"]
    figure5.run_figure5(scale=scale, warmup=warmup)
    for depth in spec.DEPTHS:
        figure6.run_figure6(depth, scale=scale, warmup=warmup)
    plans = rep.plans_for("artifact-cold", 1)
    assert [plan.points for plan in plans] \
        == [plan.points for plan in captured]
    assert sum(len(plan) for plan in plans) \
        == spec.POINTS["artifact-cold"]


def test_smoke_emits_every_metric_with_its_unit():
    for trace, units in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
        proc = _run_bench("--workload", "wrongpath-live", "--seed", "3",
                          "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == units
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        if trace == "1":
            # The prediction table's zero cells for the live engine.
            for name in ("replay.arvi.calls", "replay.stream.calls",
                         "record.calls", "lower.calls"):
                assert metrics[name] == 0, name
            assert metrics["engine.calls"] == spec.POINTS["wrongpath-live"]
            assert metrics["failed_frac"] \
                == result["failed"] / result["attempted"]
        else:
            assert all(value > 0 for value in metrics.values())
    assert not (ROOT / ".perfbench_tmp").exists()


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "artifact-cold", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
