"""Artifact-level benchmark of the reproduction.

Usage::

    python3 perfbench/run.py --workload artifact-cold --seed 1 \\
        --seconds 25 --trace 0

Runs cold repetitions of one workload, each in a fresh hermetic process
(``perfbench/rep.py``), until ``--seconds`` have been measured; checks
every simulated result against the stored digests plus one live-engine
spot check; and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` one untraced and one traced repetition
give the per-layer ones.  The line before it is an ``info`` object:
resolved knobs, host, Python and numpy versions, per-repetition values.

Every file the run writes lives under ``.perfbench_tmp/`` in the
checkout and is removed at exit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120.0
#: Stop starting repetitions after this much of the run (the contract
#: allows 180 s per run).
BUDGET_S = 110.0
#: The traced run's harness-health limit on unattributed slot time.
MAX_UNATTRIBUTED_FRAC = 0.10


class Children:
    """Hermetic child processes, each with a fresh scratch directory."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there

    def env(self, scratch: pathlib.Path) -> dict[str, str]:
        backend, jobs = spec.backend_for(self.workload)
        scale, warmup = spec.WINDOWS[spec.speculation_for(self.workload)]
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env.update({
            "REPRO_JOBS": str(jobs),
            "REPRO_BACKEND": backend,
            "REPRO_SCALE": str(scale),
            "REPRO_WARMUP": str(warmup),
            "REPRO_CACHE_DIR": str(scratch / "cache"),
            "REPRO_TRACE_DIR": str(scratch / "traces"),
            "REPRO_DEADLETTER_DIR": str(scratch / "deadletter"),
            "REPRO_OBS": "0",
            "TMPDIR": str(scratch / "tmp"),
            "PYTHONPATH": os.pathsep.join([str(spec.SRC), str(ROOT)]),
        })
        return env

    def run(self, *args: str) -> dict | None:
        """Run ``perfbench.rep`` once; its JSON report, or None."""
        self._count += 1
        scratch = self.root / f"child-{self._count}"
        (scratch / "tmp").mkdir(parents=True)
        out = scratch / "report.json"
        command = [sys.executable, "-m", "perfbench.rep",
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--scratch", str(scratch), "--out", str(out), *args]
        proc = subprocess.Popen(command, cwd=ROOT, env=self.env(scratch),
                                stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child's pool workers share its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        try:
            report = json.loads(out.read_text()) if code == 0 else None
        except (OSError, ValueError):
            report = None
        if report is None:
            print(f"perfbench: child {' '.join(args) or 'run'} failed "
                  f"(exit {code})", file=sys.stderr)
        shutil.rmtree(scratch, ignore_errors=True)
        return report


class Check:
    """Attempted/failed point counts of one benchmark run."""

    def __init__(self) -> None:
        self.expected = spec.load_digests()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def repetition(self, workload: str, report: dict | None) -> None:
        """Count a repetition's points; crashed or wrong ones fail."""
        points = spec.POINTS[workload]
        self.attempted += points
        if report is None:
            self.failed += points
            self.notes.append("a repetition crashed")
            return
        results = report["results"]
        bad = [label for label, result in results
               if self.expected.get(label) != spec.result_digest(result)]
        missing = max(0, points - len(results))
        self.failed += len(bad) + missing
        if bad or missing:
            self.notes.append(f"{len(bad)} mismatched, {missing} missing")

    def same(self, first: dict, second: dict) -> None:
        """Traced and untraced repetitions must agree point by point."""
        digests = [
            [(label, spec.result_digest(result))
             for label, result in report["results"]]
            for report in (first, second)]
        if digests[0] != digests[1]:
            self.failed += 1
            self.notes.append("traced and untraced results differ")

    def spot(self, children: Children, workload: str, seed: int,
             report: dict) -> str:
        """Re-run one sampled point through the live engine; require ==."""
        results = dict(report["results"])
        labels = sorted(label for label in results
                        if workload == "wrongpath-live"
                        or label.split("|")[3] == "redirect")
        label = random.Random(f"spot:{workload}:{seed}").choice(labels)
        self.attempted += 1
        live = children.run("--spot", label)
        if live is None or live != results[label]:
            self.failed += 1
            self.notes.append(f"live spot check failed on {label}")
        return label


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values`` by inclusive quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(reports: list[dict], key: str) -> float:
    return statistics.median(report[key] for report in reports)


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    durations = [d for report in reps for d in report["durations"]]
    return {
        "wall_s": _median(reps, "wall_s"),
        "cpu_s": _median(reps, "cpu_s"),
        "sim_ips": statistics.median(
            report["instructions"] / report["wall_s"] for report in reps),
        "point_p50_s": _percentile(durations, 50),
        "point_p90_s": _percentile(durations, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: dict, untraced: dict) -> dict:
    """Every per-layer metric but ``failed_frac``, known only at the end."""
    roll = traced["rollup"]
    layers = roll["layers"]
    empty = {"calls": 0, "self_s": 0.0, "count": 0.0}

    def get(*names: str) -> dict:
        total = dict(empty)
        for name in names:
            for field, value in layers.get(name, empty).items():
                total[field] += value
        return total

    modes = ("current", "load-back", "perfect")
    arvi = get(*(f"replay.arvi.{mode}" for mode in modes))
    stream = get("replay.stream")
    record = get("record")
    engine = get("engine")
    cache_get = get("cache.get")
    metrics = {
        "replay.arvi.calls": arvi["calls"],
        "replay.arvi.self_s": arvi["self_s"],
        "replay.arvi.ips": _ratio(arvi["count"], arvi["self_s"]),
        **{f"replay.arvi.{mode}.self_s": get(f"replay.arvi.{mode}")["self_s"]
           for mode in modes},
        "replay.stream.calls": stream["calls"],
        "replay.stream.self_s": stream["self_s"],
        "replay.stream.ips": _ratio(stream["count"], stream["self_s"]),
        "record.calls": record["calls"],
        "record.self_s": record["self_s"],
        "record.ips": _ratio(record["count"], record["self_s"]),
        "record.per_identity": _ratio(record["calls"],
                                      traced["identities"]),
        "lower.calls": int(get("lower")["count"]),
        "lower.self_s": get("lower")["self_s"],
        "engine.calls": engine["calls"],
        "engine.self_s": engine["self_s"],
        "engine.ips": _ratio(engine["count"], engine["self_s"]),
        "sched.parallel_eff": _ratio(roll["busy_s"],
                                     roll["wall_s"] * traced["slots"]),
        "sched.idle_s": roll["idle_s"],
        "sched.critical_path_s": roll["critical_path_s"],
        "sched.kernel_share": _ratio(traced["kernel_points"],
                                     traced["redirect_points"]),
        "cache.get.self_s": cache_get["self_s"],
        "cache.put.self_s": get("cache.put")["self_s"],
        "cache.hit_ratio": _ratio(cache_get["count"], cache_get["calls"]),
        "aggregate.self_s": get("aggregate")["self_s"],
        "plan.build_s": get("plan")["self_s"],
        "workloads.build_s": get("workloads")["self_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "rollup.unattributed_frac": _ratio(roll["unattributed_s"],
                                           roll["frame_s"]),
    }
    return metrics


def _versions() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"host": platform.node(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy}


def measure(args, children: Children, check: Check) -> tuple[dict, dict]:
    started = time.monotonic()
    # Discarded: the first child in a checkout compiles the bytecode.
    children.run("--setup-only")
    setups = []
    for _ in range(SETUP_SAMPLES):
        report = children.run("--setup-only")
        if report is not None:
            setups.append(report["setup_s"])
    reps: list[dict] = []
    if args.trace:
        pair = [children.run("--trace", "0"), children.run("--trace", "1")]
        for report in pair:
            check.repetition(args.workload, report)
        if None in pair:
            return {}, {}
        untraced, traced = pair
        check.same(untraced, traced)
        reps = [untraced]
    else:
        measured = time.monotonic()
        while not reps or time.monotonic() - measured < args.seconds:
            if time.monotonic() - started > BUDGET_S:
                break
            report = children.run("--trace", "0")
            check.repetition(args.workload, report)
            if report is not None:
                reps.append(report)
    if not reps or not setups:
        return {}, {}
    spot = check.spot(children, args.workload, args.seed, reps[0])
    info = {
        "workload": args.workload, "seed": args.seed,
        "workload_seed": spec.workload_seed(args.seed),
        "window": spec.WINDOWS[spec.speculation_for(args.workload)],
        "repetitions": len(reps), "spot_check": spot,
        "knobs": reps[0]["knobs"], **_versions(),
        "per_repetition": {key: [report[key] for report in reps]
                           for key in ("wall_s", "cpu_s", "peak_rss_mb")},
        "setup_samples": setups,
        "notes": check.notes,
    }
    if args.trace:
        metrics = per_layer(traced, untraced)
        if metrics["rollup.unattributed_frac"] > MAX_UNATTRIBUTED_FRAC:
            check.failed += 1
            check.notes.append("unattributed share of the traced run is "
                               "above the harness limit")
        metrics["failed_frac"] = _ratio(check.failed, check.attempted)
    else:
        metrics = end_to_end(reps, setups + [r["setup_s"] for r in reps])
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Children run in their own sessions; a terminated run still stops
    # them, through the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (spec.SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources under {spec.SRC}",
              file=sys.stderr)
        return 2
    try:
        check = Check()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot load stored digests: {exc}",
              file=sys.stderr)
        return 2
    children = Children(args.workload, args.seed)
    try:
        metrics, info = measure(args, children, check)
    finally:
        children.close()
    if not metrics:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    units = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
