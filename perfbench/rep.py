"""One cold repetition of a benchmark workload, in a fresh process.

Started by ``run.py`` with a hermetic environment (``REPRO_*`` cleared
except the pinned knobs, ``TMPDIR`` and every store inside a fresh
scratch directory).  Writes one JSON document to ``--out``:

* ``--setup-only``: just ``setup_s`` (imports + plan build +
  ``code_fingerprint``);
* default: the timed run of the workload -- wall, CPU, peak RSS,
  per-point durations, every result payload -- and, with ``--trace 1``,
  the span rollup;
* ``--spot LABEL``: one point re-run through the live engine
  (``execute_point(..., trace=False)``).

Usage: ``python3 -m perfbench.rep --workload NAME --seed N --out FILE``
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - setup_s starts before any import
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from perfbench import spec  # noqa: E402


def plans_for(workload: str, seed: int):
    """The workload's plans, one ``run_plan`` call each, in order."""
    from repro.experiments import (
        CONFIGURATIONS,
        ExperimentPoint,
        build_plan,
        plan_from_points,
    )
    from repro.workloads.registry import BENCHMARKS

    wseed = spec.workload_seed(seed)
    scale, warmup = spec.WINDOWS[spec.speculation_for(workload)]
    if workload == "artifact-cold":
        # run_figure5 / run_figure6 resolve seed 1; these are the same
        # plans at the workload seed (identical at seed 1).
        figure5 = plan_from_points(
            ExperimentPoint(bench, "current", depth, seed=wseed).resolve(
                scale=scale, warmup=warmup)
            for bench in BENCHMARKS for depth in spec.DEPTHS)
        return [figure5] + [build_plan(
            CONFIGURATIONS, (depth,), BENCHMARKS, scale=scale,
            warmup=warmup, seed=wseed) for depth in spec.DEPTHS]
    if workload == "wrongpath-live":
        return [build_plan(
            ("baseline", "current"), spec.DEPTHS,
            spec.WRONGPATH_BENCHMARKS, scale=scale, warmup=warmup,
            seed=wseed, speculation="wrongpath")]
    raise ValueError(f"unknown workload {workload!r}")


def label_of(point) -> str:
    return spec.point_label(point.benchmark, point.configuration,
                            point.pipeline_depth, point.speculation,
                            point.seed)


def _knobs() -> dict:
    from repro.experiments import default_backend_name, default_jobs
    from repro.experiments.tracing import kernel_mode, spec_mode, trace_mode

    return {
        "env": {name: os.environ[name] for name in sorted(os.environ)
                if name.startswith("REPRO_")},
        "resolved": {"jobs": default_jobs(),
                     "backend": default_backend_name(),
                     "trace": trace_mode(), "kernel": kernel_mode(),
                     "kernel_spec": spec_mode()},
    }


def timed_run(plans, *, backend: str, jobs: int, scratch: pathlib.Path,
              tracer) -> dict:
    """Run the plans cold on one cache, each with a view aggregator."""
    from repro.experiments import ResultCache, run_plan
    from repro.experiments.aggregate import ViewAggregator

    cache = ResultCache(scratch / "cache")
    events = []
    aggregators = []
    results: list[tuple[str, dict]] = []
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    region = tracer.region() if tracer is not None \
        else contextlib.nullcontext()
    started = time.perf_counter()
    with region:
        for plan in plans:
            sink = ViewAggregator()
            outcome = run_plan(plan, jobs=jobs, cache=cache,
                               backend=backend, progress=events.append,
                               sink=sink, manifest=False)
            aggregators.append(sink)
            results += [(label_of(point), result.to_dict())
                        for point, result in outcome.items()]
    wall = time.perf_counter() - started
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(getattr(after, field) - getattr(before, field)
              for before, after in ((self_before, self_after),
                                    (children_before, children_after))
              for field in ("ru_utime", "ru_stime"))
    computed = [event for event in events
                if event.phase == "point" and event.source != "cache"]
    by_label = dict(results)
    instructions = sum(by_label[label_of(event.point)]["total_instructions"]
                       for event in computed)
    kernel = sum(agg.snapshot().views["status"]["kernel_sources"]
                 .get("kernel", 0) for agg in aggregators)
    redirect = sum(1 for event in computed
                   if event.point.speculation == "redirect")
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(self_after.ru_maxrss,
                           children_after.ru_maxrss) / 1024.0,
        "durations": [event.duration for event in computed],
        "computed": len(computed),
        "instructions": instructions,
        "kernel_points": kernel,
        "redirect_points": redirect,
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spot")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    scratch = pathlib.Path(args.scratch)
    out = pathlib.Path(args.out)

    if args.spot:
        out.write_text(json.dumps(_spot(args.spot)))
        return 0

    tracer = None
    if args.trace:
        # Installed before the plans are built so plan.build_s is seen.
        from perfbench.tracer import Tracer

        tracer = Tracer(scratch / "spans")
        tracer.install()
    from repro.experiments.plan import code_fingerprint

    plans = plans_for(args.workload, args.seed)
    code_fingerprint()
    setup_s = time.perf_counter() - _STARTED
    report = {"setup_s": setup_s}
    if not args.setup_only:
        backend, jobs = spec.backend_for(args.workload)
        try:
            report.update(timed_run(plans, backend=backend, jobs=jobs,
                                     scratch=scratch, tracer=tracer))
        finally:
            if tracer is not None:
                tracer.restore()
        identities = {(point.benchmark, point.scale, point.seed)
                      for plan in plans for point in plan
                      if point.speculation == "redirect"}
        report["identities"] = len(identities)
        report["slots"] = jobs
        report["knobs"] = _knobs()
        if tracer is not None:
            from perfbench.tracer import rollup

            report["rollup"] = rollup(tracer.collect(), owner=os.getpid(),
                                      slots=jobs)
    out.write_text(json.dumps(report))
    return 0


def _spot(label: str) -> dict:
    from repro.experiments import ExperimentPoint, execute_point

    benchmark, configuration, depth, speculation, seed = label.split("|")
    scale, warmup = spec.WINDOWS[speculation]
    point = ExperimentPoint(benchmark, configuration, int(depth),
                            seed=int(seed), speculation=speculation
                            ).resolve(scale=scale, warmup=warmup)
    return execute_point(point, trace=False).to_dict()


if __name__ == "__main__":
    sys.exit(main())
