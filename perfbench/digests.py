"""Regenerate ``perfbench/digests.json``, the benchmark's correctness gate.

Every point any workload can run -- the redirect grid (4
configurations x 8 workloads x 20/40/60) and the wrong-path grid, at
workload seeds 1..DIGEST_SEEDS -- is simulated without the result cache
and stored as ``label -> digest of SimulationResult.to_dict()``.

A change that alters the model on purpose regenerates this file as its
own benchmark change:

    PYTHONPATH=src:. python3 -m perfbench.digests
"""

from __future__ import annotations

import json

from perfbench import spec


def compute() -> dict[str, str]:
    from repro.experiments import plan_from_points, run_plan

    from perfbench.rep import label_of, plans_for

    digests: dict[str, str] = {}
    for seed in range(1, spec.DIGEST_SEEDS + 1):
        # artifact-cold's plans hold every redirect point of the seed;
        # wrongpath-live's hold the rest.
        plan = plan_from_points(
            point for workload in ("artifact-cold", "wrongpath-live")
            for stage in plans_for(workload, seed) for point in stage)
        results = run_plan(plan, jobs=spec.JOBS, use_cache=False,
                           manifest=False)
        for point, result in results.items():
            digests[label_of(point)] = spec.result_digest(result.to_dict())
        print(f"seed {seed}: {len(digests)} points", flush=True)
    return digests


def main() -> int:
    payload = {"windows": spec.WINDOWS, "seeds": spec.DIGEST_SEEDS,
               "points": dict(sorted(compute().items()))}
    spec.DIGEST_FILE.write_text(json.dumps(payload, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
