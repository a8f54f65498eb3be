"""Workload constants, point labels and result digests.

Shared by the controller (``run.py``), the per-repetition child
(``rep.py``) and the digest tool (``digests.py``).  Workload and metric
names come from ``BENCHMARK.json`` at the checkout root.  This module
never imports ``repro``: the controller stays a plain process supervisor
and every simulation runs in a hermetic child.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DIGEST_FILE = pathlib.Path(__file__).resolve().with_name("digests.json")

_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in _BENCHMARK["workloads"])
END_TO_END = {metric["name"]: metric["unit"]
              for metric in _BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"]
             for metric in _BENCHMARK["per_layer"]}

#: Simulation window (scale, warmup) per speculation mode; warmup keeps
#: the paper-default ratio (10000 instructions at scale 1.0).  At 0.25
#: all 8 workloads commit 26k-63k instructions, so no workload dominates
#: the grid (gcc, compress, go and ijpeg sit at their minimum iteration
#: counts below ~0.1).  Live wrong-path points cost ~5x a redirect
#: point, so that grid runs at 0.05.
WINDOWS = {"redirect": (0.25, 2500), "wrongpath": (0.05, 500)}
JOBS = 2

#: Stored digests cover workload seeds 1..DIGEST_SEEDS; a benchmark seed
#: maps onto that range (seed 1 is the paper-figure seed).
DIGEST_SEEDS = 16
WRONGPATH_BENCHMARKS = ("m88ksim", "li", "perl", "vortex")
DEPTHS = (20, 40, 60)


def workload_seed(seed: int) -> int:
    """Map a benchmark seed onto 1..DIGEST_SEEDS."""
    return (seed - 1) % DIGEST_SEEDS + 1


def speculation_for(workload: str) -> str:
    """The speculation mode (a ``WINDOWS`` key) the workload runs in."""
    return "wrongpath" if workload == "wrongpath-live" else "redirect"


def backend_for(workload: str) -> tuple[str, int]:
    """(backend name, jobs) the workload pins."""
    if workload == "wrongpath-live":
        return "serial", 1
    return "local", JOBS


def point_label(benchmark: str, configuration: str, depth: int,
                speculation: str, seed: int) -> str:
    """Stable name of one point in its mode's window."""
    return f"{benchmark}|{configuration}|{depth}|{speculation}|{seed}"


def result_digest(result_dict: dict) -> str:
    """Digest of one ``SimulationResult.to_dict()`` payload."""
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_digests() -> dict[str, str]:
    """The stored ``label -> digest`` table (checked against WINDOWS)."""
    payload = json.loads(DIGEST_FILE.read_text())
    if payload["windows"] != {mode: list(pair)
                              for mode, pair in WINDOWS.items()}:
        raise ValueError("digests.json was made in other windows")
    return payload["points"]


#: Points one repetition attempts (artifact-cold: Figure 5's 24 cells
#: plus Figure 6's 96 -- 120 cells, 96 computed, 24 cache replays).
POINTS = {"artifact-cold": 8 * 3 + 8 * 4 * 3,
          "wrongpath-live": len(WRONGPATH_BENCHMARKS) * 2 * 3}
