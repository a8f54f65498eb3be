"""Chaos harness + resilience policies for the experiment service.

Four small modules (DESIGN.md §12):

* :mod:`repro.faults.injector` — deterministic, seeded fault injection
  (``REPRO_FAULTS=<seed>:<profile>``) at the service's existing seams:
  broker I/O, cache/trace/queue file writes, worker execution and lease
  heartbeats.  Every injected fault is logged as an obs event.
* :mod:`repro.faults.fsio` — crash-durable atomic file writes (fsync
  before rename, ``REPRO_FSYNC``) shared by the cache, broker, trace
  store and ledger; also the single choke point where write-path faults
  (partial writes, bit flips, transient ``OSError``) are injected.
* :mod:`repro.faults.policy` — the unified resilience policy layer:
  :class:`~repro.faults.policy.RetryPolicy` (bounded attempts,
  exponential backoff, deterministic jitter), per-point deadlines
  (``REPRO_POINT_TIMEOUT``) and the poison-job
  :class:`~repro.faults.policy.DeadletterStore`.
* :mod:`repro.faults.manifest` — crash-safe run manifests
  (``REPRO_MANIFEST``): a killed grid restarted with the same plan
  skips completed points and converges to bit-identical results.

Like the rest of the harness, nothing here can change a simulation
outcome: the package is excluded from the result-cache code
fingerprint, and with ``REPRO_FAULTS`` unset the injector is one
settings lookup.
"""

from repro.faults.injector import FaultInjector, InjectedIOError, active
from repro.faults.policy import (
    DeadletterStore,
    PointTimeout,
    RetriesExhausted,
    RetryPolicy,
    point_deadline,
)

__all__ = [
    "DeadletterStore",
    "FaultInjector",
    "InjectedIOError",
    "PointTimeout",
    "RetriesExhausted",
    "RetryPolicy",
    "active",
    "point_deadline",
]
