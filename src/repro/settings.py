"""Every ``REPRO_*`` environment knob, resolved in one place.

:meth:`Settings.from_env` is the only code in the package that reads a
``REPRO_*`` variable (a guard test enforces this).  It applies one
parsing rule to every knob:

* booleans accept ``1/true/yes/on`` and ``0/false/no/off``, in any case
  and with surrounding whitespace;
* numbers, paths and enumerations are parsed once, here;
* an unset or empty variable means the knob's default;
* any other value raises ``ValueError`` naming the knob and what it
  accepts — a typo must never silently run a different program than the
  one asked for.

The scheduler resolves one :class:`Settings` per ``run_plan`` call and
records :meth:`Settings.to_dict` in the run ledger; code running inside
worker processes resolves its own from the environment it inherited.
Only ``scale`` and ``warmup`` can change a simulation outcome, and both
are folded into every point key; the other knobs choose how the same
numbers are computed, stored and observed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import pathlib
from typing import Iterator, Mapping

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")

#: ``REPRO_TRACE`` modes, each with the spellings that select it.  There
#: is one on-mode (traces persist in the store under ``REPRO_TRACE_DIR``);
#: ``memory`` and ``disk`` name the two on-modes it replaced.
TRACE_MODES = {
    "off": _OFF,
    "on": _ON + ("memory", "disk"),
}

#: ``REPRO_BACKEND`` selectors; unset or ``auto`` picks serial for one
#: worker and the local pool otherwise.
BACKEND_NAMES = ("serial", "local", "queue")

DEFAULT_SERVE_PORT = 8765

#: The ``REPRO_OBS_INTERVAL`` sampling period that ``1``/``on`` selects.
DEFAULT_INTERVAL_CYCLES = 50_000


@functools.lru_cache(maxsize=1)
def _checkout_root() -> "pathlib.Path | None":
    root = pathlib.Path(__file__).resolve().parents[2]
    return root if (root / "pyproject.toml").is_file() else None


def results_root() -> pathlib.Path:
    """``benchmarks/results/`` of the source checkout.

    An installed package has no checkout above it, so the stores fall
    back to the working directory rather than the interpreter prefix.
    """
    root = _checkout_root() or pathlib.Path.cwd()
    return root / "benchmarks" / "results"


def _invalid(knob: str, raw: str, expected: str) -> ValueError:
    return ValueError(f"invalid {knob} {raw!r}; expected {expected}")


def _flag(knob: str, raw: "str | None", default: bool) -> bool:
    if raw is None:
        return default
    value = raw.lower()
    if value in _ON:
        return True
    if value in _OFF:
        return False
    raise _invalid(knob, raw, f"one of {sorted(_ON + _OFF)}")


def _integer(knob: str, raw: "str | None", default, *,
             maximum: "int | None" = None):
    if raw is None:
        return default
    expected = "a non-negative integer" if maximum is None \
        else f"an integer from 0 to {maximum}"
    try:
        value = int(raw)
    except ValueError:
        raise _invalid(knob, raw, expected) from None
    if value < 0 or (maximum is not None and value > maximum):
        raise _invalid(knob, raw, expected)
    return value


def _number(knob: str, raw: "str | None", default: float, *,
            positive: bool = False) -> float:
    if raw is None:
        return default
    expected = "a positive number" if positive else "a non-negative number"
    try:
        value = float(raw)
    except ValueError:
        raise _invalid(knob, raw, expected) from None
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        raise _invalid(knob, raw, expected)
    return value


def _choice(knob: str, raw: "str | None", default,
            choices: Mapping[object, tuple[str, ...]]):
    if raw is None:
        return default
    value = raw.lower()
    for result, spellings in choices.items():
        if value in spellings:
            return result
    accepted = sorted(s for spellings in choices.values() for s in spellings)
    raise _invalid(knob, raw, f"one of {accepted}")


def _switched(raw: "str | None", on: "int | None" = None) -> "str | None":
    """A number knob's off (and optional on) spelling as its number."""
    if raw is not None and raw.lower() in _OFF:
        return "0"
    if raw is not None and on is not None and raw.lower() in _ON:
        return str(on)
    return raw


_BACKENDS = {name: (name,) for name in BACKEND_NAMES} | {None: ("auto",)}


@dataclasses.dataclass(frozen=True)
class Settings:
    """The resolved value of every knob; field ``x`` is ``REPRO_X``.

    Defaults live in :meth:`from_env`; the README knob table lists them.
    """

    scale: float
    warmup: int
    #: Worker processes (``REPRO_JOBS`` unset or 0: the CPU count).
    jobs: int
    cache: bool
    cache_dir: pathlib.Path
    #: "on" (record into and replay from the trace store) | "off".
    trace: str
    trace_dir: pathlib.Path
    #: A :data:`BACKEND_NAMES` entry, or None to pick by worker count.
    backend: "str | None"
    #: Queue workers to spawn; None follows ``jobs``, 0 attaches to
    #: external workers on ``queue_dir``.
    queue_workers: "int | None"
    #: None gives every queue run a private temporary broker.
    queue_dir: "pathlib.Path | None"
    obs: bool
    obs_dir: pathlib.Path
    #: Engine sampling period in cycles (0 = off).
    obs_interval: int
    #: The seeded chaos spec ``<seed>:<profile>[:<budget>]``, validated by
    #: :mod:`repro.faults.injector` when the first seam fires.
    faults: "str | None"
    #: Per-point deadline in seconds (0 = off).
    point_timeout: float
    deadletter_dir: pathlib.Path
    manifest: bool
    manifest_dir: pathlib.Path
    fsync: bool
    serve: bool
    serve_port: int

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "Settings":
        """Resolve every knob from ``environ``; ``ValueError`` on a typo."""
        raw: dict[str, str] = {}
        for knob in KNOBS:
            value = environ.get(knob, "").strip()
            if value:
                raw[knob] = value
        get = raw.get
        results = results_root()

        def path(knob: str, store: str) -> pathlib.Path:
            value = get(knob)
            return pathlib.Path(value) if value else results / store

        queue_dir = get("REPRO_QUEUE_DIR")
        return cls(
            scale=_number("REPRO_SCALE", get("REPRO_SCALE"), 1.0,
                          positive=True),
            warmup=_integer("REPRO_WARMUP", get("REPRO_WARMUP"), 10_000),
            jobs=_integer("REPRO_JOBS", get("REPRO_JOBS"), 0)
            or os.cpu_count() or 1,
            cache=_flag("REPRO_CACHE", get("REPRO_CACHE"), True),
            cache_dir=path("REPRO_CACHE_DIR", "cache"),
            trace=_choice("REPRO_TRACE", get("REPRO_TRACE"), "on",
                          TRACE_MODES),
            trace_dir=path("REPRO_TRACE_DIR", "traces"),
            backend=_choice("REPRO_BACKEND", get("REPRO_BACKEND"), None,
                            _BACKENDS),
            queue_workers=_integer("REPRO_QUEUE_WORKERS",
                                   get("REPRO_QUEUE_WORKERS"), None),
            queue_dir=pathlib.Path(queue_dir) if queue_dir else None,
            obs=_flag("REPRO_OBS", get("REPRO_OBS"), False),
            obs_dir=path("REPRO_OBS_DIR", "obs"),
            obs_interval=_integer(
                "REPRO_OBS_INTERVAL",
                _switched(get("REPRO_OBS_INTERVAL"),
                          on=DEFAULT_INTERVAL_CYCLES), 0),
            faults=get("REPRO_FAULTS"),
            point_timeout=_number(
                "REPRO_POINT_TIMEOUT",
                _switched(get("REPRO_POINT_TIMEOUT")), 0.0),
            deadletter_dir=path("REPRO_DEADLETTER_DIR", "deadletter"),
            manifest=_flag("REPRO_MANIFEST", get("REPRO_MANIFEST"), False),
            manifest_dir=path("REPRO_MANIFEST_DIR", "manifests"),
            fsync=_flag("REPRO_FSYNC", get("REPRO_FSYNC"), True),
            serve=_flag("REPRO_SERVE", get("REPRO_SERVE"), False),
            serve_port=_integer("REPRO_SERVE_PORT", get("REPRO_SERVE_PORT"),
                                DEFAULT_SERVE_PORT, maximum=65535),
        )

    def to_dict(self) -> dict:
        """JSON-safe ``{field: value}``, paths as strings."""
        return {name: str(value) if isinstance(value, pathlib.Path)
                else value
                for name, value in dataclasses.asdict(self).items()}


#: Every knob ``Settings.from_env`` reads, in field order.
KNOBS = tuple(f"REPRO_{field.name.upper()}"
              for field in dataclasses.fields(Settings))


@contextlib.contextmanager
def env_override(values: Mapping[str, "str | None"],
                 environ=os.environ) -> Iterator[None]:
    """Set (``None``: unset) knobs for the body, then restore them.

    For code that hands a knob to the worker processes it starts, which
    resolve their own :class:`Settings` from the inherited environment.
    """
    def apply(changes: Mapping[str, "str | None"]) -> None:
        for knob, value in changes.items():
            if value is None:
                environ.pop(knob, None)
            else:
                environ[knob] = value

    saved = {knob: environ.get(knob) for knob in values}
    try:
        apply(values)
        yield
    finally:
        apply(saved)
