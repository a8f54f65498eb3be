"""One settings module: every ``REPRO_*`` knob parsed by one rule.

* a table over every :class:`~repro.settings.Settings` field: its default
  when unset, each accepted spelling, and malformed values that must
  raise ``ValueError`` naming the knob instead of silently picking a
  different program;
* a guard that no module under ``src/``, ``benchmarks/`` or
  ``examples/`` other than ``settings.py`` reads a ``REPRO_*`` variable;
* the README knob table lists exactly the ``Settings`` knobs.
"""

import ast
import dataclasses
import os
import pathlib
import re

import pytest

from repro.settings import (
    DEFAULT_INTERVAL_CYCLES,
    KNOBS,
    Settings,
    env_override,
    results_root,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = results_root()

DEFAULTS = {
    "scale": 1.0,
    "warmup": 10_000,
    "jobs": os.cpu_count() or 1,
    "cache": True,
    "cache_dir": RESULTS / "cache",
    "trace": "on",
    "trace_dir": RESULTS / "traces",
    "backend": None,
    "queue_workers": None,
    "queue_dir": None,
    "obs": False,
    "obs_dir": RESULTS / "obs",
    "obs_interval": 0,
    "faults": None,
    "point_timeout": 0.0,
    "deadletter_dir": RESULTS / "deadletter",
    "manifest": False,
    "manifest_dir": RESULTS / "manifests",
    "fsync": True,
    "serve": False,
    "serve_port": 8765,
}

_FLAGS = ("cache", "obs", "manifest", "fsync", "serve")
_DIRS = ("cache_dir", "trace_dir", "deadletter_dir", "manifest_dir",
         "obs_dir")

ACCEPTED = [
    ("scale", "0.25", 0.25),
    ("scale", " 2 ", 2.0),
    ("warmup", "0", 0),
    ("warmup", "500", 500),
    ("jobs", "3", 3),
    ("jobs", "0", os.cpu_count() or 1),
    ("trace", "0", "off"),
    ("trace", "TRUE", "on"),
    ("trace", " Yes ", "on"),
    ("trace", "memory", "on"),
    ("trace", "DISK", "on"),
    ("backend", "serial", "serial"),
    ("backend", "Local", "local"),
    ("backend", "queue", "queue"),
    ("backend", "auto", None),
    ("queue_workers", "0", 0),
    ("queue_workers", "4", 4),
    ("queue_dir", "/tmp/broker", pathlib.Path("/tmp/broker")),
    ("obs_interval", "off", 0),
    ("obs_interval", "0", 0),
    ("obs_interval", "1", DEFAULT_INTERVAL_CYCLES),
    ("obs_interval", "on", DEFAULT_INTERVAL_CYCLES),
    ("obs_interval", "64", 64),
    ("faults", "7:mixed", "7:mixed"),
    ("point_timeout", "off", 0.0),
    ("point_timeout", "2.5", 2.5),
    ("serve_port", "0", 0),
    ("serve_port", "65535", 65535),
] + [
    (field, raw, value)
    for field in _FLAGS
    for raw, value in (("1", True), ("true", True), ("YES", True),
                       (" on ", True), ("0", False), ("False", False),
                       ("no", False), ("OFF", False), (" 0", False))
] + [(field, "/tmp/elsewhere", pathlib.Path("/tmp/elsewhere"))
     for field in _DIRS]

MALFORMED = [
    ("REPRO_SCALE", "big"),
    ("REPRO_SCALE", "0"),
    ("REPRO_SCALE", "-1"),
    ("REPRO_SCALE", "nan"),
    ("REPRO_WARMUP", "1e3"),
    ("REPRO_WARMUP", "-5"),
    ("REPRO_JOBS", "two"),
    ("REPRO_JOBS", "-1"),
    ("REPRO_CACHE", "of"),
    ("REPRO_CACHE", "disabled"),
    ("REPRO_TRACE", "dsik"),
    ("REPRO_BACKEND", "bogus"),
    ("REPRO_QUEUE_WORKERS", "many"),
    ("REPRO_OBS", "2"),
    ("REPRO_OBS_INTERVAL", "50k"),
    ("REPRO_OBS_INTERVAL", "-1"),
    ("REPRO_POINT_TIMEOUT", "5s"),
    ("REPRO_POINT_TIMEOUT", "-3"),
    ("REPRO_POINT_TIMEOUT", "inf"),
    ("REPRO_MANIFEST", "maybe"),
    ("REPRO_FSYNC", "sometimes"),
    ("REPRO_SERVE", "please"),
    ("REPRO_SERVE_PORT", "nope"),
    ("REPRO_SERVE_PORT", "70000"),
]


def knob(field: str) -> str:
    return f"REPRO_{field.upper()}"


class TestTable:
    def test_fields_are_the_knobs(self):
        fields = [field.name for field in dataclasses.fields(Settings)]
        assert fields == list(DEFAULTS)
        assert KNOBS == tuple(knob(field) for field in fields)
        assert len(KNOBS) == 21

    @pytest.mark.parametrize("field", list(DEFAULTS))
    def test_default_when_unset_or_empty(self, field):
        assert getattr(Settings.from_env({}), field) == DEFAULTS[field]
        assert getattr(Settings.from_env({knob(field): " "}), field) \
            == DEFAULTS[field]

    @pytest.mark.parametrize("field,raw,expected", ACCEPTED)
    def test_accepted_spelling(self, field, raw, expected):
        settings = Settings.from_env({knob(field): raw})
        assert getattr(settings, field) == expected
        # One knob never leaks into another.
        others = {name: value for name, value in DEFAULTS.items()
                  if name != field}
        assert {name: getattr(settings, name) for name in others} == others

    @pytest.mark.parametrize("name,raw", MALFORMED)
    def test_malformed_value_names_the_knob(self, name, raw):
        quoted = re.escape(repr(raw.strip()))
        with pytest.raises(ValueError, match=f"{name} {quoted}"):
            Settings.from_env({name: raw})

    def test_settings_are_frozen_and_json_safe(self):
        settings = Settings.from_env({"REPRO_QUEUE_DIR": "/tmp/broker"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.jobs = 7
        recorded = settings.to_dict()
        assert list(recorded) == list(DEFAULTS)
        assert recorded["queue_dir"] == "/tmp/broker"
        assert recorded["cache_dir"] == str(RESULTS / "cache")

    def test_env_override_restores(self):
        environ = {"REPRO_TRACE": "disk"}
        with env_override({"REPRO_TRACE": "0", "REPRO_OBS": "1"},
                          environ=environ):
            assert Settings.from_env(environ).trace == "off"
            assert Settings.from_env(environ).obs is True
        assert environ == {"REPRO_TRACE": "disk"}


# -- the one-reader guard -----------------------------------------------------


def _is_environ(node) -> bool:
    """``os.environ`` (or a bare imported ``environ``)."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os") \
        or (isinstance(node, ast.Name) and node.id == "environ")


def _repro_or_unknown(node) -> bool:
    """A key that is, or may be, a ``REPRO_*`` name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("REPRO_")
    return True


def _is_getter(node) -> bool:
    """``os.environ.get`` or ``os.getenv`` (called or not)."""
    return isinstance(node, ast.Attribute) and (
        (node.attr == "get" and _is_environ(node.value))
        or (node.attr == "getenv" and isinstance(node.value, ast.Name)
            and node.value.id == "os"))


def environ_reads(tree: ast.AST) -> list[int]:
    """Lines reading a ``REPRO_*`` variable (or an unknown key).

    Reads are ``os.environ.get(k)``, ``os.environ[k]`` in load context,
    ``k in os.environ``, ``os.getenv(k)`` and any ``os.environ.get`` /
    ``os.getenv`` not called on the spot (an alias).  Writes, deletes
    and whole-environment copies for child processes are allowed.
    """
    lines = []
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called.add(id(node.func))
            if _is_getter(node.func) and (
                    not node.args or _repro_or_unknown(node.args[0])):
                lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and _is_environ(node.value) \
                and isinstance(node.ctx, ast.Load) \
                and _repro_or_unknown(node.slice):
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) \
                and any(_is_environ(c) for c in node.comparators) \
                and _repro_or_unknown(node.left):
            lines.append(node.lineno)
    for node in ast.walk(tree):
        if _is_getter(node) and id(node) not in called:
            lines.append(node.lineno)
    return sorted(lines)


def scanned_files():
    for top in ("src", "benchmarks", "examples"):
        yield from sorted((REPO_ROOT / top).rglob("*.py"))


class TestOneReader:
    def test_guard_catches_every_read_form(self):
        source = '''
import os
a = os.environ.get("REPRO_JOBS")
b = os.environ["REPRO_SCALE"]
c = "REPRO_OBS" in os.environ
d = os.getenv("REPRO_TRACE")
e = os.environ.get(name)
f = os.environ.get
os.environ["REPRO_TRACE"] = "0"
os.environ.pop("REPRO_FAULTS", None)
g = dict(os.environ)
h = os.environ.get("PYTHONPATH")
'''
        assert environ_reads(ast.parse(source)) == [3, 4, 5, 6, 7, 8]

    def test_only_settings_reads_repro_variables(self):
        offenders = []
        for path in scanned_files():
            rel = path.relative_to(REPO_ROOT)
            if rel == pathlib.Path("src/repro/settings.py"):
                continue
            for line in environ_reads(ast.parse(path.read_text())):
                offenders.append(f"{rel}:{line}")
        assert offenders == [], (
            "REPRO_* knobs are read only by repro.settings.Settings."
            "from_env; resolve a Settings instead: " + ", ".join(offenders))

    def test_readme_lists_exactly_the_knobs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        rows = re.findall(r"^\| `(REPRO_[A-Z_]+)`", readme, re.MULTILINE)
        assert sorted(rows) == sorted(KNOBS)
        assert len(rows) == len(set(rows))
