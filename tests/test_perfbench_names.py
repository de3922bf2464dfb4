"""The benchmark in ``perfbench/`` looks package names up by string.

A rename would otherwise surface only in its slow smoke job; these tests read
``perfbench/spans.py`` without importing it as a module, so they write nothing
there and patch nothing in the package.
"""

import importlib
import types
from pathlib import Path

import pytest

import steadypop as sp
from steadypop import _accel

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    missing = [
        "%s.%s" % (module, name)
        for module, names in _spans().FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module("steadypop." + module), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize("module,name", [
    ("cli", "main"),
    ("cli", "load_config"),
    ("cli", "make_context"),
    ("config", "load_config"),
    ("errors", "ConvergenceError"),
])
def test_names_the_runner_imports_exist(module, name):
    assert hasattr(importlib.import_module("steadypop." + module), name)


def test_attributes_the_runner_reads_exist():
    assert isinstance(_accel.NUMBA_ENABLED, bool)
    assert isinstance(sp.build_grid(1.0, 3).is_uniform, bool)
    assert callable(sp.DensityProfile.__post_init__)


def test_survival_shape_runs_the_public_cumtrapz(monkeypatch):
    # perfbench counts accel.cumtrapz by rebinding _accel.cumtrapz
    calls = []
    cumtrapz = _accel.cumtrapz

    def counted(*args):
        calls.append(1)
        return cumtrapz(*args)

    monkeypatch.setattr(_accel, "cumtrapz", counted)
    ctx = sp.make_context(sp.constant_model(1.0, 1.0, 0.5), sp.build_grid(10.0, 101))
    sp.survival_pi(ctx, sp.zero_profile(ctx.grid))
    assert len(calls) == 1
