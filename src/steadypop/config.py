"""Run configuration: flat key-value files with dotted section keys.

Unknown keys are hard errors: a silently ignored model key changes the
mathematical meaning of a run. Values are plain scalars; booleans and nesting
are deliberately absent.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, ParameterError
from .grid import UNIFORM, Grid, build_grid
from .model import (
    COMPOSITE,
    CONSTANT,
    COUNTEREXAMPLE,
    HIERARCHICAL,
    VARIANTS,
    CompositeRate,
    ModelSpec,
    composite_model,
    constant_model,
    counterexample_model,
    default_x_max,
    hierarchical_model,
)
from .solver import SolverConfig

# scalar variant -> builder; the builder's parameters are the variant's
# model.* keys, and a parameter without a default is a required key
_BUILDERS = {
    CONSTANT: constant_model,
    COUNTEREXAMPLE: counterexample_model,
    HIERARCHICAL: hierarchical_model,
}

# optional numeric fields of a composite rate; "const" is required
_COMPOSITE_NUMBERS = tuple(f.name for f in fields(CompositeRate) if type(f.default) is float)

_SOLVER_KEYS = {"solver." + f.name: (f.name, int if type(f.default) is int else float)
                for f in fields(SolverConfig)}


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    grid: Grid
    solver: SolverConfig
    out_dir: str


def _parse_pairs(text: str) -> dict:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d is not 'key = value': %r" % (lineno, raw.strip()))
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError("line %d has an empty key or value" % lineno, key=key or None)
        if key in pairs:
            raise ConfigError("duplicate key %r" % key, key=key)
        pairs[key] = value
    return pairs


def _take(pairs: dict, key: str, default, cast=float):
    """Pop ``key`` as a finite number; ``default`` None makes the key required.

    With ``cast=int`` only whole numbers pass, in any float form: "1e3" works,
    "2.7" and "inf" do not.
    """
    if key not in pairs:
        if default is None:
            raise ConfigError("missing required key %r" % key, key=key)
        return default
    raw = pairs.pop(key)
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (cast is int and not value.is_integer()):
        raise ConfigError("key %r expects a finite %s, got %r"
                          % (key, "whole number" if cast is int else "number", raw), key=key)
    return cast(value)


def _build_composite_rate(pairs: dict, rate: str) -> CompositeRate:
    prefix = "model.%s." % rate
    kwargs = {"const": _take(pairs, prefix + "const", None)}
    for sub in _COMPOSITE_NUMBERS:
        if prefix + sub in pairs:
            kwargs[sub] = _take(pairs, prefix + sub, None)
    if prefix + "functional" in pairs:
        kwargs["functional"] = pairs.pop(prefix + "functional")
    try:
        return CompositeRate(**kwargs)
    except ParameterError as exc:
        raise ConfigError("invalid composite rate %r: %s" % (rate, exc), key=prefix + exc.field)


def _build_model(pairs: dict) -> ModelSpec:
    if "model.variant" not in pairs:
        raise ConfigError("missing required key 'model.variant'", key="model.variant")
    variant = pairs.pop("model.variant")
    if variant not in VARIANTS:
        raise ConfigError(
            "key 'model.variant' must be one of %s, got %r" % (list(VARIANTS), variant),
            key="model.variant",
        )
    try:
        if variant == COMPOSITE:
            return composite_model(*(_build_composite_rate(pairs, r) for r in ("g", "mu", "beta")))
        builder = _BUILDERS[variant]
        return builder(**{
            p.name: _take(pairs, "model." + p.name, None if p.default is p.empty else p.default)
            for p in inspect.signature(builder).parameters.values()
        })
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("invalid model parameters: %s" % exc, key="model.variant")


def load_config(path: str, out_dir: str | None = None) -> RunConfig:
    """Parse a config file into validated model, grid and solver objects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    pairs = _parse_pairs(text)

    model = _build_model(pairs)

    n = _take(pairs, "grid.n", 4001, int)
    scheme = pairs.pop("grid.scheme", UNIFORM)
    x_max = _take(pairs, "grid.x_max", default_x_max(model.bounds))
    try:
        grid = build_grid(x_max=x_max, n=n, scheme=scheme)
    except ParameterError as exc:
        key = "grid." + exc.field
        raise ConfigError("invalid grid parameters: key %r: %s" % (key, exc), key=key)

    solver_kwargs = {attr: _take(pairs, key, None, cast)
                     for key, (attr, cast) in _SOLVER_KEYS.items() if key in pairs}
    try:
        solver = SolverConfig(**solver_kwargs)
    except ParameterError as exc:
        raise ConfigError("invalid solver parameters: %s" % exc, key="solver." + exc.field)

    cfg_out = pairs.pop("output.dir", "steadypop_out")
    if pairs:
        key = sorted(pairs)[0]
        raise ConfigError("unknown key %r" % key, key=key)
    return RunConfig(model=model, grid=grid, solver=solver,
                     out_dir=out_dir if out_dir is not None else cfg_out)
