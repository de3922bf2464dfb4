"""Seeded workloads for the steadypop benchmark.

Each workload is a list of :class:`Instance` objects: a ``.cfg`` file in the
program's own config grammar, the CLI commands to run on it, and what a
correct run must produce. The benchmark seed is the only source of
randomness; the program sees nothing but the generated files.

Parameters are drawn by stratified sampling: with ``k`` instances of a family,
each parameter range is cut into ``k`` strata, one value is drawn in each and
the strata are shuffled independently per parameter. A pass then always covers
the whole range, so its cost varies little from seed to seed. Grid schemes are
assigned the same way, one half uniform and one half graded, so the
uniform-grid accuracy gap always shows in ``p_star_err``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

UNIFORM = "uniform_trapezoid"
GRADED = "graded_trapezoid"

# closed-form equilibrium population sizes P* of the two counterexample roots
_COUNTEREXAMPLE_P = (1.0 / 6.0, 1.0)


@dataclass(frozen=True)
class Expect:
    """What a correct run of each command produces for one model family."""

    solve_rc: int          # 0 with equilibria, 3 without
    equilibria: int        # number of equilibria solve reports (= scan brackets)
    kind: str              # certificate verdict
    beta_limit: str        # diagnose verdict of the fertility-decay check
    degenerate: bool = False


EXPECT = {
    # R = beta0/mu0 at every population: no root, and no strict monotonicity
    # for a nonexistence proof
    "constant_subcritical": Expect(3, 0, "inconclusive", "fail"),
    # R = 1 at every population: a continuum of equilibria, reported as such
    "constant_degenerate": Expect(3, 0, "inconclusive", "fail", degenerate=True),
    # R(0) = 1/2 < 1 yet two equilibria: the certificate must stay inconclusive
    "counterexample": Expect(0, 2, "inconclusive", "pass"),
    # R(0) = b0/mu0 > 1 and R -> 0 at large populations
    "hierarchical": Expect(0, 1, "existence", "pass"),
    # mortality grows with the population, R(0) < 1: strictly decreasing R
    "composite_increasing_mu": Expect(3, 0, "nonexistence", "fail"),
}


@dataclass(frozen=True)
class Instance:
    name: str              # unique within the workload; names the output directory
    family: str            # key of EXPECT
    config: str            # path of the .cfg file the CLI reads
    commands: tuple        # CLI commands in order; verify follows solve on every profile
    oracle: tuple          # closed-form P* values, empty when none is known
    n: int                 # grid nodes
    uniform: bool          # diagnose runs its translation checks on uniform grids only
    shipped: bool = False  # one of the repository's own configs


def _stratified(rng: random.Random, k: int, lo: float, hi: float, log: bool = False) -> list:
    strata = list(range(k))
    rng.shuffle(strata)
    out = []
    for s in strata:
        t = (s + rng.random()) / k
        if log:
            out.append(math.exp(math.log(lo) + t * (math.log(hi) - math.log(lo))))
        else:
            out.append(lo + t * (hi - lo))
    return out


def _schemes(rng: random.Random, k: int) -> list:
    schemes = [UNIFORM, GRADED] * (k // 2) + ([rng.choice((UNIFORM, GRADED))] if k % 2 else [])
    rng.shuffle(schemes)
    return schemes


def _num(x: float) -> str:
    return "%.6g" % x


def _config_text(pairs: dict) -> str:
    return "".join("%s = %s\n" % (k, v) for k, v in pairs.items())


def _oracle(family: str, params: dict) -> tuple:
    if family == "hierarchical":
        return (params["b0"] / params["mu0"] - 1.0,)
    if family == "counterexample":
        return _COUNTEREXAMPLE_P
    return ()


class _InstanceSet:
    """Writes generated configs and collects the workload's instances.

    Every config, generated or shipped, is read back with the program's own
    ``load_config``, so grid size, scheme and the oracle's parameters follow
    its defaults rather than a copy of them.
    """

    def __init__(self, cfg_dir: str, max_n: int):
        self.cfg_dir = cfg_dir
        self.max_n = max_n
        self.instances = []
        os.makedirs(cfg_dir, exist_ok=True)

    def add(self, name: str, family: str, pairs: dict, commands: tuple) -> None:
        pairs = {**pairs, "grid.n": str(min(int(pairs["grid.n"]), self.max_n))}
        path = os.path.join(self.cfg_dir, name + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_config_text(pairs))
        self._append(name, family, path, commands, shipped=False)

    def add_shipped(self, path: str, commands: tuple) -> None:
        family = os.path.splitext(os.path.basename(path))[0]
        self._append("shipped_" + family, family, path, commands, shipped=True)

    def _append(self, name, family, path, commands, shipped) -> None:
        from steadypop.config import load_config

        run = load_config(path)
        self.instances.append(Instance(
            name, family, path, commands, _oracle(family, run.model.params),
            run.grid.n, run.grid.is_uniform, shipped))


# -- parameter ranges, one function per family ------------------------------
# Every range keeps the instance inside the regime its family is shipped for,
# so each operation has a known correct outcome (EXPECT).


def _constant_subcritical(rng, k):
    # mu0, g0 over a factor 4 each way around 1; beta0/mu0 in [0.2, 0.8] keeps
    # R = beta0/mu0 clearly below 1, the shipped config's regime
    mu0 = _stratified(rng, k, 0.5, 2.0, log=True)
    g0 = _stratified(rng, k, 0.5, 2.0, log=True)
    ratio = _stratified(rng, k, 0.2, 0.8)
    return [{
        "model.variant": "constant", "model.mu0": _num(mu0[i]), "model.g0": _num(g0[i]),
        "model.beta0": _num(ratio[i] * mu0[i]), "grid.n": "2001", "grid.scheme": s,
        "solver.scan_points": "32",
    } for i, s in enumerate(_schemes(rng, k))]


def _constant_degenerate(rng, k):
    # beta0 = mu0 exactly. Graded grid only, as in the shipped config: on the
    # uniform grid the trapezoid bias of R (about 3e-6) exceeds root_tol = 1e-6,
    # so the scan cannot tell the family is degenerate (ROADMAP direction 4)
    mu0 = _stratified(rng, k, 0.5, 2.0, log=True)
    g0 = _stratified(rng, k, 0.5, 2.0, log=True)
    return [{
        "model.variant": "constant", "model.mu0": _num(mu0[i]), "model.g0": _num(g0[i]),
        "model.beta0": _num(mu0[i]), "grid.n": "4001", "grid.scheme": GRADED,
        "solver.scan_points": "32", "solver.root_tol": "1e-6",
    } for i in range(k)]


def _counterexample(rng, k, n, lo=0.5, hi=2.0):
    # g only rescales lambda* = g P*; the scan window [0.01, 10] of the shipped
    # config holds both roots for g in [0.5, 2]. x_max = 40 as shipped
    g = _stratified(rng, k, lo, hi, log=True)
    return [{
        "model.variant": "counterexample", "model.g": _num(g[i]), "grid.x_max": "40",
        "grid.n": str(n), "grid.scheme": s, "solver.lambda_min": "0.01",
        "solver.lambda_max": "10", "solver.scan_points": "200",
    } for i, s in enumerate(_schemes(rng, k))]


def _hierarchical(rng, k, n, g_low, b0, g_high=(1.0, 1.0), mu0=(1.0, 1.0)):
    gl = _stratified(rng, k, *g_low, log=True)
    gh = _stratified(rng, k, *g_high)
    m = _stratified(rng, k, *mu0)
    ratio = _stratified(rng, k, *b0)
    return [{
        "model.variant": "hierarchical", "model.g_low": _num(gl[i]),
        "model.g_high": _num(gh[i]), "model.mu0": _num(m[i]),
        "model.b0": _num(ratio[i] * m[i]), "grid.n": str(n), "grid.scheme": s,
        "solver.scan_points": "64",
    } for i, s in enumerate(_schemes(rng, k))]


def _composite_increasing_mu(rng, k):
    # constant growth and fertility, mortality mu.const + u_sat s/(1+s) on the
    # L1 norm s; beta/mu(0) in [0.3, 0.8] keeps R(0) < 1, and u_sat >= 0.2
    # makes the decrease of R visible to the sampled monotonicity check
    g = _stratified(rng, k, 0.5, 2.0, log=True)
    mu = _stratified(rng, k, 0.8, 1.5)
    sat = _stratified(rng, k, 0.2, 1.0)
    ratio = _stratified(rng, k, 0.3, 0.8)
    return [{
        "model.variant": "composite", "model.g.const": _num(g[i]),
        "model.mu.const": _num(mu[i]), "model.mu.u_sat": _num(sat[i]),
        "model.beta.const": _num(ratio[i] * mu[i]), "grid.n": "2001", "grid.scheme": s,
    } for i, s in enumerate(_schemes(rng, k))]


# -- workloads --------------------------------------------------------------

ALL_COMMANDS = ("solve", "scan", "certify", "diagnose")


def sweep_default(rng, b: _InstanceSet, configs_dir: str) -> None:
    """Shipped configs plus two seeded instances per family at the shipped n.

    Arrays of 2001-4001 nodes: per-call Python overhead (rate bounds checks,
    profile validation, the scan loop) decides the time, and certify, which
    runs no inner iteration, is a large share of it.
    """
    for name in sorted(os.listdir(configs_dir)):
        if name.endswith(".cfg"):
            b.add_shipped(os.path.join(configs_dir, name), ALL_COMMANDS)
    families = {
        "constant_subcritical": _constant_subcritical(rng, 2),
        "constant_degenerate": _constant_degenerate(rng, 2),
        "counterexample": _counterexample(rng, 2, 4001),
        # the shipped config's regime; g_low >= 0.45 and b0/mu0 <= 2.5 keep the
        # uniform-grid P* error below the counterexample's fixed 3.3e-5, so the
        # largest error of a pass does not hinge on the draw
        "hierarchical": _hierarchical(rng, 2, 4001, g_low=(0.45, 0.8), b0=(1.5, 2.5),
                                      g_high=(0.9, 1.1), mu0=(0.8, 1.25)),
        "composite_increasing_mu": _composite_increasing_mu(rng, 2),
    }
    for family, configs in families.items():
        for i, pairs in enumerate(configs):
            b.add("%s_%d" % (family, i), family, pairs, ALL_COMMANDS)


def fine_grid(rng, b: _InstanceSet, configs_dir: str) -> None:
    """One counterexample and one hierarchical instance at n = 100001.

    Array-bound: cumsum, exp and the hierarchical tail interpolation, plus
    19 MB of profile CSV written by solve and read back by verify. The
    counterexample runs every command on the uniform grid, where diagnose
    also runs its translation checks; the hierarchical one runs solve on the
    graded grid it ships with. Fixed schemes keep the cost of a pass from
    hanging on a coin flip, and a pass of about 8 s lets at least three fit
    in a 30 s run.
    """
    n = 100001
    # narrow g range: lambda* = g/6 keeps the bisection's absolute tolerance a
    # small, steady share of the counterexample's P* error
    pairs = _counterexample(rng, 1, n, lo=0.8, hi=1.25)[0]
    pairs["grid.scheme"] = UNIFORM
    b.add("counterexample", "counterexample", pairs, ALL_COMMANDS)
    # close to the shipped config: the Picard count, and with it the solve
    # time, stays within about 3% over these ranges
    pairs = _hierarchical(rng, 1, n, g_low=(0.5, 0.55), b0=(1.9, 2.1))[0]
    pairs["grid.scheme"] = GRADED
    b.add("hierarchical", "hierarchical", pairs, ("solve",))


def stiff_picard(rng, b: _InstanceSet, configs_dir: str) -> None:
    """Hierarchical instances whose inner iteration needs many Picard steps.

    Small g_low and large b0 make the shape iteration slow (up to ~26 steps
    per scale); solve and scan both run it, certify and diagnose do not and
    run once per pass on the reference instance only.
    """
    # ROADMAP direction 4's reference case, P* = 9: the hardest corner of the
    # ranges below on the uniform grid, so it always carries the largest P*
    # error (1.3% at n = 4001) and p_star_err does not swing with the draw
    ref = {
        "model.variant": "hierarchical", "model.g_low": "0.02", "model.g_high": "1",
        "model.mu0": "1", "model.b0": "10", "grid.n": "4001", "grid.scheme": UNIFORM,
        "solver.scan_points": "64",
    }
    b.add("reference", "hierarchical", ref, ALL_COMMANDS)
    for i, pairs in enumerate(_hierarchical(rng, 6, 4001, g_low=(0.02, 0.1), b0=(5.0, 10.0))):
        b.add("stiff_%d" % i, "hierarchical", pairs, ("solve", "scan"))


WORKLOADS = {
    "sweep-default": sweep_default,
    "fine-grid": fine_grid,
    "stiff-picard": stiff_picard,
}


def build(workload: str, seed: int, cfg_dir: str, configs_dir: str, max_n: int = 100001) -> list:
    """Instances of ``workload`` for ``seed``; the same seed gives the same files.

    ``max_n`` caps the seeded grids (the smoke test runs with a small cap).
    """
    rng = random.Random("%s:%d" % (workload, seed))
    b = _InstanceSet(cfg_dir, max_n)
    WORKLOADS[workload](rng, b, configs_dir)
    return b.instances
