"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
on stdout; under plain pytest they appear in captured output on failure.
"""

import time

import numpy as np
import pytest

import steadypop as sp
from steadypop.cli import main

from conftest import write_config

CE_TEXT = """\
model.variant = counterexample
grid.x_max = 40
grid.n = 4001
grid.scheme = graded_trapezoid
solver.lambda_min = 0.01
solver.lambda_max = 10
solver.scan_points = 200
"""


class Criterion:
    """Collects sub-checks and prints a single verdict line."""

    def __init__(self, num, name):
        self.num = num
        self.name = name
        self.failures = []
        self.count = 0

    def check(self, ok, detail=""):
        self.count += 1
        if not ok:
            self.failures.append(detail or ("check #%d" % self.count))

    def conclude(self):
        ok = self.count > 0 and not self.failures
        print("[criterion %02d] %s: %s" % (self.num, self.name, "PASS" if ok else "FAIL"))
        assert ok, "criterion %d (%s) failed: %s" % (self.num, self.name, self.failures[:5])


def trapz_l1(x, values):
    """Independent trapezoid L1 norm on an arbitrary sorted abscissa."""
    v = np.abs(values)
    return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(x)))


@pytest.fixture(scope="module")
def ce_solve_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept_ce")
    cfg = write_config(base / "ce.cfg", CE_TEXT)
    out = str(base / "out")
    t0 = time.perf_counter()
    code = main(["solve", "--config", cfg, "--out", out])
    elapsed = time.perf_counter() - t0
    return cfg, out, code, elapsed


def test_criterion_01_counterexample_reproduction(ce_solve_out):
    c = Criterion(1, "counterexample two-equilibria reproduction")
    _, out, code, elapsed = ce_solve_out
    c.check(code == 0, "solve exit code %d" % code)
    c.check(elapsed < 10.0, "runtime %.2f s" % elapsed)
    eq = np.genfromtxt("%s/equilibria.csv" % out, delimiter=",", names=True, dtype=float)
    c.check(eq.shape == (2,), "expected exactly 2 equilibria, got %s" % (eq.shape,))
    lams = np.sort(eq["lambda_star"])
    c.check(abs(lams[0] - 1.0 / 6.0) < 1e-6, "lambda_star[0]=%.9f" % lams[0])
    c.check(abs(lams[1] - 1.0) < 1e-6, "lambda_star[1]=%.9f" % lams[1])
    for i, a in ((1, 1.0 / 6.0), (2, 1.0)):
        prof = np.genfromtxt("%s/profile_%03d.csv" % (out, i), delimiter=",",
                             names=True, dtype=float)
        err = trapz_l1(prof["x"], prof["u_star"] - a * np.exp(-prof["x"]))
        c.check(err < 1e-5, "|u*-%.4g e^-x|_1 = %.3g" % (a, err))
    c.conclude()


def test_criterion_02_constant_coefficient_oracle(tmp_path):
    c = Criterion(2, "constant-coefficient closed-form R and subcritical exit")
    rng = np.random.default_rng(12)
    for mu0, g0, beta0 in [(1.0, 1.0, 0.5), (2.0, 0.7, 3.0), (0.6, 1.5, 0.6),
                           (1.2, 2.0, 1.2), (3.0, 0.4, 0.3)]:
        model = sp.constant_model(mu0, g0, beta0)
        grid = sp.build_grid(sp.default_x_max(model.bounds), 4001, "graded_trapezoid")
        ctx = sp.make_context(model, grid)
        for s in sp.random_onion_samples(model.bounds, grid,
                                         [0.05, 0.3, 1.0, 4.0, 20.0], 4, rng):
            R = sp.net_reproduction_R(ctx, s)
            c.check(abs(R - beta0 / mu0) < 1e-6,
                    "R=%.9g vs %.9g (mu0=%g beta0=%g)" % (R, beta0 / mu0, mu0, beta0))
    sub = write_config(tmp_path / "sub.cfg",
                       "model.variant = constant\nmodel.mu0 = 1.0\n"
                       "model.g0 = 1.0\nmodel.beta0 = 0.5\n"
                       "grid.n = 1001\nsolver.scan_points = 16\n")
    code = main(["solve", "--config", sub, "--out", str(tmp_path / "o")])
    c.check(code == 3, "subcritical solve exit code %d" % code)
    # same subcritical ratio but with mortality increasing in population size
    inc_mu = sp.composite_model(
        g=sp.CompositeRate(const=1.0),
        mu=sp.CompositeRate(const=1.0, u_sat=0.5),
        beta=sp.CompositeRate(const=0.5),
    )
    ctx = sp.make_context(inc_mu, sp.build_grid(sp.default_x_max(inc_mu.bounds),
                                                2001, "graded_trapezoid"))
    cert = sp.certify(ctx, sp.SolverConfig())
    c.check(cert.kind == "nonexistence", "certificate kind %r" % cert.kind)
    c.conclude()


def test_criterion_03_envelope_property():
    c = Criterion(3, "envelope sandwich over 1000 random draws")
    rng = np.random.default_rng(33)
    grid = sp.build_grid(30.0, 601)
    builders = [
        lambda r: sp.constant_model(r.uniform(0.5, 2), r.uniform(0.5, 2), r.uniform(0.1, 3)),
        lambda r: sp.counterexample_model(r.uniform(0.5, 2)),
        lambda r: sp.hierarchical_model(*np.sort(r.uniform(0.3, 2, size=2)),
                                        r.uniform(0.5, 2), r.uniform(0.5, 3)),
        lambda r: sp.composite_model(
            g=sp.CompositeRate(const=r.uniform(0.5, 1), x_amp=r.uniform(0, 1)),
            mu=sp.CompositeRate(const=r.uniform(0.5, 1), u_sat=r.uniform(0, 1)),
            beta=sp.CompositeRate(const=0.0, u_inv=r.uniform(0.1, 2)),
        ),
    ]
    draws = 0
    for k in range(1000):
        model = builders[k % 4](rng)
        ctx = sp.make_context(model, grid)
        lam = 10.0 ** rng.uniform(-2, 2)
        s = list(sp.random_onion_samples(model.bounds, grid, [lam], 1, rng))[0]
        pi = sp.survival_pi(ctx, s).values
        lo_ok = np.all(pi >= ctx.e1.values * (1 - 1e-12))
        hi_ok = np.all(pi <= ctx.e2.values * (1 + 1e-12))
        c.check(lo_ok and hi_ok, "draw %d (%s) violated envelope" % (k, model.variant))
        draws += 1
    c.check(draws == 1000)
    c.conclude()


def test_criterion_04_residual_contract(ce_ctx, hier_ctx):
    c = Criterion(4, "every returned equilibrium has residual < 1e-5")
    cfg = sp.SolverConfig()
    collected = []
    for ctx in (ce_ctx, hier_ctx):
        _, results = sp.solve_all(ctx, cfg)
        collected.extend((ctx, r) for r in results)
    # secondary route: clamped joint map from near the stable equilibrium
    ce_results = [r for ctx, r in collected if ctx is ce_ctx]
    start = max(ce_results, key=lambda r: r.lambda_star)
    out = sp.iterate_map_A(ce_ctx, start.v_star, start.lambda_star,
                           sp.SolverConfig(picard_tol=1e-8))
    if isinstance(out, sp.EquilibriumResult):
        collected.append((ce_ctx, out))
    c.check(len(collected) >= 3, "expected >= 3 equilibria, got %d" % len(collected))
    for ctx, r in collected:
        res = sp.residual(ctx, r.u_star)
        c.check(res < 1e-5, "lambda*=%.6g residual=%.3g" % (r.lambda_star, res))
        c.check(r.residual_l1 < 1e-5, "reported residual %.3g" % r.residual_l1)
    c.conclude()


def test_criterion_05_hierarchical_existence_threshold():
    c = Criterion(5, "hierarchical equilibria exist iff b0/mu0 > 1")
    mu0 = 1.0
    for ratio in (0.5, 0.9, 1.1, 2.0):
        model = sp.hierarchical_model(0.5, 1.0, mu0, ratio * mu0)
        grid = sp.build_grid(sp.default_x_max(model.bounds), 4001, "graded_trapezoid")
        ctx = sp.make_context(model, grid)
        _, results = sp.solve_all(ctx, sp.SolverConfig(scan_points=64))
        if ratio > 1.0:
            c.check(len(results) == 1, "ratio %g: got %d equilibria" % (ratio, len(results)))
            if results:
                # reproduction b0/((1+P)mu0) = 1 pins P* = b0/mu0 - 1
                c.check(abs(results[0].P_star - (ratio - 1.0)) < 1e-5,
                        "ratio %g: P*=%.8g" % (ratio, results[0].P_star))
        else:
            c.check(len(results) == 0, "ratio %g: got %d equilibria" % (ratio, len(results)))
    c.conclude()


def test_criterion_06_fertility_limit(ce_ctx, hier_ctx):
    c = Criterion(6, "R(lambda e2) decays below 1e-3 over the scale sweep")
    for name, ctx in (("counterexample", ce_ctx), ("hierarchical", hier_ctx)):
        vals = [
            sp.net_reproduction_R(ctx, sp.DensityProfile(ctx.grid, lam * ctx.e2.values))
            for lam in (1.0, 10.0, 1e2, 1e3, 1e4)
        ]
        for a, b in zip(vals, vals[1:]):
            # strictly decreasing until the value underflows to exactly zero
            c.check(b < a or (a == 0.0 and b == 0.0),
                    "%s sweep not decreasing: %r" % (name, vals))
        c.check(vals[-1] < 1e-3, "%s final value %.3g" % (name, vals[-1]))
    c.conclude()


def test_criterion_07_population_bound(hier_ctx):
    c = Criterion(7, "P* <= M |e2|_1 with the closed-form M")
    cfg = sp.SolverConfig()
    cert = sp.certify(hier_ctx, cfg)
    c.check(cert.kind == "existence", "kind %r" % cert.kind)
    c.check(cert.rho0_estimate is not None, "no rho0 estimate")
    b = hier_ctx.model.bounds
    # independent closed forms for the envelope norms
    n1 = b.g_low / (b.g_high * b.mu_high)
    n2 = b.g_high / (b.g_low * b.mu_low)
    M_closed = cert.rho0_estimate / n1 + b.beta_max * n2 - 1.0
    c.check(abs(cert.M - M_closed) < 1e-10, "M=%.12g vs %.12g" % (cert.M, M_closed))
    _, results = sp.solve_all(hier_ctx, cfg)
    c.check(len(results) == 1)
    for r in results:
        c.check(r.P_star <= cert.M * n2, "P*=%.6g bound=%.6g" % (r.P_star, cert.M * n2))
    c.conclude()


def test_criterion_08_translation_bound():
    c = Criterion(8, "survival translation modulus within the explicit bound")
    rng = np.random.default_rng(88)
    models = [
        sp.constant_model(1.0, 1.0, 0.5),
        sp.counterexample_model(1.0),
        sp.hierarchical_model(0.5, 1.0, 1.0, 2.0),
        sp.composite_model(
            g=sp.CompositeRate(const=0.6, x_amp=0.6),
            mu=sp.CompositeRate(const=1.0, u_sat=0.5),
            beta=sp.CompositeRate(const=0.0, u_inv=1.0),
        ),
    ]
    for model in models:
        b = model.bounds
        grid = sp.build_grid(min(sp.default_x_max(model.bounds), 40.0), 4001)
        ctx = sp.make_context(model, grid)
        nodes = grid.nodes
        samples = list(sp.random_onion_samples(b, grid, [0.1, 0.7, 3.0, 12.0, 60.0], 2, rng))
        triples = 0
        for u in samples:  # 10 profiles x 5 (h, T) pairs = 50 triples per builtin
            pi = sp.survival_pi(ctx, u).values
            g_here = sp.model.eval_g(model, u)
            for _ in range(5):
                h = 10.0 ** rng.uniform(-3, np.log10(0.5))
                T = float(nodes[np.searchsorted(
                    nodes, rng.uniform(1.0, 0.5 * grid.x_max)) - 1])
                win = nodes <= T
                xw = nodes[win]
                pi_s = np.interp(xw + h, nodes, pi)
                g_s = np.interp(xw + h, nodes, g_here)
                measured = trapz_l1(xw, pi_s - pi[win])
                g_term = trapz_l1(xw, g_s - g_here[win])
                bound = (T * b.mu_high / b.g_low**2) * h + (T / b.g_low**2) * g_term
                c.check(measured <= bound + 1e-6 * max(1.0, bound),
                        "%s h=%.3g T=%.3g measured=%.3g bound=%.3g"
                        % (model.variant, h, T, measured, bound))
                triples += 1
        c.check(triples == 50)
    c.conclude()


def test_criterion_09_route_agreement(ce_ctx):
    c = Criterion(9, "joint-map route agrees with bisection or flags itself")
    cfg = sp.SolverConfig(lambda_min=0.01, lambda_max=10.0, scan_points=200)
    _, results = sp.solve_all(ce_ctx, cfg)
    c.check(len(results) == 2, "expected 2 bisection equilibria")
    for r in results:
        out = sp.iterate_map_A(ce_ctx, r.v_star, r.lambda_star,
                               sp.SolverConfig(picard_tol=1e-8))
        if isinstance(out, sp.EquilibriumResult):
            c.check(abs(out.lambda_star - r.lambda_star) < 1e-5,
                    "map A landed at %.8g, bisection %.8g"
                    % (out.lambda_star, r.lambda_star))
        else:
            c.check(isinstance(out, sp.MapATrace) and not out.converged,
                    "non-result return must be a flagged trace")
    c.conclude()


def test_criterion_10_determinism(ce_solve_out, tmp_path):
    c = Criterion(10, "identical configs produce byte-identical CSV outputs")
    cfg, out1, _, _ = ce_solve_out
    out2 = str(tmp_path / "rerun")
    c.check(main(["solve", "--config", cfg, "--out", out2]) == 0)
    c.check(main(["scan", "--config", cfg, "--out", out1]) == 0)
    c.check(main(["scan", "--config", cfg, "--out", out2]) == 0)
    for name in ("equilibria.csv", "profile_001.csv", "profile_002.csv", "scan.csv"):
        with open("%s/%s" % (out1, name), "rb") as fa, \
             open("%s/%s" % (out2, name), "rb") as fb:
            c.check(fa.read() == fb.read(), "%s differs between runs" % name)
    c.conclude()
