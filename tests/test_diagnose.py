"""``diagnose``'s sampled checks compute what does not read u once per call.

Each check is compared, bit for bit, with a plain per-sample reference kept
here: every rate, survival shape and translation evaluated afresh for each
sample, as the checks did before they reused the u-independent parts. The
samples are drawn lazily and the checks take them from any iterable.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steadypop as sp
import steadypop.kernel as kernel
from steadypop import cli
from steadypop.config import load_config
from steadypop.errors import BoundsViolationError, ParameterError
from steadypop.grid import _density_values, integrate, translate
from steadypop.kernel import TranslationRow, rates_and_survival
from steadypop.model import (
    HypothesisReport,
    _at_nodes,
    envelope_tail_mass,
    envelope_values,
    freeze_rates,
)
from test_open_model import PARAMS, _same, competition_model

LAMBDAS = [10.0**k for k in range(-3, 4)]
SHIFTS = (0.1, 0.01, 0.001)


def _nan_max(values):
    """Largest of ``values`` from 0.0, NaN when any is NaN."""
    return math.nan if any(math.isnan(v) for v in values) else max([0.0, *values])


def reference_compactness(ctx, samples, h_list, T):
    b, grid, nodes = ctx.model.bounds, ctx.grid, ctx.grid.nodes
    iT = int(np.searchsorted(nodes, T, side="right")) - 1
    T_eff = float(nodes[iT])
    wmask = grid.weights * (nodes <= T_eff)
    wtail = grid.weights * (nodes > T_eff)
    if iT + 1 < grid.n:
        wtail[iT] = 0.5 * grid.steps[iT]
    h_max = float(np.max(grid.steps))
    decay = b.mu_low / b.g_high
    norm_bound = ctx.norm_e2 + (h_max * h_max / 12.0) * decay / b.g_low
    tail_bound = (envelope_tail_mass(b, T_eff)
                  + (h_max * h_max / 12.0) * decay * math.exp(-decay * T) / b.g_low)
    g_low2 = b.g_low * b.g_low
    norm_rows, tail_rows, trans_rows, ok = [], [], [], True
    for idx, s in enumerate(samples):
        g, _, pi = rates_and_survival(ctx, _density_values(grid, s))
        g = _at_nodes(grid, g)
        l1 = integrate(grid, pi)
        norm_ok = math.isfinite(norm_bound) and l1 <= norm_bound * (1.0 + 1e-9)
        norm_rows.append((idx, l1, norm_bound, norm_ok))
        tail = float(np.dot(wtail, pi))
        tail_ok = math.isfinite(tail_bound) and tail <= tail_bound * (1.0 + 1e-9) + 1e-15
        tail_rows.append((idx, tail, tail_bound, tail_ok))
        ok = ok and norm_ok and tail_ok
        for h in h_list:
            measured = float(np.dot(wmask, np.abs(translate(grid, pi, h) - pi)))
            g_term = float(np.dot(wmask, np.abs(translate(grid, g, h) - g)))
            bound = (T_eff * b.mu_high / g_low2) * h + (T_eff / g_low2) * g_term
            row_ok = math.isfinite(bound) and measured <= bound + 1e-6 * max(1.0, bound)
            trans_rows.append(TranslationRow(idx, h, measured, bound, row_ok))
            ok = ok and row_ok
    return kernel.CompactnessReport(T_eff, tuple(norm_rows), tuple(tail_rows),
                                    tuple(trans_rows), ok)


def reference_hypotheses(ctx, samples):
    model, grid = ctx.model, ctx.grid
    b, nodes = model.bounds, grid.nodes
    T = 0.5 * grid.x_max
    frozen = freeze_rates(model, grid)
    limits = ((b.g_low, b.g_high), (b.mu_low, b.mu_high), (0.0, b.beta_max))

    def raw(u):
        return tuple(_at_nodes(grid, value) for value in frozen.rates(u))

    values = [_density_values(grid, s) for s in samples]
    terms, slopes, bounds_ok = [], [], True
    for u in values:
        g, mu, beta = raw(u)
        for value, (low, high) in zip((g, mu, beta), limits):
            terms += [float(np.max(low - value, initial=0.0)),
                      float(np.max(value - high, initial=0.0))]
            # the check every evaluation makes, NaN failing it
            bounds_ok = bounds_ok and bool(
                np.all(value >= low - 1e-12 * max(1.0, abs(low)))
                and np.all(value <= high + 1e-12 * max(1.0, abs(high))))
        gx = np.abs(np.diff(g) / grid.steps)
        slopes.append(float(np.max(gx[(nodes <= T)[:-1]], initial=0.0)))
    worst, gx_sup = _nan_max(terms), _nan_max(slopes)
    _, e2 = envelope_values(b, nodes)
    lams = (1.0, 10.0, 1e2, 1e3, 1e4)
    sweep = [float(np.max(raw(lam * e2)[2])) for lam in lams]
    nonincreasing = all(sweep[i + 1] <= sweep[i] + 1e-12 for i in range(len(sweep) - 1))
    delta = 1e-6 / max(integrate(grid, e2), 1e-300)
    responses = [float(np.max(np.abs(a1 - a0))) / max(float(np.max(np.abs(a0))), 1e-300)
                 for a0, a1 in zip(raw(values[0]), raw(values[0] + delta * e2))]
    return HypothesisReport(
        bounds_ok=bounds_ok,
        worst_bound_violation=worst, gx_window=T, gx_sup=gx_sup, lbeta_lambdas=lams,
        lbeta_values=tuple(sweep),
        lbeta_pass=nonincreasing and sweep[-1] <= 1e-3 * max(sweep[0], 1e-300),
        continuity_response=_nan_max(responses),
        notes=("verdicts are sampled evidence over the admissible set, not proofs",),
    )


MODELS = {
    "constant": sp.constant_model(1.0, 1.0, 0.5),
    "counterexample": sp.counterexample_model(1.0),
    "hierarchical": sp.hierarchical_model(**PARAMS),
    # g and beta read u, mu rises with x
    "composite": sp.composite_model(
        g=sp.CompositeRate(const=0.5, u_inv=0.5, functional="tail", tail_from=1.0),
        mu=sp.CompositeRate(const=1.0, x_amp=0.5),
        beta=sp.CompositeRate(const=0.1, u_inv=2.0)),
    # neither g nor mu reads u, yet g varies in x: pi is fixed, its g-term is not 0
    "composite_fixed_shape": sp.composite_model(
        g=sp.CompositeRate(const=0.5, x_amp=0.5, x_rate=0.3),
        mu=sp.CompositeRate(const=1.0),
        beta=sp.CompositeRate(const=0.1, u_inv=2.0, functional="weighted")),
    "competition": competition_model(0.3, **PARAMS),
}


def _context(name, n=1001):
    model = MODELS[name]
    x_max = 40.0 if name == "counterexample" else sp.default_x_max(model.bounds)
    return sp.make_context(model, sp.build_grid(x_max, n))


def _samples(ctx, seed=0):
    # cmd_diagnose's draws: two per scale 1e-3 .. 1e3
    rng = np.random.default_rng(seed)
    return list(sp.random_onion_samples(ctx.model.bounds, ctx.grid, LAMBDAS, 2, rng))


@pytest.mark.parametrize("name", sorted(MODELS))
class TestSameAsPerSample:
    def test_compactness(self, name):
        ctx = _context(name)
        T = 0.5 * ctx.grid.x_max
        samples = _samples(ctx)[:6]
        _same(sp.compactness_diagnostics(ctx, samples, SHIFTS, T),
              reference_compactness(ctx, samples, SHIFTS, T))

    def test_hypotheses(self, name):
        ctx = _context(name)
        samples = _samples(ctx)
        _same(sp.validate_hypotheses(ctx, samples), reference_hypotheses(ctx, samples))


@pytest.mark.parametrize("name, fixed", [("counterexample", True), ("constant", True),
                                         ("composite_fixed_shape", True),
                                         ("hierarchical", False), ("composite", False)])
def test_translations_per_shift(monkeypatch, name, fixed):
    ctx = _context(name)
    assert (ctx.pi is not None) == fixed
    calls = []

    def counting(grid, f, h):
        calls.append(h)
        return translate(grid, f, h)

    monkeypatch.setattr(kernel, "translate", counting)
    samples = _samples(ctx)[:6]
    sp.compactness_diagnostics(ctx, samples, SHIFTS, 0.5 * ctx.grid.x_max)
    # pi and g are each translated once per shift and shape: with a fixed pi there is one shape
    shapes = 1 if fixed else len(samples)
    assert sorted(calls) == sorted(2 * shapes * list(SHIFTS))


def test_every_sample_is_still_checked():
    # beta_max = 2 g admits f <= 1 only: a large population passes, one of size 1/2 does not
    model = dataclasses.replace(sp.counterexample_model(1.0),
                                bounds=sp.RateBounds(1.0, 1.0, 1.0, 1.0, 2.0))
    grid = sp.build_grid(40.0, 401)
    ctx = sp.make_context(model, grid)
    good, bad = (sp.DensityProfile(grid, P * np.exp(-grid.nodes)) for P in (100.0, 0.5))
    sp.net_reproduction_R(ctx, good)
    with pytest.raises(BoundsViolationError):
        sp.compactness_diagnostics(ctx, [good, bad], SHIFTS, 5.0)


def test_cold_start_returned_unchanged(ce_ctx):
    # the counterexample's envelopes meet, so a cold solve converges at its start
    result = sp.inner_picard(ce_ctx, 0.7, sp.SolverConfig())
    assert result.iterations == 1
    assert result.v is ce_ctx.start


# -- bounds_A takes the verdict of the check every evaluation makes -----------

BASE_RATES = (1.0, 1.0, 0.5)               # g, mu, beta


def _offset_bind(p, grid):
    """g = mu = 1 and beta = 0.5, except rate ``p["rate"]``, which is ``p["value"]``.

    With ``p["reads_u"]`` that rate reads u: it is ``base + (value - base) P/(1+P)``
    at population size P, a float, and nears ``value`` as P grows.
    """
    i, value = p["rate"], p["value"]
    fixed = [np.full(grid.n, base) for base in BASE_RATES]
    if not p["reads_u"]:
        fixed[i] = np.full(grid.n, value)
        fixed = tuple(fixed)
        return fixed, lambda u: fixed
    fixed[i] = None
    fixed = tuple(fixed)

    def rates(u):
        P = integrate(grid, u)
        out = list(fixed)
        out[i] = BASE_RATES[i] + (value - BASE_RATES[i]) * (P / (1.0 + P))
        return tuple(out)

    return fixed, rates


def _offset_beta_sup(p, P):
    return max(BASE_RATES[2], p["value"]) if p["rate"] == 2 else BASE_RATES[2]


def _offset_context(rate, value, reads_u, beta_max):
    bounds = sp.RateBounds(g_low=1.0, g_high=1.0, mu_low=1.0, mu_high=1.0, beta_max=beta_max)
    model = sp.ModelSpec("offset", bounds, {"rate": rate, "value": value, "reads_u": reads_u},
                         _offset_bind, _offset_beta_sup)
    return sp.make_context(model, sp.build_grid(sp.default_x_max(bounds), 201))


def _every_evaluation_passes(ctx, samples):
    try:
        for s in samples:
            ctx.rates.checked(_density_values(ctx.grid, s))
    except BoundsViolationError:
        return False
    return True


@pytest.mark.parametrize("reads_u", [False, True], ids=["fixed", "reads_u"])
def test_excess_within_a_larger_bound_tolerance_fails(reads_u):
    # 5e-7 past g_high = 1 is far past g's own tolerance, 1e-12, yet within
    # 1e-12 * beta_max = 1e-6, so a tolerance shared by all rates would pass it
    ctx = _offset_context(0, 1.0 + 5e-7, reads_u, beta_max=1e6)
    samples = _samples(ctx)
    message = r"^g evaluated outside declared bounds \[1, 1\]$"
    with pytest.raises(BoundsViolationError, match=message):
        sp.net_reproduction_R(ctx, samples[-1])
    report = sp.validate_hypotheses(ctx, samples)
    assert next(report.rows())[:2] == ("bounds_A", "fail")
    assert report.worst_bound_violation == pytest.approx(5e-7, rel=1e-2)


@settings(max_examples=60, deadline=None)
@given(rate=st.sampled_from([0, 1, 2]), high=st.booleans(), reads_u=st.booleans(),
       beta_max=st.sampled_from([1.0, 1e6]), k=st.floats(-3.0, 3.0))
def test_bounds_row_passes_exactly_when_every_evaluation_does(rate, high, reads_u, beta_max, k):
    # rate is put k tolerances past one of its declared bounds
    low_bound, high_bound = ((1.0, 1.0), (1.0, 1.0), (0.0, beta_max))[rate]
    bound = high_bound if high else low_bound
    ctx = _offset_context(rate, bound + k * 1e-12 * max(1.0, bound), reads_u, beta_max)
    samples = _samples(ctx)
    report = sp.validate_hypotheses(ctx, samples)
    assert report.bounds_ok == _every_evaluation_passes(ctx, samples)
    # no excess at all passes, and a failing row has one
    assert report.bounds_ok or report.worst_bound_violation > 0


def test_diagnose_binds_the_model_once(monkeypatch, tmp_path):
    configs = Path(__file__).resolve().parent.parent / "configs"
    for cfg in sorted(configs.glob("*.cfg")):
        binds = []
        for name in ("_constant", "_counterexample", "_hierarchical", "_composite"):
            def counted(p, grid, bind=getattr(sp.model, name)):
                binds.append(grid.n)
                return bind(p, grid)

            monkeypatch.setattr(sp.model, name, counted)
        assert cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
        assert len(binds) == 1, cfg.name
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["composite_increasing_mu", "constant_degenerate",
                                  "counterexample", "hierarchical"])
def test_translation_rows_pass_on_graded_shipped_configs(name):
    # translate needs no uniform spacing; these are cmd_diagnose's samples, shifts and T
    run = load_config(str(Path(__file__).resolve().parent.parent / "configs" / (name + ".cfg")))
    assert not run.grid.is_uniform
    ctx = sp.make_context(run.model, run.grid)
    samples = _samples(ctx, run.solver.seed)[:6]
    rows = sp.compactness_diagnostics(ctx, samples, SHIFTS, 0.5 * run.grid.x_max).translation_rows
    assert len(rows) == 18
    assert all(row.ok for row in rows)


# -- samples are drawn one at a time and taken from any iterable ---------------


def _reference_samples(bounds, grid, lambdas, per_lambda, rng):
    """The onion samples as a list, drawn as the sampler drew them when it built one."""
    e1, e2 = envelope_values(bounds, grid.nodes)
    out = []
    for lam in lambdas:
        for _ in range(per_lambda):
            r = rng.random(grid.n)
            out.append(sp.DensityProfile(grid, lam * (e1 + r * (e2 - e1))))
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
def test_lazy_draws_match_the_eager_list(name):
    ctx = _context(name)
    rng = np.random.default_rng(3)
    samples = sp.random_onion_samples(ctx.model.bounds, ctx.grid, LAMBDAS, 2, rng)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
    reference = _reference_samples(ctx.model.bounds, ctx.grid, LAMBDAS, 2,
                                   np.random.default_rng(3))
    drawn = list(samples)
    assert len(drawn) == len(reference) == 14
    for s, ref in zip(drawn, reference):
        assert s.grid is ctx.grid
        np.testing.assert_array_equal(s.values, ref.values)
    assert list(samples) == []          # a generator: its samples are drawn once


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_nonpositive_scale_raises_at_the_call_before_any_draw(lam):
    ctx = _context("constant")
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="scale must be positive"):
        sp.random_onion_samples(ctx.model.bounds, ctx.grid, [1.0, 10.0, lam], 2, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


CHECKS = {
    "validate_hypotheses": sp.validate_hypotheses,
    "compactness_diagnostics":
        lambda ctx, samples: sp.compactness_diagnostics(ctx, samples, SHIFTS,
                                                        0.5 * ctx.grid.x_max),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("empty", [[], (), iter([])], ids=["list", "tuple", "iterator"])
def test_no_samples_raise(check, empty):
    with pytest.raises(ParameterError, match="need at least one onion sample"):
        CHECKS[check](_context("counterexample"), empty)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_one_shot_generator_gives_the_list_report(name, check):
    ctx = _context(name)
    samples = _samples(ctx)[:6] if check == "compactness_diagnostics" else _samples(ctx)
    consumed = []

    def one_shot():
        for s in samples:
            consumed.append(s)
            yield s

    _same(CHECKS[check](ctx, one_shot()), CHECKS[check](ctx, samples))
    assert len(consumed) == len(samples)


def test_diagnose_rows_come_from_the_seeded_samples(tmp_path, capsys):
    # cmd_diagnose draws its compactness samples afresh: the same six it checked first
    cfg = Path(__file__).resolve().parent.parent / "configs" / "constant_subcritical.cfg"
    run = load_config(str(cfg))
    assert run.grid.is_uniform
    ctx = sp.make_context(run.model, run.grid)
    samples = _samples(ctx, run.solver.seed)
    report = sp.validate_hypotheses(ctx, samples)
    rows = list(report.rows()) + list(sp.compactness_diagnostics(
        ctx, samples[:6], SHIFTS, report.gx_window).rows())
    assert cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    expected = ["%s,%s,%s" % (check, verdict, detail.replace(",", ";"))
                for check, verdict, detail in rows]
    assert capsys.readouterr().out.splitlines() == expected


def test_translation_bounds_over_an_underflowed_g_low_squared_fail(tmp_path, capsys):
    # g_low = 1e-300: g_low^2 is 0, and diagnose divided by it; solve and scan keep
    # their config error, since the default scan range overflows too
    cfg = tmp_path / "tiny_g.cfg"
    cfg.write_text("model.variant = composite\nmodel.g.const = 1e-300\nmodel.g.x_amp = 1e-5\n"
                   "model.mu.const = 1\nmodel.mu.u_sat = 1e5\nmodel.beta.const = 0.5\n"
                   "model.beta.x_amp = 1e5\ngrid.n = 51\n")
    argv = ["--config", str(cfg), "--out", str(tmp_path / "o")]
    assert cli.main(["diagnose", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()]
    verdicts = {check: {verdict for c, verdict, _ in rows if c == check}
                for check in ("l1_bound", "tail_decay", "translation")}
    assert verdicts == {"l1_bound": {"pass"}, "tail_decay": {"pass"}, "translation": {"fail"}}
    assert all(detail.endswith(" bound=inf") for check, _, detail in rows
               if check == "translation")
    for command in ("solve", "scan"):
        assert cli.main([command, *argv]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: invalid solver parameters: the default lambda_max")
