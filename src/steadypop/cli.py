"""Command-line front end.

    steadypop <solve|scan|certify|diagnose|verify> --config <path>
              [--out <dir>] [--tol <real>] [--profile <path>]

Exit codes: 0 success, 1 runtime error, 2 config/input error,
3 no equilibrium found, 4 verification failure.

All numbers are written with 12 significant digits and rows are sorted, so
identical configs produce byte-identical outputs. The CLI performs no
arithmetic beyond formatting.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import warnings

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, ParameterError, SteadypopError
from .grid import DensityProfile, integrate
from .kernel import (
    birth_G,
    compactness_diagnostics,
    make_context,
    net_reproduction_R,
    residual,
)
from .model import random_onion_samples, validate_hypotheses
from .solver import certify, scan_roots, solve_all

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NO_EQUILIBRIUM = 3
EXIT_VERIFY_FAIL = 4


def _write(path: str, lines) -> None:
    # one joined write: streaming the lines of a 1e5-row profile made later
    # numpy temporaries fault in fresh pages and slowed scan and certify
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _ensure_out(run: RunConfig) -> str:
    os.makedirs(run.out_dir, exist_ok=True)
    return run.out_dir


def cmd_solve(run: RunConfig) -> int:
    ctx = make_context(run.model, run.grid)
    scan, results = solve_all(ctx, run.solver)
    out = _ensure_out(run)

    _write(os.path.join(out, "equilibria.csv"), ["lambda_star,P_star,R_at_u,residual_l1"] + [
        "%.12g,%.12g,%.12g,%.12g" % (r.lambda_star, r.P_star, r.R_at_u, r.residual_l1)
        for r in results])

    for i, r in enumerate(results, start=1):
        columns = (ctx.grid.nodes, r.u_star.values, r.v_star.values, r.pi.values,
                   ctx.e1.values, ctx.e2.values)
        _write(os.path.join(out, "profile_%03d.csv" % i), ["x,u_star,v_star,pi,e1,e2"] + [
            "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g" % row
            for row in zip(*columns)])

    if scan.degenerate:
        print("degenerate family: residual ~ 0 across the scan; no discrete roots reported")
    for r in results:
        print("equilibrium lambda_star=%.12g P_star=%.12g residual=%.12g"
              % (r.lambda_star, r.P_star, r.residual_l1))
    if not results:
        print("no positive equilibrium found in the scanned range")
        return EXIT_NO_EQUILIBRIUM
    return EXIT_OK


def cmd_scan(run: RunConfig) -> int:
    ctx = make_context(run.model, run.grid)
    scan = scan_roots(ctx, run.solver)
    out = _ensure_out(run)
    _write(os.path.join(out, "scan.csv"), ["lambda,residual,status"] + [
        "%.12g,%.12g,%s" % (lam, res, "failed" if i in scan.failed else "ok")
        for i, (lam, res) in enumerate(zip(scan.lambdas.tolist(), scan.residuals.tolist()))])
    if scan.degenerate:
        print("degenerate family: residual ~ 0 across the scan")
    for lo, hi in scan.brackets:
        print("bracket [%.12g, %.12g]" % (lo, hi))
    return EXIT_OK if scan.brackets else EXIT_NO_EQUILIBRIUM


def cmd_certify(run: RunConfig) -> int:
    ctx = make_context(run.model, run.grid)
    cert = certify(ctx, run.solver)
    out = _ensure_out(run)
    lines = [
        "kind = %s" % cert.kind,
        "R0 = %.12g" % cert.R0,
        "rho0_estimate = %s"
        % ("none" if cert.rho0_estimate is None else "%.12g" % cert.rho0_estimate),
        "M = %.12g" % cert.M,
    ]
    for key in sorted(cert.evidence):
        value = cert.evidence[key]
        if isinstance(value, tuple):
            value = " ".join("%.12g" % v if isinstance(v, float) else str(v) for v in value)
        lines.append("evidence.%s = %s" % (key, value))
    _write(os.path.join(out, "certificate.txt"), lines)
    print("certificate: %s (R0=%.12g)" % (cert.kind, cert.R0))
    return EXIT_OK


def cmd_diagnose(run: RunConfig) -> int:
    ctx = make_context(run.model, run.grid)
    rng = np.random.default_rng(run.solver.seed)
    lambdas = [10.0**k for k in range(-3, 4)]
    samples = random_onion_samples(run.model.bounds, run.grid, lambdas, 2, rng)
    report = validate_hypotheses(run.model, run.grid, samples)
    rows = list(report.rows())
    if run.grid.is_uniform:
        # a short horizon keeps only the shifts that fit inside it
        shifts = [h for h in (0.1, 0.01, 0.001) if h < run.grid.x_max]
        rows += compactness_diagnostics(ctx, samples[:6], shifts, 0.5 * run.grid.x_max).rows()
    else:
        rows.append(("translation", "skipped", "non-uniform grid has no translation diagnostics"))
    lines = ["%s,%s,%s" % (check, verdict, detail.replace(",", ";"))
             for check, verdict, detail in rows]
    out = _ensure_out(run)
    _write(os.path.join(out, "diagnostics.txt"), ["check,verdict,detail"] + lines)
    for line in lines:
        print(line)
    return EXIT_OK


def _read_profile(path: str, grid) -> DensityProfile:
    try:
        # bytes, not str: io.StringIO would hold the text at 4 bytes a character
        with open(path, "rb") as fh:
            text = io.BytesIO(fh.read().replace(b",", b" "))
        # only the first row that is not a comment may be an "x ..." header
        while True:
            start = text.tell()
            line = text.readline()
            tokens = line.split(b"#", 1)[0].split()
            if tokens or not line:
                break
        if not tokens or tokens[0].lower() != b"x":
            text.seek(start)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # no rows at all: the size check below
            data = np.loadtxt(text, comments="#", usecols=(0, 1), ndmin=2, encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ParameterError("cannot read profile %s: %s" % (path, exc))
    if len(data) < 2:
        raise ParameterError("profile file %s has fewer than 2 samples" % path)
    if not np.all(np.isfinite(data)):
        raise ParameterError("profile file %s has non-finite values" % path)
    xs, us = data[:, 0], data[:, 1]
    order = np.argsort(xs)
    return DensityProfile(grid, np.interp(grid.nodes, xs[order], us[order], left=0.0, right=0.0))


def cmd_verify(run: RunConfig, profile_path: str, tol: float) -> int:
    if not tol > 0:     # also rejects nan
        raise ParameterError("--tol must be positive, got %s" % tol)
    ctx = make_context(run.model, run.grid)
    u = _read_profile(profile_path, run.grid)
    res = residual(ctx, u)
    print("residual_l1 = %.12g" % res)
    print("R = %.12g" % net_reproduction_R(ctx, u))
    print("G = %.12g" % birth_G(ctx, u))
    print("P = %.12g" % integrate(run.grid, u))
    return EXIT_OK if res < tol else EXIT_VERIFY_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steadypop",
        description="Stationary solutions of quasilinear size-structured population models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "scan", "certify", "diagnose", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory")
        if name == "verify":
            p.add_argument("--profile", required=True, help="profile file with columns x,u")
            p.add_argument("--tol", type=float, default=1e-5,
                           help="residual threshold for acceptance")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = load_config(args.config, out_dir=args.out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "solve":
            return cmd_solve(run)
        if args.command == "scan":
            return cmd_scan(run)
        if args.command == "certify":
            return cmd_certify(run)
        if args.command == "diagnose":
            return cmd_diagnose(run)
        try:
            return cmd_verify(run, args.profile, args.tol)
        except ParameterError as exc:
            print("input error: %s" % exc, file=sys.stderr)
            return EXIT_CONFIG
    except SteadypopError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
