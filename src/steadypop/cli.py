"""Command-line front end.

    steadypop <solve|scan|certify|diagnose|verify> --config <path> [--out <dir>]
    steadypop verify --config <path> --profile <path> [--tol <real>]

Options may come before the command. Exit codes: 0 success, 1 runtime error,
2 usage, config, input or output error, 3 no equilibrium found,
4 verification failure.

All numbers are written with 12 significant digits and rows are sorted, so
identical configs produce byte-identical outputs. The CLI performs no
arithmetic beyond formatting.
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import sys
import warnings

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, ParameterError, SteadypopError
from .grid import DensityProfile, integrate
from .kernel import (
    KernelContext,
    birth_G,
    compactness_diagnostics,
    make_context,
    net_reproduction_R,
    residual,
)
from .model import random_onion_samples, validate_hypotheses
from .solver import EquilibriumResult, certify, scan_roots, solve_all

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NO_EQUILIBRIUM = 3
EXIT_VERIFY_FAIL = 4

VERIFY_TOL = 1e-5       # verify's default --tol

# command -> the options that it alone takes; main passes their values to
# cmd_<command> after (run, ctx), looking the function up by name at each call,
# so that a wrapper bound to that name on this module (a tracer's) is the one run
COMMANDS = {"solve": (), "scan": (), "certify": (), "diagnose": (), "verify": ("profile", "tol")}


class _OutputError(Exception):
    """An output directory or file that cannot be written (exit 2)."""

    def __init__(self, path: str, exc: OSError | ValueError):
        reason = getattr(exc, "strerror", None) or exc      # a ValueError has none
        super().__init__("cannot write output %s: %s" % (path, reason))


def _write(run: RunConfig, name: str, lines) -> None:
    """Write ``lines`` to the file ``name`` in the run's output directory, creating it."""
    path, lines = run.out_dir, iter(lines)
    try:
        os.makedirs(path, exist_ok=True)
        path = os.path.join(path, name)
        with open(path, "w", encoding="utf-8") as fh:
            # bounded chunks: one join of a 1e5-row profile (~25 MB) let peak RSS hang on the heap
            while chunk := list(itertools.islice(lines, 4096)):
                fh.write("\n".join(chunk) + "\n")
    except (OSError, ValueError) as exc:
        raise _OutputError(path, exc) from exc


def cmd_solve(run: RunConfig, ctx: KernelContext) -> int:
    scan, entries = solve_all(ctx, run.solver)
    results = [r for r in entries if isinstance(r, EquilibriumResult)]
    failures = [f for f in entries if not isinstance(f, EquilibriumResult)]
    _write(run, "equilibria.csv", ["lambda_star,P_star,R_at_u,residual_l1"] + [
        "%.12g,%.12g,%.12g,%.12g" % (r.lambda_star, r.P_star, r.R_at_u, r.residual_l1)
        for r in results])

    for i, r in enumerate(results, start=1):
        rows = zip(ctx.grid.nodes, r.u_star.values, r.pi.values)
        _write(run, "profile_%03d.csv" % i,
               itertools.chain(["x,u_star,pi"], ("%.12g,%.12g,%.12g" % row for row in rows)))

    if scan.failed:
        print("scan: %d of %d points failed to converge in solver.picard_max_iter steps; "
              "roots next to them may be missed" % (len(scan.failed), len(scan.lambdas)))
    if scan.degenerate:
        print("degenerate family: residual ~ 0 across the scan; no discrete roots reported")
    for r in results:
        print("equilibrium lambda_star=%.12g P_star=%.12g residual=%.12g"
              % (r.lambda_star, r.P_star, r.residual_l1))
    for f in failures:
        print("error: bracket [%.12g, %.12g]: %s" % (*f.bracket, f.message), file=sys.stderr)
    if failures:
        return EXIT_RUNTIME
    if not results:
        print("no positive equilibrium found in the scanned range")
        return EXIT_NO_EQUILIBRIUM
    return EXIT_OK


def cmd_scan(run: RunConfig, ctx: KernelContext) -> int:
    scan = scan_roots(ctx, run.solver)
    status = dict.fromkeys(scan.failed, "failed") | dict.fromkeys(scan.proved, "proved")
    _write(run, "scan.csv", ["lambda,residual,status"] + [
        "%.12g,%.12g,%s" % (lam, res, status.get(i, "ok"))
        for i, (lam, res) in enumerate(zip(scan.lambdas.tolist(), scan.residuals.tolist()))])
    if scan.degenerate:
        print("degenerate family: residual ~ 0 across the scan")
    for lo, hi in scan.brackets:
        print("bracket [%.12g, %.12g]" % (lo, hi))
    return EXIT_OK if scan.brackets else EXIT_NO_EQUILIBRIUM


def cmd_certify(run: RunConfig, ctx: KernelContext) -> int:
    cert = certify(ctx, run.solver)
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
    _write(run, "certificate.txt", lines)
    print("certificate: %s (R0=%.12g)" % (cert.kind, cert.R0))
    return EXIT_OK


def cmd_diagnose(run: RunConfig, ctx: KernelContext) -> int:
    lambdas = [10.0**k for k in range(-3, 4)]

    def samples():
        # a fresh generator from the seed: every call yields the same 14 samples, one at a time
        rng = np.random.default_rng(run.solver.seed)
        return random_onion_samples(run.model.bounds, run.grid, lambdas, 2, rng)

    report = validate_hypotheses(ctx, samples())
    rows = list(report.rows())
    if not run.grid.is_uniform:
        rows.append(("translation", "skipped", "non-uniform grid has no translation diagnostics"))
    elif report.bounds_ok:      # the compactness bounds assume the rate bounds
        # a short horizon keeps only the shifts that fit inside it
        shifts = [h for h in (0.1, 0.01, 0.001) if h < run.grid.x_max]
        # the first six samples again, drawn afresh rather than kept
        first_six = itertools.islice(samples(), 6)
        rows += compactness_diagnostics(ctx, first_six, shifts, report.gx_window).rows()
    else:
        rows.append(("translation", "skipped", "rates leave their declared bounds (see bounds_A)"))
    lines = ["%s,%s,%s" % (check, verdict, detail.replace(",", ";"))
             for check, verdict, detail in rows]
    _write(run, "diagnostics.txt", ["check,verdict,detail"] + lines)
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
    if np.any(us < 0):
        raise ParameterError("density values must be nonnegative")
    order = np.argsort(xs)
    # np.interp can round a subnormal slope below 0 (-2.96e-323 between 9.88e-323 and 0)
    values = np.interp(grid.nodes, xs[order], us[order], left=0.0, right=0.0)
    return DensityProfile(grid, np.maximum(values, 0.0))


def cmd_verify(run: RunConfig, ctx: KernelContext, profile_path: str, tol: float) -> int:
    try:
        if not tol > 0:     # also rejects nan
            raise ParameterError("--tol must be positive, got %s" % tol)
        u = _read_profile(profile_path, run.grid)
    except ParameterError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    res, P = residual(ctx, u), integrate(run.grid, u)
    print("residual_l1 = %.12g" % res)
    print("R = %.12g" % net_reproduction_R(ctx, u))
    print("G = %.12g" % birth_G(ctx, u))
    print("P = %.12g" % P)
    # an L1 distance between densities grows with P: past P = 1 it is judged relative to P
    return EXIT_OK if res < tol * max(1.0, P) else EXIT_VERIFY_FAIL


def _build_parser() -> argparse.ArgumentParser:
    # one flat parser; main checks which options the command takes
    parser = argparse.ArgumentParser(
        prog="steadypop",
        description="Stationary solutions of quasilinear size-structured population models.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--profile", help="verify only, required: profile file with columns x,u")
    parser.add_argument("--tol", type=float,
                        help="verify only: accept when residual_l1 < TOL * max(1, P), P the "
                        "profile's integral (default %g)" % VERIFY_TOL)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    options = COMMANDS[args.command]
    if "profile" in options and args.profile is None:
        parser.error("verify requires --profile")
    for option in ("profile", "tol"):
        if option not in options and getattr(args, option) is not None:
            parser.error("--%s belongs to verify only" % option)
    if args.tol is None:
        args.tol = VERIFY_TOL
    try:
        run = load_config(args.config, out_dir=args.out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    try:
        ctx = make_context(run.model, run.grid)
        return globals()["cmd_" + args.command](run, ctx, *(getattr(args, o) for o in options))
    except _OutputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except SteadypopError as exc:
        if isinstance(exc, ParameterError) and exc.field in ("scan_points", "lambda_max"):
            # the scan grid is built only when a command scans
            print("config error: invalid solver parameters: %s" % exc, file=sys.stderr)
            return EXIT_CONFIG
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
