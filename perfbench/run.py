"""steadypop benchmark: seeded workloads driven through the public CLI.

    python3 perfbench/run.py --workload <sweep-default|fine-grid|stiff-picard>
                             --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from anywhere; the package is imported from ``src/`` next to this
directory. One process, one thread: ``steadypop.cli.main`` is called
in-process for every operation, each with its output checked against what
the workload expects (see ``workloads.EXPECT``). Passes over the workload's
command list repeat until another pass would overrun ``--seconds``. Times
are calibrated against a reference loop run next to every operation (see
``Clock``), so a machine that slows down for a while does not show as a
slower program.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics from the traced ones
(see ``spans.py``); spans of the first traced pass are written to
``.perfbench_run/<workload>-seed<n>-trace.json``. ``--smoke`` caps the
seeded grids at 20001 nodes and is for the smoke test only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
RUN_DIR = ROOT / ".perfbench_run"

VERIFY_TOL = 1e-5          # the CLI's default acceptance threshold for verify
ORACLE_MATCH = 0.5         # relative distance beyond which P* is another root
SETUP_RUNS = 9
# the reference loop's unloaded time (see Clock): the interpreter part, and
# the numpy part per array element it passes over; fitted to the loop's 5th
# percentile over 40 s at 4001 and 100001 nodes on a 2-vCPU Xeon VM
REFERENCE_PY_S = 0.63e-3
REFERENCE_NP_S = 6.9e-9
SMOKE_MAX_N = 20001        # --smoke caps seeded grids here; the rest keep their size

# a fresh interpreter pays this on every CLI invocation
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from steadypop.cli import load_config, make_context
run = load_config(sys.argv[2])
make_context(run.model, run.grid)
"""

COMMAND_METRICS = {"solve": "solve_s", "scan": "scan_s", "certify": "certify_s",
                   "diagnose": "diagnose_s", "verify": "verify_s"}


# Short commands run this many times per untraced pass; their latency is
# the median, so their per-command sums do not rest on single samples.
# Traced passes run each command once, so per-layer figures are those of
# one pass over the list.
REPEATS = {"verify": 3, "diagnose": 3}


class Clock:
    """Calibrated time: wall time scaled to the machine's speed at that moment.

    The benchmark shares its cores with other work, which can slow the whole
    process by 20-90% for seconds to minutes; medians over passes do not
    remove slow stretches that last longer than half a run. A fixed reference
    loop runs before and after every measured operation, and the operation's
    wall time is multiplied by the loop's time on an unloaded core over the
    geometric mean of the two reference times. A change to the program moves
    the operation and not the loop, so it shows in full; a slow stretch of
    the machine moves both and cancels.

    The loop mixes interpreter work with numpy calls on arrays of the
    workload's largest grid size ``n``: array-bound operations on large grids
    slow down less than interpreter-bound ones, and a loop of small arrays
    alone over-corrects them. The unloaded times were measured on a 2-vCPU
    Xeon VM, so calibrated seconds read as wall seconds there.
    """

    def __init__(self, np, n: int):
        self._np = np
        self._x = np.linspace(0.0, 1.0, n)
        self._reps = max(4, 160000 // n)   # a few ms in all at either grid size
        self._unloaded = REFERENCE_PY_S + REFERENCE_NP_S * n * self._reps
        self._last = None
        self.reference()       # the first call pays one-time costs

    def reference(self) -> float:
        np, x = self._np, self._x
        t0 = time.perf_counter()
        for _ in range(self._reps):
            y = np.exp(-np.cumsum(x) * 1e-3)
            float(np.interp(0.5, x, y))
        for _ in range(40):
            sum([float(str(i * 0.5)) for i in range(60)])
        return time.perf_counter() - t0

    def start(self) -> None:
        """Take the reference that precedes the next measured operation."""
        if self._last is None:
            self._last = self.reference()

    def calibrate(self, seconds: float) -> float:
        """Calibrated length of an operation that has just taken ``seconds``."""
        before, self._last = self._last, self.reference()
        return seconds * self._unloaded / math.sqrt(before * self._last)


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.ops = []            # (command, slot, calibrated seconds); a slot is one operation of the list
        self.failures = []       # "instance command: cause"
        self.failed_ops = 0
        self.p_errors = []       # relative P* errors against the oracles
        self.output_bytes = 0    # files written by solve and scan
        self.spans = None
        self.partial = False     # stopped at the deadline before the end of the list
        self.pending = []        # (function, arguments) of repeats still to run


def _read_equilibria(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().split("\n")[1:]
    return [float(r.split(",")[1]) for r in rows if r]


def _check_solve(inst, rc, out, out_dir, record):
    e = workloads.EXPECT[inst.family]
    causes = []
    if rc != e.solve_rc:
        causes.append("exit code %s, expected %d" % (rc, e.solve_rc))
    if ("degenerate family" in out) != e.degenerate:
        causes.append("degenerate-family message %s" % ("missing" if e.degenerate else "unexpected"))
    try:
        p_star = _read_equilibria(os.path.join(out_dir, "equilibria.csv"))
    except (OSError, ValueError, IndexError) as exc:
        return causes + ["equilibria.csv unreadable: %s" % exc], []
    if len(p_star) != e.equilibria:
        causes.append("%d equilibria, expected %d" % (len(p_star), e.equilibria))
    profiles = sorted(glob.glob(os.path.join(out_dir, "profile_*.csv")))
    if len(profiles) != len(p_star):
        causes.append("%d profiles for %d equilibria" % (len(profiles), len(p_star)))
    if inst.oracle and len(p_star) == len(inst.oracle):
        for p, o in zip(sorted(p_star), sorted(inst.oracle)):
            err = abs(p - o) / o
            record.p_errors.append(err)
            if err > ORACLE_MATCH:
                causes.append("P* = %r is not the root %r" % (p, o))
    return causes, profiles


def _check_scan(inst, rc, out, out_dir):
    e = workloads.EXPECT[inst.family]
    causes = []
    expected_rc = 0 if e.equilibria else 3
    if rc != expected_rc:
        causes.append("exit code %s, expected %d" % (rc, expected_rc))
    brackets = sum(line.startswith("bracket [") for line in out.splitlines())
    if brackets != e.equilibria:
        causes.append("%d brackets, expected %d" % (brackets, e.equilibria))
    if ("degenerate family" in out) != e.degenerate:
        causes.append("degenerate-family message %s" % ("missing" if e.degenerate else "unexpected"))
    if not os.path.isfile(os.path.join(out_dir, "scan.csv")):
        causes.append("scan.csv missing")
    return causes


def _check_certify(inst, rc, out, out_dir):
    e = workloads.EXPECT[inst.family]
    if rc != 0:
        return ["exit code %s, expected 0" % rc]
    try:
        with open(os.path.join(out_dir, "certificate.txt"), "r", encoding="utf-8") as fh:
            kind = fh.readline().strip()
    except OSError as exc:
        return ["certificate.txt unreadable: %s" % exc]
    if kind != "kind = " + e.kind:
        return ["certificate %r, expected %r" % (kind, e.kind)]
    return []


def _check_diagnose(inst, rc, out, out_dir):
    e = workloads.EXPECT[inst.family]
    if rc != 0:
        return ["exit code %s, expected 0" % rc]
    try:
        with open(os.path.join(out_dir, "diagnostics.txt"), "r", encoding="utf-8") as fh:
            rows = [line.split(",", 2)[:2] for line in fh.read().splitlines()[1:]]
    except OSError as exc:
        return ["diagnostics.txt unreadable: %s" % exc]
    verdicts = {}
    causes = []
    for check, verdict in rows:
        verdicts.setdefault(check, set()).add(verdict)
        if check != "beta_limit" and verdict == "fail":
            causes.append("%s failed" % check)
    if verdicts.get("bounds_A") != {"pass"}:
        causes.append("bounds_A %s" % sorted(verdicts.get("bounds_A", ())))
    if verdicts.get("beta_limit") != {e.beta_limit}:
        causes.append("beta_limit %s, expected %s" % (sorted(verdicts.get("beta_limit", ())), e.beta_limit))
    # translation checks run on uniform grids and are skipped on graded ones
    expected = {"pass"} if inst.uniform else {"skipped"}
    if verdicts.get("translation") != expected:
        causes.append("translation %s, expected %s" % (sorted(verdicts.get("translation", ())), sorted(expected)))
    return causes


def _check_verify(rc, out):
    if rc != 0:
        return ["verify rejected the profile solve wrote (exit code %s)" % rc]
    for line in out.splitlines():
        if line.startswith("residual_l1 = "):
            if float(line.split("=", 1)[1]) < VERIFY_TOL:
                return []
            return ["residual above %g: %s" % (VERIFY_TOL, line)]
    return ["no residual printed"]


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class Runner:
    def __init__(self, main, instances, work_dir: Path, tracer, clock: Clock):
        self.main = main
        self.instances = instances
        self.work_dir = work_dir
        self.tracer = tracer
        self.clock = clock
        self.last_seconds = {}    # (instance, command) -> seconds in the last pass

    def _op(self, record: Pass, command, slot, argv):
        buf = io.StringIO()
        err = None
        self.clock.start()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                if record.traced:
                    rc = self.tracer.span("cli.main", self.main, argv)
                else:
                    rc = self.main(argv)
            except Exception as exc:  # the CLI must not raise; count it and go on
                rc, err = None, exc
            seconds = time.perf_counter() - t0
        record.ops.append((command, slot, self.clock.calibrate(seconds)))
        return rc, buf.getvalue(), [] if err is None else ["raised %r" % err]

    def run_pass(self, traced: bool, deadline=None) -> Pass:
        """One pass over the command list.

        With a ``deadline`` the pass stops before a command (with its verify
        runs) that took longer in the previous pass than the time left.
        Repeats of short commands are spread evenly over the rest of the
        pass, so their samples do not all fall in one stretch of time.
        """
        record = Pass(traced)
        groups = [(inst, command) for inst in self.instances for command in inst.commands]
        if traced:
            self.tracer.install()
        try:
            for g, (inst, command) in enumerate(groups):
                key = (inst.name, command)
                t0 = time.perf_counter()
                # the first pass has no durations yet and always runs whole
                if deadline is not None and key in self.last_seconds \
                        and t0 + self.last_seconds[key] > deadline:
                    record.partial = True
                    return record
                self._command(record, inst, command)
                self.last_seconds[key] = time.perf_counter() - t0
                for _ in range(-(-len(record.pending) // (len(groups) - g))):
                    repeat, args = record.pending.pop(0)
                    repeat(record, *args)
        finally:
            if traced:
                self.tracer.remove()
                record.spans = self.tracer.take()
        return record

    def _command(self, record: Pass, inst, command):
        out_dir = str(self.work_dir / inst.name / command)
        profiles = self._run(record, inst, command, out_dir)
        if command in ("solve", "scan"):
            record.output_bytes += _dir_bytes(out_dir)
        self._queue(record, command, self._run, inst, command, out_dir)
        for profile in profiles:
            self._verify(record, inst, profile, out_dir)
            self._queue(record, "verify", self._verify, inst, profile, out_dir)

    @staticmethod
    def _queue(record: Pass, command, repeat, *args):
        if not record.traced:
            record.pending.extend([(repeat, args)] * (REPEATS.get(command, 1) - 1))

    def _run(self, record: Pass, inst, command, out_dir) -> list:
        """Run one command and check it; returns the profiles solve wrote."""
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        argv = [command, "--config", inst.config, "--out", out_dir]
        rc, out, causes = self._op(record, command, (inst.name, command), argv)
        profiles = []
        try:
            if command == "solve":
                solve_causes, profiles = _check_solve(inst, rc, out, out_dir, record)
                causes += solve_causes
            elif command == "scan":
                causes += _check_scan(inst, rc, out, out_dir)
            elif command == "certify":
                causes += _check_certify(inst, rc, out, out_dir)
            else:
                causes += _check_diagnose(inst, rc, out, out_dir)
        except Exception as exc:  # malformed output; count it and go on
            causes.append("check raised %r" % exc)
        self._fail(record, inst, command, causes)
        return profiles

    def _verify(self, record: Pass, inst, profile, out_dir) -> None:
        argv = ["verify", "--config", inst.config, "--profile", profile,
                "--out", out_dir + "_verify"]
        slot = (inst.name, "verify", os.path.basename(profile))
        rc, out, causes = self._op(record, "verify", slot, argv)
        try:
            causes += _check_verify(rc, out)
        except Exception as exc:  # malformed output; count it and go on
            causes.append("check raised %r" % exc)
        self._fail(record, inst, "verify", causes)

    @staticmethod
    def _fail(record: Pass, inst, command, causes):
        record.failed_ops += bool(causes)
        for cause in causes:
            record.failures.append("%s %s: %s" % (inst.name, command, cause))


def measure_setup(config: str, runs: int, clock: Clock):
    """Median calibrated time of fresh interpreters importing the CLI and loading ``config``."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), config]
    subprocess.run(argv, check=False, capture_output=True)   # byte-compile once
    times, failures = [], []
    for _ in range(runs):
        clock.start()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, check=False, capture_output=True, text=True)
        times.append(clock.calibrate(time.perf_counter() - t0))
        if proc.returncode != 0:
            failures.append("setup: exit code %d: %s" % (proc.returncode, proc.stderr.strip()[-200:]))
    return statistics.median(times), failures


def warm_up(main, work_dir: Path, n: int) -> None:
    """Run every command once, untimed, on a short scan at the largest grid size.

    Besides lazy imports this lets the allocator settle: the first arrays of a
    new size are fresh pages that fault in on first touch, which makes the
    first operation on a large grid several times slower than the rest.
    """
    cfg = work_dir / "warm_up.cfg"
    cfg.write_text("model.variant = counterexample\ngrid.x_max = 40\ngrid.n = %d\n"
                   "solver.lambda_min = 0.01\nsolver.lambda_max = 10\n"
                   "solver.scan_points = 20\n" % n, encoding="utf-8")
    out = str(work_dir / "warm_up")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in ("solve", "scan", "certify", "diagnose"):
            main([command, "--config", str(cfg), "--out", out])
        for profile in sorted(glob.glob(os.path.join(out, "profile_*.csv"))):
            main(["verify", "--config", str(cfg), "--profile", profile, "--out", out])


def tail(latencies: list):
    """Highest percentile with at least ten samples beyond it, and its value.

    Below 20 samples no percentile above the median qualifies; the median is
    reported then.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n < 20:
        return 50.0, statistics.median(lat)
    return 100.0 * (n - 10) / n, lat[n - 11]


def slot_latencies(passes) -> dict:
    """Median calibrated latency of each operation of the list over all its runs.

    Every pass runs the same operations, so the sample count of the latency
    percentiles is the number of operations in the list and does not depend
    on how many passes fit the run. Sums of these medians give the wall and
    per-command times of one pass.
    """
    samples = {}
    for p in passes:
        for command, slot, seconds in p.ops:
            samples.setdefault((command, slot), []).append(seconds)
    return {key: statistics.median(v) for key, v in samples.items()}


def end_to_end(passes, setup_s, p_errors, ok_ratio):
    latency = slot_latencies(passes)
    for (command, slot), seconds in latency.items():
        print("op %-9s %-40s %.6f s" % (command, " ".join(slot[:1] + slot[2:]), seconds))
    latencies = list(latency.values())
    pct, tail_value = tail(latencies)
    print("calibrated op latency over %d passes: p50 = %.6f s, p%.2f = %.6f s, %d operations per pass"
          % (len(passes), statistics.median(latencies), pct, tail_value, len(latencies)))
    metrics = {"wall_s": (sum(latencies), "s")}
    for command, metric in COMMAND_METRICS.items():
        metrics[metric] = (sum(v for (c, _), v in latency.items() if c == command), "s")
    metrics["op_p50_s"] = (statistics.median(latencies), "s")
    metrics["op_tail_s"] = (tail_value, "s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    # no P* could be compared only when every solve failed, and those failures are listed
    metrics["p_star_err"] = (max(p_errors, default=1.0), "ratio")
    metrics["ok_ratio"] = (ok_ratio, "ratio")
    return metrics


UNITS = {"_s": "s", ".s": "s", "_bytes": "bytes", ".bytes_computed": "bytes"}


def _unit(name: str) -> str:
    if name == "solver.iters_per_eval":
        return "iter/eval"
    if name == "solver.evals_per_root":
        return "eval/root"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(passes, failures):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    layer = [spans.layer_metrics(p.spans) for p in traced]
    for other in layer[1:]:
        for name in spans.COUNTERS:
            if other[name] != layer[0][name]:
                failures.append("trace: counter %s differs between passes: %r vs %r"
                                % (name, layer[0][name], other[name]))
    metrics = {}
    for name in layer[0]:
        values = [m[name] for m in layer]
        value = values[0] if name in spans.COUNTERS else statistics.median(values)
        metrics[name] = (value, _unit(name))
    metrics["cli.output_bytes"] = (traced[0].output_bytes, "bytes")
    metrics["trace.overhead_s"] = (sum(slot_latencies(traced).values())
                                   - sum(slot_latencies(untraced).values()), "s")
    return metrics


def write_trace(path: Path, env, metrics, record: Pass) -> None:
    s = record.spans
    doc = {
        "env": env,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "spans": {
            "name": [r[0] for r in s], "start": [r[1] for r in s],
            "end": [r[2] for r in s], "parent": [r[3] for r in s],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="cap grids at %d nodes (smoke test)" % SMOKE_MAX_N)
    args = parser.parse_args(argv)

    if not (SRC / "steadypop" / "cli.py").is_file() or not CONFIGS.is_dir():
        print("benchmark: no steadypop sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one thread: OpenBLAS would otherwise spread np.dot over large grids
    # across cores, busy-waiting between calls, and the figures would depend
    # on what else the machine runs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy
    from steadypop import _accel
    from steadypop.cli import main as cli_main

    work_dir = RUN_DIR / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        work_dir.mkdir(parents=True)
        instances = workloads.build(args.workload, args.seed, str(work_dir / "configs"),
                                    str(CONFIGS), SMOKE_MAX_N if args.smoke else 100001)
        max_n = max(inst.n for inst in instances)
        clock = Clock(numpy, max_n)
        attempted = 3 if args.smoke else SETUP_RUNS
        setup_s, failures = measure_setup(instances[0].config, attempted, clock)
        warm_up(cli_main, work_dir, max_n)

        runner = Runner(cli_main, instances, work_dir, spans.Tracer(), clock)
        passes = []
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            gc.collect()
            if not args.trace:
                # the last pass stops part-way at the deadline; every operation
                # it reached adds a sample to its median
                passes.append(runner.run_pass(False, deadline))
                if passes[-1].partial or time.perf_counter() >= deadline:
                    break
                continue
            # traced and untraced passes alternate, and only whole passes
            # count, since every traced pass must repeat the same counts
            t0 = time.perf_counter()
            passes.append(runner.run_pass(len(passes) % 2 == 1))
            if len(passes) >= 2 and time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(failures)
    for p in passes:
        failures.extend(p.failures)
        attempted += len(p.ops)
        failed += p.failed_ops
    p_errors = [e for p in passes for e in p.p_errors]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": len(passes), "python": platform.python_version(),
        "numpy": numpy.__version__, "NUMBA_ENABLED": _accel.NUMBA_ENABLED,
        "nproc": len(os.sched_getaffinity(0)),
        "grid_n": sorted({inst.n for inst in instances}),
        "instances": len(instances),
    }
    print("env: " + json.dumps(env))
    if args.trace:
        n_causes = len(failures)
        metrics = per_layer(passes, failures)
        failed += len(failures) - n_causes
        trace_path = RUN_DIR / ("%s-seed%d-trace.json" % (args.workload, args.seed))
        write_trace(trace_path, env, metrics, next(p for p in passes if p.traced))
        print("spans written to %s" % trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end(passes, setup_s, p_errors, 1.0 - failed / attempted)
    for cause in sorted(set(failures)):
        print("FAILED %s (x%d)" % (cause, failures.count(cause)))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
