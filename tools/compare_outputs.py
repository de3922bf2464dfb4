"""Check that two source trees give byte-identical CLI outputs.

Usage::

    python tools/compare_outputs.py BASE_SRC HEAD_SRC CONFIG [CONFIG ...]

``BASE_SRC`` and ``HEAD_SRC`` are directories that hold the ``steadypop``
package, such as two checkouts' ``src``. For each config and each tree, every
command (solve, scan, certify, diagnose) runs in a fresh interpreter, and
``verify`` runs on every profile that tree's ``solve`` wrote. Each run's exit
code, stdout and stderr are stored next to the files it wrote. Both trees run
from the same relative paths in their own work directory, so that a path in a
message matches too. The two output trees are then compared file by file.

Exits 0 when every file matches, 1 when any differs (each difference is
listed), and 2 on bad arguments. Under each file that differs, every column
whose values are numbers in both trees gets its largest relative difference,
``|a - b| / max(|a|, |b|)`` over the rows: a column of a CSV file with a
header row, or a key of ``key = value`` or ``key=value`` text such as
``verify``'s and ``solve``'s stdout. A change confined to the last digits
shows there as differences near 1e-12.
"""

from __future__ import annotations

import argparse
import filecmp
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("solve", "scan", "certify", "diagnose")


def _run(src: Path, work: Path, out: str, argv: list) -> None:
    """Run ``steadypop.cli`` from ``src`` in ``work``; store its exit code and streams in ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "steadypop.cli", *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    log = work / out
    log.mkdir(parents=True, exist_ok=True)
    (log / "exit_code").write_text("%d\n" % proc.returncode)
    (log / "stdout").write_text(proc.stdout)
    (log / "stderr").write_text(proc.stderr)


def run_tree(src: Path, work: Path, configs: list) -> None:
    """Every command on every config, plus verify on every profile solve wrote."""
    (work / "configs").mkdir(parents=True)
    for cfg in configs:
        name = cfg.stem
        shutil.copyfile(cfg, work / "configs" / cfg.name)
        config = "configs/" + cfg.name
        for command in COMMANDS:
            out = "%s/%s" % (name, command)
            _run(src, work, out, [command, "--config", config, "--out", out])
        for profile in sorted((work / name / "solve").glob("profile_*.csv")):
            out = "%s/verify_%s" % (name, profile.stem)
            rel = profile.relative_to(work).as_posix()
            _run(src, work, out, ["verify", "--config", config, "--profile", rel, "--out", out])


def differences(base: Path, head: Path) -> list:
    """Relative paths present in only one tree or whose bytes differ."""
    out = []
    stack = [filecmp.dircmp(base, head)]
    while stack:
        cmp = stack.pop()
        rel = Path(cmp.left).relative_to(base)
        out += ["only in base: %s" % (rel / n) for n in cmp.left_only]
        out += ["only in head: %s" % (rel / n) for n in cmp.right_only]
        # dircmp compares by os.stat signature first; compare contents explicitly
        _, mismatch, errors = filecmp.cmpfiles(cmp.left, cmp.right, cmp.common_files,
                                               shallow=False)
        out += ["differs: %s" % (rel / n) for n in mismatch + errors]
        stack += cmp.subdirs.values()
    return sorted(out)


def _columns(path: Path) -> dict:
    """Values per column of a CSV file with a header row, or per key of its
    ``key = value`` pairs, in file order, as strings."""
    lines = path.read_text().splitlines()
    if lines and "," in lines[0] and "=" not in lines[0]:
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        if all(len(row) == len(header) for row in rows):
            return {name: [row[i] for row in rows] for i, name in enumerate(header)}
    columns = {}
    for line in lines:
        for key, value in re.findall(r"([^\s=,]+)\s*=\s*([^\s,]+)", line):
            columns.setdefault(key, []).append(value)
    return columns


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def column_differences(base: Path, head: Path) -> dict:
    """Largest relative difference per column of two versions of a file, for each
    column with as many values in both, every one a number; empty when none is."""
    out = {}
    head_columns = _columns(head)
    for name, a in _columns(base).items():
        b = head_columns.get(name)
        if b is None or len(a) != len(b) or not a:
            continue
        try:
            out[name] = max(_relative(float(x), float(y)) for x, y in zip(a, b))
        except ValueError:         # a value that is not a number
            continue
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    parser.add_argument("configs", type=Path, nargs="+")
    args = parser.parse_args(argv)
    for src in (args.base_src, args.head_src):
        if not (src / "steadypop" / "__init__.py").is_file():
            parser.error("%s holds no steadypop package" % src)
    configs = [cfg.resolve() for cfg in args.configs]
    if len({cfg.name for cfg in configs}) != len(configs):
        parser.error("config file names must be distinct")
    root = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        for side, src in (("base", args.base_src), ("head", args.head_src)):
            run_tree(src.resolve(), root / side, configs)
        diff = differences(root / "base", root / "head")
        files = sum(len(files) for _, _, files in os.walk(root / "head"))
        report = []
        for line in diff:
            report.append(line)
            if line.startswith("differs: "):
                rel = line[len("differs: "):]
                columns = column_differences(root / "base" / rel, root / "head" / rel)
                report += ["    %s: largest relative difference %.3g" % item
                           for item in columns.items()]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for line in report:
        print(line)
    print("%d configs, %d files in head: %s" % (len(configs), files,
                                                "identical" if not diff else
                                                "%d differences" % len(diff)))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
