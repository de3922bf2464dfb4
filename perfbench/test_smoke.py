"""Smoke test of the benchmark: every workload once, seeded grids capped small.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, that no operation fails (the shipped configs are part of
sweep-default), that the work counters repeat for a repeated seed, and that
the benchmark refuses to run where the sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))   # workloads reads configs with load_config

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(script: Path, workload: str, trace: int, seed: int = 0):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=False)


def _result(workload: str, trace: int, seed: int = 0) -> dict:
    proc = _run(HERE / "run.py", workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    failures = [line for line in lines if line.startswith("FAILED")]
    assert result["correct"] and result["failed"] == 0, failures
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    expected = {m["name"]: m["unit"] for m in listed}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    if trace == 0:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counters_repeat_for_a_seed():
    first = _result("stiff-picard", 1, seed=3)["metrics"]
    second = _result("stiff-picard", 1, seed=3)["metrics"]
    for name in spans.COUNTERS:
        assert first[name]["value"] == second[name]["value"], name


def test_generator_is_seeded(tmp_path):
    def files(seed, sub):
        out = tmp_path / sub
        insts = workloads.build("sweep-default", seed, str(out), str(HERE.parent / "configs"))
        return [Path(i.config).read_text(encoding="utf-8") for i in insts if not i.shipped]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(HERE.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "perfbench" / "run.py", WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
