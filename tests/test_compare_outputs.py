"""``tools/compare_outputs.differences``, the file comparison behind the identical-outputs check."""

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root: Path, files: dict) -> Path:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    root.mkdir(exist_ok=True)
    return root


FILES = {
    "hierarchical/solve/equilibria.csv": b"lambda_star,P_star\n1,2\n",
    "hierarchical/solve/exit_code": b"0\n",
    "counterexample/scan/stdout": b"bracket [0.1, 0.2]\n",
    "top": b"x",
}


def test_identical_trees(tmp_path):
    base = _tree(tmp_path / "base", FILES)
    head = _tree(tmp_path / "head", FILES)
    assert compare_outputs.differences(base, head) == []


def test_empty_trees(tmp_path):
    assert compare_outputs.differences(_tree(tmp_path / "a", {}), _tree(tmp_path / "b", {})) == []


@pytest.mark.parametrize("rel", sorted(FILES))
def test_same_size_different_bytes(tmp_path, rel):
    # equal sizes and times, so only a comparison of the contents tells them apart
    changed = dict(FILES, **{rel: bytes(reversed(FILES[rel])) if len(FILES[rel]) > 1
                             else b"y"})
    assert len(changed[rel]) == len(FILES[rel]) and changed[rel] != FILES[rel]
    base = _tree(tmp_path / "base", FILES)
    head = _tree(tmp_path / "head", changed)
    for tree in (base, head):
        os.utime(tree / rel, ns=(10**18, 10**18))
    assert compare_outputs.differences(base, head) == ["differs: %s" % Path(rel)]


def test_files_only_in_one_tree(tmp_path):
    base = _tree(tmp_path / "base", dict(FILES, **{"hierarchical/solve/profile_001.csv": b"x"}))
    head = _tree(tmp_path / "head", dict(FILES, **{"counterexample/scan/stderr": b""}))
    assert compare_outputs.differences(base, head) == [
        "only in base: %s" % Path("hierarchical/solve/profile_001.csv"),
        "only in head: %s" % Path("counterexample/scan/stderr"),
    ]


def test_directory_only_in_one_tree(tmp_path):
    base = _tree(tmp_path / "base", FILES)
    head = _tree(tmp_path / "head", dict(FILES, **{"constant/diagnose/stdout": b"ok\n"}))
    assert compare_outputs.differences(base, head) == ["only in head: constant"]


def test_differences_in_nested_directories_are_all_listed(tmp_path):
    changed = dict(FILES)
    changed["hierarchical/solve/exit_code"] = b"1\n"
    changed["counterexample/scan/stdout"] = b"bracket [0.1, 0.3]\n"
    del changed["top"]
    base = _tree(tmp_path / "base", FILES)
    head = _tree(tmp_path / "head", changed)
    assert compare_outputs.differences(base, head) == sorted([
        "differs: %s" % Path("hierarchical/solve/exit_code"),
        "differs: %s" % Path("counterexample/scan/stdout"),
        "only in base: top",
    ])
