"""``tools/compare_outputs``: the file comparison behind the identical-outputs check and its
report of numeric differences."""

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


def _pair(tmp_path, name, base_text, head_text):
    base, head = tmp_path / "base" / name, tmp_path / "head" / name
    for path, text in ((base, base_text), (head, head_text)):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return base, head


def test_csv_columns_get_their_largest_relative_difference(tmp_path):
    base, head = _pair(tmp_path, "equilibria.csv",
                       "lambda_star,P_star,note\n1,2,a\n4,0,b\n",
                       "lambda_star,P_star,note\n1.5,2,a\n4.000001,0,c\n")
    # 0.5 / 1.5 in the first row, 1e-6 / 4.000001 in the second; note is not numeric
    assert compare_outputs.column_differences(base, head) == pytest.approx(
        {"lambda_star": 1.0 / 3.0, "P_star": 0.0})


def test_key_value_lines_get_their_largest_relative_difference(tmp_path):
    base, head = _pair(tmp_path, "stdout",
                       "residual_l1 = 1e-10\nequilibrium lambda_star=2 P_star=inf\n"
                       "equilibrium lambda_star=3 P_star=nan\nkind = existence\n",
                       "residual_l1 = 3e-10\nequilibrium lambda_star=2 P_star=1\n"
                       "equilibrium lambda_star=3.3 P_star=nan\nkind = existence\n")
    assert compare_outputs.column_differences(base, head) == pytest.approx(
        {"residual_l1": 2.0 / 3.0, "lambda_star": 0.3 / 3.3, "P_star": float("inf")})


@pytest.mark.parametrize("head_text", [
    "lambda_star,P_star\n1,2\n3,4\n",          # a row more
    "x,u_star\n1,2\n",                         # other columns
    "no numbers here\n",
])
def test_columns_that_cannot_be_paired_are_left_out(tmp_path, head_text):
    base, head = _pair(tmp_path, "f.csv", "lambda_star,P_star\n1,2\n", head_text)
    assert compare_outputs.column_differences(base, head) == {}


def test_main_lists_column_differences_and_exits_1(tmp_path, monkeypatch, capsys):
    # two trees that differ in one number of one CSV file and in one text file
    trees = {"base": dict(FILES), "head": dict(FILES)}
    trees["head"]["hierarchical/solve/equilibria.csv"] = b"lambda_star,P_star\n1,2.000002\n"
    trees["head"]["top"] = b"y"
    srcs = []
    for side in trees:
        src = tmp_path / side
        (src / "steadypop").mkdir(parents=True)
        (src / "steadypop" / "__init__.py").write_text("")
        srcs.append(str(src))
    monkeypatch.setattr(compare_outputs, "run_tree",
                        lambda src, work, configs: _tree(work, trees[src.name]))
    config = tmp_path / "h.cfg"
    config.write_text("")
    assert compare_outputs.main([*srcs, str(config)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: %s" % Path("hierarchical/solve/equilibria.csv"),
        "    lambda_star: largest relative difference 0",
        "    P_star: largest relative difference 1e-06",
        "differs: top",
        "1 configs, 4 files in head: 2 differences",
    ]
