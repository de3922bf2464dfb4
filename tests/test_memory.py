"""Working set of the commands that set the peak memory at large n.

numpy reports each array's data buffer to tracemalloc, so the traced peak of
one ``cli.main`` call, above what was traced when the call began, counts the
n-length float arrays the command holds at once. n = 20001 keeps every array
(160 KB) below numpy's 256 KB threshold for eliding temporaries, so the count
does not depend on whether the interpreter lets numpy elide them. A warm-up
call on a small grid keeps one-time costs (caches, lazy imports) out of it.
"""

import tracemalloc

import numpy as np
import pytest

from steadypop import cli, solver

N = 20001

DIAGNOSE_CFG = """\
model.variant = counterexample
grid.x_max = 40
grid.scheme = uniform_trapezoid
"""

SOLVE_CFG = """\
model.variant = hierarchical
model.g_low = 0.5
model.g_high = 1
model.mu0 = 1
model.b0 = 2
grid.scheme = graded_trapezoid
solver.scan_points = 16
"""


def _argv(tmp_path, command, text, n):
    cfg = tmp_path / ("n%d.cfg" % n)
    cfg.write_text(text + "grid.n = %d\n" % n)
    return [command, "--config", str(cfg), "--out", str(tmp_path / ("out%d" % n))]


def _peak_arrays(tmp_path, command, text):
    """Traced peak of ``command`` at n = N, in n-length float arrays."""
    assert cli.main(_argv(tmp_path, command, text, 201)) == 0       # warm-up
    argv = _argv(tmp_path, command, text, N)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8.0 * N)


@pytest.mark.parametrize("command, text, bound", [
    # 15.2 arrays: the grid's 3 and the context's 6, then np.interp's 3 while the
    # translation rows run; holding all 14 samples through both diagnostics read 31.1
    ("diagnose", DIAGNOSE_CFG, 17.0),
    # 20.1 arrays, the scan's kept results and the refinement's predicted starts included
    ("solve", SOLVE_CFG, 22.0),
], ids=["diagnose", "solve"])
def test_traced_peak_in_arrays(tmp_path, capsys, command, text, bound):
    arrays = _peak_arrays(tmp_path, command, text)
    capsys.readouterr()
    assert arrays <= bound, "%s held %.2f arrays of n = %d at once" % (command, arrays, N)


def test_full_scan_keeps_only_the_results_that_can_be_bracket_ends(tmp_path, capsys,
                                                                   monkeypatch):
    # with no point proved, scan solves all 16 of SOLVE_CFG's points: 19.1 arrays,
    # as when it held only the last point's result and the bracket ends; keeping
    # every result read 45.2
    monkeypatch.setattr(solver, "_proved_R_bounds",
                        lambda ctx, cfg, lams: (np.zeros(lams.shape), np.full(lams.shape, np.inf)))
    arrays = _peak_arrays(tmp_path, "scan", SOLVE_CFG)
    capsys.readouterr()
    assert arrays <= 20.0, "scan held %.2f arrays of n = %d at once" % (arrays, N)
