"""Perf: warm cached report vs the direct simulation path.

Tracks the wall-clock advantage of the suite analytics read path: a
report whose evaluation grid is already in the content-addressed
:class:`~repro.runner.ResultCache` renders from SuiteFrame reductions
without executing a single simulation.  The acceptance bar of the
analytics refactor is a >= 3x end-to-end win over regenerating the same
report through direct (uncached) simulation -- with byte-identical
markdown, which this benchmark also re-asserts so the perf number can
never drift away from the parity contract.
"""

import time

from conftest import save_timing
from repro.analysis.report import generate_report
from repro.runner import ParallelRunner, ResultCache
from repro.workloads.generator import synthesize

#: Simulated seconds per synthetic workload (~150 control intervals).
DURATION_S = 15.0


def _workloads():
    return [
        synthesize("high", DURATION_S, threads=2, seed=7, name="syn-high"),
        synthesize("medium", DURATION_S, threads=1, seed=9, name="syn-med"),
    ]


def test_warm_report_is_3x_faster_than_direct_simulation(models, tmp_path):
    workloads = _workloads()
    kwargs = dict(models=models, workloads=workloads)

    # the direct path: serial, uncached -- every section re-simulates
    t0 = time.perf_counter()
    direct_text = generate_report(
        runner=ParallelRunner(models=models), **kwargs
    )
    direct_s = time.perf_counter() - t0

    cache_root = str(tmp_path / "report-cache")
    cold = ParallelRunner(cache=ResultCache(root=cache_root), models=models)
    generate_report(runner=cold, **kwargs)
    assert cold.stats.executed > 0

    warm = ParallelRunner(cache=ResultCache(root=cache_root), models=models)
    t0 = time.perf_counter()
    warm_text = generate_report(runner=warm, **kwargs)
    warm_s = time.perf_counter() - t0

    assert warm.stats.executed == 0, "warm report executed simulations"
    assert warm_text == direct_text, "cache changed report section values"

    speedup = direct_s / warm_s
    save_timing(
        "perf_report.txt",
        "suite analytics report, %d workloads x %.0f simulated seconds\n"
        "direct simulation path:     %8.2f s\n"
        "warm cached SuiteFrame path:%8.2f s\n"
        "speedup: %.1fx (markdown byte-identical)"
        % (len(workloads), DURATION_S, direct_s, warm_s, speedup),
    )
    assert speedup >= 3.0, "warm report only %.1fx faster" % speedup
