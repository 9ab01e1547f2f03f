"""One checked pass of every benchmark workload.

`perfbench/run.py` times the workloads of `perfbench/workloads.py` and
refuses a run whose pass raises or whose outputs fail the workload's checks
against `perfbench/oracle.py`.  This test imports those two files, leaves
them untouched, and runs one pass of each workload at seed 1, so a package
change that the benchmark would refuse (a removed name that a workload
calls, or an output that its oracle rejects) fails here too.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_workloads():
    # workloads.py imports its oracle as the top-level module `oracle`
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))


WORKLOADS = benchmark_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_is_correct(name, tmp_path):
    work = WORKLOADS[name](1, tmp_path)
    outputs = work.outputs([call() for call in work.calls()])
    notes = []
    assert work.check(outputs, notes) == 0, notes
