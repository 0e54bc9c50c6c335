"""The benchmark's own correctness check, run on the program in process.

`perfbench/workloads.py` generates each workload's operations and checks
their outputs against oracles written apart from the program.  Running one
seed of every workload here means a wrong output, or an operation that no
longer exits as expected, fails the tests before it fails a benchmark run.
The perfbench files are imported, never changed.
"""

import importlib
from pathlib import Path

import pytest

from cstar_index import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the one operation known to exit other than expected: the float Cholesky of
# a Gram block breaks down (exit 5) at d=20, K=26 (ROADMAP, "Spectra from
# exact orthogonal-polynomial recurrences")
KNOWN_BREAKDOWN = ("heat", 20, 26, None)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["sweep-grid", "query-stream", "heat-ladder", "measure-projector"])
def test_workload_outputs_pass_the_benchmark_check(name, workloads, tmp_path, capsys):
    ops = workloads.WORKLOADS[name](1, tmp_path)
    assert ops
    problems, unexpected = [], []
    for op in ops:
        rc = cli.main(op["argv"])
        out = capsys.readouterr().out
        if rc != op["expect_rc"]:
            unexpected.append((op["kind"], op.get("d"), op.get("K"), op.get("l"), rc))
            continue
        problems += workloads.check(op, out)
    assert problems == []
    known = [KNOWN_BREAKDOWN + (5,)] if name == "heat-ladder" else []
    assert unexpected == known
