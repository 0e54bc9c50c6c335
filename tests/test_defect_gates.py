"""`heat` and `measure` judge the defects they report.

Every `heat` and `measure` case of `tools/cli_digest.py` runs here in
process.  A case that exits 0 must pass the gates the benchmark applies in
`perfbench/workloads.py` (SUPERTRACE_TOL, PAIRING_BOUND and the limits of
`_check_measure`), which are imported, never changed.  The cases whose
reported defects fail those gates must exit 1, with their report on stdout
as before and one error line naming the defect.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from cstar_index import cli
from cstar_index.galerkin import DEFECT_GATES
from cstar_index.measure import QuadratureConfig, defect_gates

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)

# the digest cases whose self-reported defect is above its gate, and that defect
GATED = {
    "heat --d 3 --K 5 --t 1e15 --json": "max_supertrace_deviation",
    "heat --d 0 --K 3 --t 1e308 --json": "max_supertrace_deviation",
    "measure --a 17 --m 16": "equivariance_defect",
    "measure --a 25 --m 24": "equivariance_defect",
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    return importlib.import_module("workloads")


def _run(capsys, case):
    try:
        code = cli.main(case)
    except SystemExit as exc:  # argparse refuses the arguments
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _text_defects(out):
    """The deviation and pairing defect of a human-readable heat report."""
    lines = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
    return float(lines["max_supertrace_deviation"]), float(lines["pairing_defect"])


def _problems(case, out, workloads):
    """What the benchmark's gates find wrong with one exit-0 case's stdout."""
    args = cli.build_parser().parse_args(case)
    if args.command == "measure":
        op = workloads._measure(args.a, args.m, args.cutoff, not args.skip_projector)
        return workloads._check_measure(op, out)
    if args.json:
        doc = json.loads(out)
        deviation, pairing = doc["max_supertrace_deviation"], doc["pairing_defect"]
        samples = [value for _, value in doc["supertrace"]]
        if any(abs(v - doc["index_exact"]) > workloads.SUPERTRACE_TOL for v in samples):
            return [f"{case}: samples {samples}"]
    else:
        deviation, pairing = _text_defects(out)
    if deviation > workloads.SUPERTRACE_TOL or not pairing < workloads.PAIRING_BOUND:
        return [f"{case}: deviation {deviation}, pairing {pairing}"]
    return []


def test_every_exit_zero_case_passes_the_benchmark_gates(capsys, workloads):
    cases = [case for case in cli_digest.CASES if case[0] in ("heat", "measure")]
    assert len(cases) == 70
    passed, gated, problems = [], [], []
    for case in cases:
        code, out, err = _run(capsys, case)
        if code == 0:
            passed.append(case)
            assert err == "", case
            problems += _problems(case, out, workloads)
        elif code == 1:
            gated.append(" ".join(case))
    assert problems == []
    assert len(passed) == 48
    assert sorted(gated) == sorted(GATED)


@pytest.mark.parametrize("line", list(GATED))
def test_a_defect_above_its_gate_exits_1(capsys, line):
    case = line.split()
    name = GATED[line]
    code, out, err = _run(capsys, case)
    assert code == 1
    # the report is printed in full, as when nothing judged it
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True) + "\n"
    if case[0] == "heat":
        gate = DEFECT_GATES[name]
        assert doc["index_exact"] == doc["ker_dim"] - doc["coker_dim"]
        assert doc["max_supertrace_deviation"] == max(
            abs(value - doc["index_exact"]) for _, value in doc["supertrace"]
        )
    else:
        gate = defect_gates(QuadratureConfig())[name]
        assert doc["tolerances"]["rel_tolerance"] == QuadratureConfig().rel_tolerance
    assert doc[name] > gate
    # one error line: the defect, its value and its gate
    assert err == f"error: {name} {doc[name]:.3e} is above its gate {gate:g}\n"


def test_the_gates_are_the_benchmark_gates(workloads):
    # the program's copy and the benchmark's are written apart; they agree
    assert DEFECT_GATES == {
        "max_supertrace_deviation": workloads.SUPERTRACE_TOL,
        "pairing_defect": workloads.PAIRING_BOUND,
    }
    for tol in (1e-3, 1e-6, 1e-10):
        gates = defect_gates(QuadratureConfig(rel_tolerance=tol))
        assert gates == {
            "unity_defect": 10 * tol,
            "measure_total_defect": 10 * tol,
            "monomial_defect": 1e-6,
            "idempotency_defect": 1e-6,
            "equivariance_defect": 1e-6,
        }

