"""End-to-end tests of the command line interface and its exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cstar_index
from cstar_index import exact, galerkin
from cstar_index.analytic import kappa
from cstar_index.cli import build_parser, main, render_sweep, sweep_rows
from cstar_index.exact import format_rational
from cstar_index.model import example_to_kawasaki, kawasaki_to_json_dict
from cstar_index.topological import hrr_term, mu_bruteforce, mu_closed


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    # a child interpreter imports cstar_index from the src directory these
    # tests import it from, whether or not the package is installed
    src = str(Path(cstar_index.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_verify_human(capsys):
    code, out, err = run_cli(capsys, ["verify", "--l", "12", "--m", "35"])
    assert code == 0
    assert "analytic_index     5" in out
    assert "agree              yes" in out
    assert err == ""


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--l", "3", "--m", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["l"] == 3 and doc["m"] == 4
    assert doc["agree"] is True
    assert doc["topological_total"] == "3"
    assert "." not in out.replace("schema_version", "")


def test_verify_rejects_bad_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--l", "two", "--m", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "l, m", [("1", "0"), ("0", "0"), ("-3", "0"), ("5", "-2")]
)
def test_verify_out_of_range_family_exits_2(capsys, l, m):
    code, out, err = run_cli(capsys, ["verify", "--l", l, "--m", m])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be an integer" in err


def test_sweep_csv_layout_and_determinism(capsys):
    argv = ["sweep", "--l-max", "4", "--m-max", "3"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["l", "m", "kappa", "hrr", "mu_closed", "mu_bruteforce", "total", "agree"]
    body = rows[1:]
    assert len(body) == 3 * 4  # l in {2,3,4}, m in {0..3}
    # l-major, m-minor ordering
    assert [r[0] for r in body[:4]] == ["2", "2", "2", "2"]
    assert [r[1] for r in body[:4]] == ["0", "1", "2", "3"]
    assert all(r[7] == "true" for r in body)
    # byte-identical across runs
    _, out2, _ = run_cli(capsys, argv)
    assert out2 == out1


def test_sweep_json(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--l-max", "3", "--m-max", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["rows"]) == 6
    first = doc["rows"][0]
    assert first["l"] == 2 and first["m"] == 0
    assert first["hrr"] == "1/2"
    assert first["mu_closed"] == "1/4"
    assert first["total"] == "1"


def _sweep_row(l, m):
    """One sweep row by the single-sum route, in Fraction arithmetic (the oracle)."""
    k = kappa(l, m)
    hrr = hrr_term(l, m)
    mu_c = mu_closed(l, m)
    mu_b = mu_bruteforce(l, m)
    total = hrr + 2 * mu_b
    return {
        "l": l,
        "m": m,
        "kappa": k,
        "hrr": format_rational(hrr),
        "mu_closed": format_rational(mu_c),
        "mu_bruteforce": format_rational(mu_b),
        "total": format_rational(total),
        "agree": (mu_c == mu_b) and (total == k),
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_matches_single_sum_rows(capsys, fmt):
    # the rows built from every residue of an order at once, in integer
    # pairs, print byte for byte what the single sums in Fractions give
    rows = [_sweep_row(l, m) for l in range(2, 41) for m in range(91)]
    code, out, err = run_cli(capsys, ["sweep", "--l-max", "40", "--m-max", "90", "--format", fmt])
    assert (code, err) == (0, "")
    assert out == render_sweep(rows, fmt)


def test_sweep_point_sums_match_verify(capsys):
    rows = sweep_rows(12, 30)
    for row in rows:
        code, out, _ = run_cli(capsys, ["verify", "--l", str(row["l"]), "--m", str(row["m"]), "--json"])
        assert code == 0
        points = json.loads(out)["topological_points"]
        assert points == [row["mu_bruteforce"]] * 2, (row["l"], row["m"])


def test_sweep_to_file_and_unwritable_path(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, ["sweep", "--l-max", "3", "--m-max", "1", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("l,m,kappa")

    bad = tmp_path / "missing_dir" / "sweep.csv"
    code, _, err = run_cli(capsys, ["sweep", "--l-max", "3", "--m-max", "1", "--out", str(bad)])
    assert code == 3
    assert "cannot write" in err


def test_kawasaki_roundtrip(tmp_path, capsys):
    spec = example_to_kawasaki(4, 5)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(kawasaki_to_json_dict(spec)))
    code, out, _ = run_cli(capsys, ["kawasaki", "--spec", str(path)])
    assert code == 0
    assert out.strip() == "kawasaki_index 3"  # kappa(4, 5) = 3

    code, out, _ = run_cli(capsys, ["kawasaki", "--spec", str(path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == "3"
    assert doc["smooth_term"] == "11/4"
    assert doc["point_contributions"] == ["1/8", "1/8"]


def test_kawasaki_validation_failures(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "smooth_term": "3/2",
        "points": [{"N": 6, "a": 2, "b": 0}],
    }))
    code, _, err = run_cli(capsys, ["kawasaki", "--spec", str(path)])
    assert code == 2
    assert "points[0]" in err

    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["kawasaki", "--spec", str(path)])
    assert code == 2

    code, _, err = run_cli(capsys, ["kawasaki", "--spec", str(tmp_path / "absent.json")])
    assert code == 2


@pytest.mark.parametrize("version", [True, 1.0])
def test_kawasaki_rejects_non_integer_schema_version(tmp_path, capsys, version):
    # True == 1 == 1.0, so only the type tells these apart from version 1
    doc = kawasaki_to_json_dict(example_to_kawasaki(4, 5))
    doc["schema_version"] = version
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["kawasaki", "--spec", str(path)])
    assert code == 2
    assert out == ""
    assert "schema_version" in err


def test_heat_full_problem(capsys):
    code, out, _ = run_cli(capsys, ["heat", "--d", "4", "--K", "3"])
    assert code == 0
    assert "index=5" in out
    assert "pairing_defect" in out


def test_heat_equivariant_block(capsys):
    code, out, _ = run_cli(capsys, ["heat", "--K", "3", "--l", "2", "--m", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 4
    assert doc["block_label"] == 0
    assert doc["index_exact"] == 3
    assert doc["max_supertrace_deviation"] < 1e-8
    assert doc["pairing_defect"] < 1e-10


def test_heat_numerical_breakdown_exit_code(capsys, monkeypatch):
    # a Gram block that is not positive definite stands in for the float
    # Cholesky breakdown of large problems (d=20, K=22 and up)
    exact_blocks = galerkin._weight_blocks

    def broken_blocks(problem):
        for weight, bs, betas, d_block, g_v, g_w in exact_blocks(problem):
            yield weight, bs, betas, d_block, tuple(-x for x in g_v), g_w

    monkeypatch.setattr(galerkin, "_weight_blocks", broken_blocks)
    code, out, err = run_cli(capsys, ["heat", "--d", "2", "--K", "1"])
    assert code == 5
    assert out == ""
    assert err.startswith("error: numerical breakdown: ")
    assert "d=2, K=1" in err


def test_heat_real_degree_cliff(capsys):
    # no patching: at d=200 the float Cholesky of the Gram blocks runs out of
    # precision (today on the 11x11 section block of weight 74); either that
    # is a typed exit 5, or a sounder method gives an accurate exit 0
    code, out, err = run_cli(capsys, ["heat", "--d", "200", "--K", "10", "--json"])
    if code == 5:
        assert out == ""
        assert err.startswith("error: numerical breakdown: ")
        assert err.count("\n") == 1
    else:
        assert code == 0, err
        doc = json.loads(out)
        assert doc["index_exact"] == 201
        assert doc["max_supertrace_deviation"] < 1e-8
        assert doc["pairing_defect"] < 1e-10


@pytest.mark.filterwarnings("error")
def test_heat_nonfinite_supertrace_exit_code(capsys):
    # rounding leaves a near-zero Laplacian eigenvalue slightly negative, and
    # at t = 1e20 its exp(-t * lambda) overflows: no Infinity may reach the
    # JSON, and no RuntimeWarning may reach stderr
    code, out, err = run_cli(capsys, ["heat", "--d", "3", "--K", "5", "--t", "1e17", "1e20", "--json"])
    assert code == 5
    assert out == ""
    assert err.startswith("error: numerical breakdown: heat supertrace at t=1e+20 is ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("l", ["1", "0", "-2"])
def test_heat_rejects_isotropy_order_below_two(capsys, l):
    code, out, err = run_cli(capsys, ["heat", "--K", "3", "--l", l, "--m", "0"])
    assert code == 2
    assert out == ""
    assert err == f"error: l must be an integer >= 2, got {l}\n"


def test_verify_order_past_the_guard_exit_code(capsys, monkeypatch):
    # an order whose point sums cannot be exact is refused with exit 5,
    # before Phi_N is built, not ended in an OverflowError traceback
    def no_build(order):
        raise AssertionError(f"Phi_{order} was built past the order guard")

    monkeypatch.setattr(exact, "cyclotomic_polynomial", no_build)
    code, out, err = run_cli(capsys, ["verify", "--l", "262145", "--m", "0"])
    assert code == 5
    assert out == ""
    assert err.startswith("error: numerical breakdown: ")
    assert "order 262145 is too large" in err
    assert err.count("\n") == 1


def test_heat_walks_the_blocks_once(capsys, monkeypatch):
    walks = []
    exact_blocks = galerkin._weight_blocks

    def counted(problem):
        walks.append(problem)
        return exact_blocks(problem)

    monkeypatch.setattr(galerkin, "_weight_blocks", counted)
    code, out, _ = run_cli(capsys, ["heat", "--d", "3", "--K", "2", "--json"])
    assert code == 0
    assert len(walks) == 1
    assert json.loads(out)["pairing_defect"] < 1e-10


def test_heat_rejects_negative_time(capsys, monkeypatch):
    def no_walk(problem):
        raise AssertionError("heat times must be checked before any block is built")

    monkeypatch.setattr(galerkin, "_weight_blocks", no_walk)
    code, out, err = run_cli(capsys, ["heat", "--d", "3", "--K", "2", "--t", "0.5", "-1"])
    assert code == 2
    assert out == ""
    assert "heat time must be nonnegative" in err


@pytest.mark.parametrize("t", ["nan", "inf", "1e400"])
def test_heat_rejects_nonfinite_time(capsys, monkeypatch, t):
    # NaN and Infinity would otherwise reach the JSON output, which has no
    # such values; a negative time is test_heat_rejects_negative_time's case
    def no_walk(problem):
        raise AssertionError("heat times must be checked before any block is built")

    monkeypatch.setattr(galerkin, "_weight_blocks", no_walk)
    code, out, err = run_cli(capsys, ["heat", "--d", "2", "--K", "2", "--t", t, "--json"])
    assert code == 2
    assert out == ""
    assert err == "error: heat time must be nonnegative and finite\n"


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["heat", "--d", "2", "--K", "1"], "galerkin", "_beta_moment"),
        (["sweep", "--l-max", "3", "--m-max", "1"], "cli", "_mu_closed_ratio"),
    ],
)
def test_program_fault_is_not_a_bad_argument(argv, module, name):
    # a ValueError raised after the arguments passed validation is a fault
    # of the program: it exits 1 with a traceback, not 2 as a bad argument
    script = (
        "import sys\n"
        f"from cstar_index import {module} as target\n"
        "def fault(*args):\n"
        "    raise ValueError('injected fault')\n"
        f"target.{name} = fault\n"
        "from cstar_index.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" in proc.stderr
    assert proc.stderr.rstrip().endswith("ValueError: injected fault")


def test_heat_argument_conflicts(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heat", "--d", "3", "--K", "2", "--l", "2", "--m", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["heat", "--K", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["heat", "--K", "2", "--l", "2"])
    assert exc.value.code == 2


def test_measure_quick_report(capsys):
    code, out, _ = run_cli(
        capsys,
        ["measure", "--a", "1", "--m", "0", "--cutoff", "hard", "--skip-projector"],
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lambda_m"] - 3 * math.pi) < 1e-5
    assert doc["unity_defect"] < 1e-5
    assert doc["idempotency_defect"] is None
    assert doc["tolerances"]["rel_tolerance"] == 1e-6


def test_measure_divergent_exit_code(capsys):
    code, _, err = run_cli(capsys, ["measure", "--a", "0.4", "--m", "1", "--skip-projector"])
    assert code == 4
    assert "divergent" in err


def test_measure_quadrature_failure_exit_code(capsys):
    # convergent (a > m/2), but the r^(-1.08) tail outlasts the window budget
    code, out, err = run_cli(capsys, ["measure", "--a", "0.52", "--m", "1", "--skip-projector"])
    assert code == 5
    assert out == ""
    assert err.startswith("error: numerical breakdown: ")
    assert "tail did not settle" in err


def test_measure_rejects_unreachable_tolerance(capsys):
    code, out, err = run_cli(
        capsys, ["measure", "--a", "1", "--m", "0", "--tol", "1e-13", "--skip-projector"]
    )
    assert code == 2
    assert out == ""
    assert "rel_tolerance must lie in" in err


def test_measure_probes_only_integrable_monomials(capsys):
    # each measure converges (a > m/2), but w^k projects through a tail
    # t^(k+m-4a-1) that is integrable only for k < 4a - m; the other probes
    # are skipped, so no rounding residue can read as a divergence
    for a, m in (("0.7", "0"), ("1.5", "2"), ("1.2", "1"), ("0.75", "0")):
        code, out, err = run_cli(capsys, ["measure", "--a", a, "--m", m])
        assert (code, err) == (0, ""), (a, m)
        doc = json.loads(out)
        for name in ("monomial_defect", "idempotency_defect", "equivariance_defect"):
            assert doc[name] < 1e-6, (a, m, name)


def test_measure_with_projector(capsys):
    code, out, _ = run_cli(
        capsys,
        ["measure", "--a", "1", "--m", "0", "--tol", "1e-4"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["idempotency_defect"] < 1e-3
    assert doc["equivariance_defect"] < 1e-3
    assert doc["monomial_defect"] < 1e-3
    assert doc["measure_total_defect"] < 1e-3


def test_one_parser_serves_repeated_calls(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    family = example_to_kawasaki(4, 5)
    spec.write_text(json.dumps(kawasaki_to_json_dict(family)))
    argvs = [
        ["verify", "--l", "12", "--m", "35", "--json"],
        ["sweep", "--l-max", "4", "--m-max", "3"],
        ["kawasaki", "--spec", str(spec), "--json"],
        ["heat", "--d", "3", "--K", "2", "--json"],
        ["measure", "--a", "1", "--m", "0", "--tol", "1e-3"],
        ["verify", "--l", "1", "--m", "0"],
    ]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    build_parser.cache_clear()
    for _ in range(2):
        for argv, want in zip(argvs, fresh):
            assert run_cli(capsys, argv) == want, argv
    assert build_parser.cache_info().misses == 1

    # the shared parser reports a bad argument on whatever stderr is current
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf), pytest.raises(SystemExit) as exc:
        main(["verify", "--l", "two", "--m", "0"])
    assert exc.value.code == 2
    assert buf.getvalue().startswith("usage: cstar-index verify")
    assert "invalid int value: 'two'" in buf.getvalue()
    assert capsys.readouterr() == ("", "")

    # the default heat times are immutable, so no call can alter the next
    args = build_parser().parse_args(["heat", "--d", "3", "--K", "2"])
    assert args.t == (0.05, 0.5, 5.0)
    with pytest.raises(AttributeError):
        args.t.append(1.0)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cstar_index.cli", "verify", "--l", "5", "--m", "7"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "agree              yes" in proc.stdout
