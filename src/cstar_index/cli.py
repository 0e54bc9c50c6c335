"""Command line front end.

Subcommands:

    verify    one (l, m) identity check, human-readable or JSON
    sweep     grid of identity checks as CSV or JSON, optionally to a file
    kawasaki  evaluate a serialized Kawasaki spec exactly
    heat      truncated dbar complex: exact index and heat supertrace
    measure   fiber measure diagnostics: mass, unity, projector axioms

Exit codes: 0 success, 1 an identity check disagreed, 2 argument or spec
validation errors, 3 unwritable output path, 4 divergent measure parameters,
5 numerical breakdown (the float Gram factorization in heat failed, or a
measure quadrature did not converge within its budget).  Any other error is
a fault of the program and ends in a traceback with Python's exit status 1.

Output is deterministic: no timestamps, sorted JSON keys, '\n' line endings,
and rationals rendered as decimal-free p/q strings.  The float digits that
heat prints come from BLAS and depend on its thread count, so they repeat
run to run only with that count fixed (e.g. OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import lru_cache

from .analytic import _check_family_args, kappa
from .exact import format_rational, lefschetz_point_sum
from .galerkin import (
    EquivariantRestriction,
    GalerkinProblem,
    NumericalBreakdown,
    supertrace,
)
from .measure import (
    Cutoff,
    DivergenceDetected,
    FiberMeasureParams,
    QuadratureConfig,
    QuadratureError,
    lambda_m,
    projector_axioms_check,
    unity_check,
)
from .model import SCHEMA_VERSION, ValidationError, kawasaki_from_json_dict
from .topological import hrr_term, kawasaki_index, mu_bruteforce, mu_closed, verify_identity

__all__ = [
    "SweepConfig",
    "cmd_verify",
    "cmd_sweep",
    "cmd_kawasaki",
    "cmd_heat",
    "cmd_measure",
    "main",
]

@dataclass(frozen=True)
class SweepConfig:
    l_max: int
    m_max: int
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.l_max, int) or self.l_max < 2:
            raise ValueError("l_max must be an integer >= 2")
        if not isinstance(self.m_max, int) or self.m_max < 0:
            raise ValueError("m_max must be an integer >= 0")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        _check_family_args(args.l, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify_identity(args.l, args.m)
    if args.json:
        doc = {"schema_version": SCHEMA_VERSION, "l": args.l, "m": args.m}
        doc.update(report.to_json_dict())
        print(json.dumps(doc, sort_keys=True))
    else:
        points = " ".join(format_rational(q) for q in report.topological_points)
        print(f"l={args.l} m={args.m}")
        print(f"analytic_index     {report.analytic_index}")
        print(f"topological_smooth {format_rational(report.topological_smooth)}")
        print(f"topological_points {points}")
        print(f"topological_total  {format_rational(report.topological_total)}")
        print(f"agree              {'yes' if report.agree else 'no'}")
    return 0 if report.agree else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_row(l: int, m: int) -> dict:
    k = kappa(l, m)
    hrr = hrr_term(l, m)
    mu_c = mu_closed(l, m)
    mu_b = mu_bruteforce(l, m)
    total = hrr + 2 * mu_b
    agree = (mu_c == mu_b) and (total == k)
    return {
        "l": l,
        "m": m,
        "kappa": k,
        "hrr": hrr,
        "mu_closed": mu_c,
        "mu_bruteforce": mu_b,
        "total": total,
        "agree": agree,
    }


def sweep_rows(config: SweepConfig) -> list[dict]:
    """All grid rows, l-major then m-minor."""
    return [
        _sweep_row(l, m)
        for l in range(2, config.l_max + 1)
        for m in range(0, config.m_max + 1)
    ]


_CSV_COLUMNS = ("l", "m", "kappa", "hrr", "mu_closed", "mu_bruteforce", "total", "agree")


def render_sweep(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row["l"],
                    row["m"],
                    row["kappa"],
                    format_rational(row["hrr"]),
                    format_rational(row["mu_closed"]),
                    format_rational(row["mu_bruteforce"]),
                    format_rational(row["total"]),
                    "true" if row["agree"] else "false",
                ]
            )
        return buf.getvalue()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rows": [
            {
                "l": row["l"],
                "m": row["m"],
                "kappa": row["kappa"],
                "hrr": format_rational(row["hrr"]),
                "mu_closed": format_rational(row["mu_closed"]),
                "mu_bruteforce": format_rational(row["mu_bruteforce"]),
                "total": format_rational(row["total"]),
                "agree": row["agree"],
            }
            for row in rows
        ],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def cmd_sweep(args) -> int:
    try:
        config = SweepConfig(l_max=args.l_max, m_max=args.m_max, fmt=args.format, out=args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = sweep_rows(config)
    text = render_sweep(rows, config.fmt)
    if config.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
            return 3
    return 0 if all(row["agree"] for row in rows) else 1


# ---------------------------------------------------------------------------
# kawasaki
# ---------------------------------------------------------------------------


def cmd_kawasaki(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.spec} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        spec = kawasaki_from_json_dict(doc)
    except ValidationError as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return 2
    total = kawasaki_index(spec)
    if args.json:
        contributions = [
            format_rational(
                lefschetz_point_sum(p.isotropy_order, p.normal_weight, p.bundle_weight)
            )
            for p in spec.points
        ]
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "smooth_term": format_rational(spec.smooth_term),
                    "point_contributions": contributions,
                    "total": format_rational(total),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"kawasaki_index {format_rational(total)}")
    return 0


# ---------------------------------------------------------------------------
# heat
# ---------------------------------------------------------------------------


def cmd_heat(args, parser: argparse.ArgumentParser) -> int:
    restriction = None
    d = args.d
    if (args.l is None) != (args.m is None):
        parser.error("--l and --m must be given together")
    if args.l is not None:
        if d is None:
            d = 2 * args.m
        elif d != 2 * args.m:
            parser.error(f"--d must equal 2*m = {2 * args.m} for the equivariant block")
        restriction = EquivariantRestriction(l=args.l, label=args.m % args.l)
    if d is None:
        parser.error("--d is required unless --l/--m are given")
    try:
        problem = GalerkinProblem(d=d, K=args.K, equivariance=restriction)
        if any(t < 0 for t in args.t):
            raise ValueError("heat time must be nonnegative")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = supertrace(problem, tuple(args.t))
    except NumericalBreakdown as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return 5
    pairing = report.pairing_defect
    deviation = max(
        (abs(value - report.index_exact) for _, value in report.supertrace_samples),
        default=0.0,
    )
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "d": d,
            "K": args.K,
            "dim_V": report.dim_V,
            "dim_W": report.dim_W,
            "ker_dim": report.ker_dim,
            "coker_dim": report.coker_dim,
            "index_exact": report.index_exact,
            "block_label": report.block_label,
            "supertrace": [[t, value] for t, value in report.supertrace_samples],
            "max_supertrace_deviation": deviation,
            "pairing_defect": pairing,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"d={d} K={args.K}" + ("" if restriction is None else f" block={report.block_label} mod {args.l}"))
        print(f"dim_V={report.dim_V} dim_W={report.dim_W}")
        print(f"ker={report.ker_dim} coker={report.coker_dim} index={report.index_exact}")
        for t, value in report.supertrace_samples:
            print(f"supertrace(t={t:g}) = {value:.12f}")
        print(f"max_supertrace_deviation {deviation:.3e}")
        print(f"pairing_defect {pairing:.3e}")
    return 0


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def cmd_measure(args) -> int:
    try:
        params = FiberMeasureParams(
            a=args.a, m=args.m, cutoff=Cutoff(args.cutoff), allow_divergent=True
        )
        quad = QuadratureConfig(
            rel_tolerance=args.tol, angular_nodes=args.angular_nodes
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        lam = lambda_m(params, quad)
        unity = unity_check(params, quad)
        if args.skip_projector:
            axioms = None
        else:
            axioms = projector_axioms_check(params, quad)
    except DivergenceDetected as exc:
        print(f"error: divergent measure: {exc}", file=sys.stderr)
        return 4
    except QuadratureError as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return 5
    doc = {
        "lambda_m": lam,
        "unity_defect": abs(unity - 1.0),
        "idempotency_defect": None if axioms is None else axioms.idempotency_defect,
        "equivariance_defect": None if axioms is None else axioms.equivariance_defect,
        "monomial_defect": None if axioms is None else axioms.monomial_defect,
        "measure_total_defect": None if axioms is None else axioms.measure_total_defect,
        "tolerances": {
            "rel_tolerance": quad.rel_tolerance,
            "max_subdivisions": quad.max_subdivisions,
            "angular_nodes": quad.angular_nodes,
        },
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="cstar-index",
        description="Exact and numerical index checks for equivariant line bundles over orbifold curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check one (l, m) index identity")
    p_verify.add_argument("--l", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")

    p_sweep = sub.add_parser("sweep", help="grid of identity checks")
    p_sweep.add_argument("--l-max", dest="l_max", type=int, required=True)
    p_sweep.add_argument("--m-max", dest="m_max", type=int, required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)

    p_kawasaki = sub.add_parser("kawasaki", help="evaluate a serialized spec")
    p_kawasaki.add_argument("--spec", required=True)
    p_kawasaki.add_argument("--json", action="store_true")

    p_heat = sub.add_parser("heat", help="dbar complex index and supertrace")
    p_heat.add_argument("--d", type=int, default=None)
    p_heat.add_argument("--K", type=int, required=True)
    p_heat.add_argument("--l", type=int, default=None)
    p_heat.add_argument("--m", type=int, default=None)
    p_heat.add_argument("--t", type=float, nargs="+", default=(0.05, 0.5, 5.0))
    p_heat.add_argument("--json", action="store_true")

    p_measure = sub.add_parser("measure", help="fiber measure diagnostics")
    p_measure.add_argument("--a", type=float, required=True)
    p_measure.add_argument("--m", type=int, required=True)
    p_measure.add_argument("--cutoff", choices=("smooth", "hard"), default="smooth")
    p_measure.add_argument("--tol", type=float, default=1e-6)
    p_measure.add_argument("--angular-nodes", dest="angular_nodes", type=int, default=32)
    p_measure.add_argument("--skip-projector", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "kawasaki":
        return cmd_kawasaki(args)
    if args.command == "heat":
        return cmd_heat(args, parser)
    if args.command == "measure":
        return cmd_measure(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
