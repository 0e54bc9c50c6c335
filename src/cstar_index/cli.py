"""Command line front end: it parses arguments, renders results and maps
errors to exit codes; the other modules compute.

Subcommands:

    verify    one (l, m) identity check, human-readable or JSON
    sweep     grid of identity checks as CSV or JSON, optionally to a file
    kawasaki  evaluate a serialized Kawasaki spec exactly
    heat      truncated dbar complex: exact index and heat supertrace
    measure   fiber measure diagnostics: mass, unity, projector axioms

Exit codes: 0 success, 1 an identity check disagreed or a defect that heat
or measure reports is above its gate (stdout is printed in full all the
same, and one error line names the defect, its value and its gate), 2
argument or spec validation errors (a negative or non-finite heat time
among them), 3 unwritable output path, 4 divergent measure parameters, 5
numerical breakdown (the float Gram factorization in heat failed, a heat
supertrace sample is not finite, a measure quadrature did not converge
within its budget, or an isotropy order is too large for exact point
sums).  Each subcommand returns 0 to 3 itself; `main` catches the typed
numerical errors of every subcommand and returns 4 or 5 for them.  Any
other error, a plain OverflowError included, is a fault of the program and
ends in a traceback with Python's exit status 1.

Output is deterministic: no timestamps, sorted JSON keys, '\n' line endings,
and rationals rendered as decimal-free p/q strings.  The float digits that
heat prints come from BLAS and depend on its thread count, so they repeat
run to run only with that count fixed (e.g. OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .analytic import check_family_args
from .exact import OrderTooLargeError, format_rational, lefschetz_point_sum
from .galerkin import (
    DEFECT_GATES,
    HEAT_TIMES,
    EquivariantRestriction,
    GalerkinProblem,
    NonFiniteSupertrace,
    NumericalBreakdown,
    check_heat_times,
    supertrace,
)
from .measure import (
    MAX_SUBDIVISIONS,
    DivergenceDetected,
    FiberMeasureParams,
    QuadratureConfig,
    QuadratureError,
    defect_gates,
    lambda_m,
    projector_axioms_check,
    unity_check,
)
from .model import SCHEMA_VERSION, ValidationError, kawasaki_from_json_dict
from .topological import SWEEP_COLUMNS, kawasaki_index, sweep_rows, verify_identity

__all__ = [
    "cmd_verify",
    "cmd_sweep",
    "cmd_kawasaki",
    "cmd_heat",
    "cmd_measure",
    "main",
]


def _fail(message, code: int = 2) -> int:
    """Report an error on stderr and return its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _judge(defects: dict, gates: dict) -> int:
    """0, or 1 with one error line naming each reported defect above its gate;
    a defect that was not computed (None) is not judged."""
    failed = [
        f"{name} {defects[name]:.3e} is above its gate {gate:g}"
        for name, gate in gates.items()
        if defects[name] is not None and not defects[name] <= gate
    ]
    return _fail("; ".join(failed), 1) if failed else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        check_family_args(args.l, args.m)
    except ValueError as exc:
        return _fail(exc)
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


def render_sweep(rows: list[tuple], fmt: str) -> str:
    """Sweep rows as CSV (SWEEP_COLUMNS as header, agree as true/false) or JSON.

    No CSV field needs quoting: each is an int, a "p/q" text or true/false.
    """
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows]}
        return json.dumps(doc, sort_keys=True) + "\n"
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [
        f"{l},{m},{k},{hrr},{mu_c},{mu_b},{total},{'true' if agree else 'false'}"
        for l, m, k, hrr, mu_c, mu_b, total, agree in rows
    ]
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    if args.l_max < 2:
        return _fail("l_max must be an integer >= 2")
    if args.m_max < 0:
        return _fail("m_max must be an integer >= 0")
    rows = sweep_rows(args.l_max, args.m_max)
    text = render_sweep(rows, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc}", 3)
    return 0 if all(row[-1] for row in rows) else 1


# ---------------------------------------------------------------------------
# kawasaki
# ---------------------------------------------------------------------------


def cmd_kawasaki(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        return _fail(f"cannot read {args.spec}: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(f"{args.spec} is not valid JSON: {exc}")
    try:
        spec = kawasaki_from_json_dict(doc)
    except ValidationError as exc:
        return _fail(f"invalid spec: {exc}")
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


def cmd_heat(args) -> int:
    parser = build_parser()  # its top-level usage reports argument conflicts
    d = args.d
    if (args.l is None) != (args.m is None):
        parser.error("--l and --m must be given together")
    if args.l is not None:
        if d is None:
            d = 2 * args.m
        elif d != 2 * args.m:
            parser.error(f"--d must equal 2*m = {2 * args.m} for the equivariant block")
    if d is None:
        parser.error("--d is required unless --l/--m are given")
    try:
        # the restriction refuses l < 2 and reduces the label mod l
        restriction = None if args.l is None else EquivariantRestriction(l=args.l, label=args.m)
        problem = GalerkinProblem(d=d, K=args.K, equivariance=restriction)
        check_heat_times(args.t)
    except ValueError as exc:
        return _fail(exc)
    report = supertrace(problem, tuple(args.t))
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
    return _judge({"max_supertrace_deviation": deviation, "pairing_defect": pairing}, DEFECT_GATES)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def cmd_measure(args) -> int:
    try:
        params = FiberMeasureParams(a=args.a, m=args.m, cutoff=args.cutoff)
        quad = QuadratureConfig(rel_tolerance=args.tol, angular_nodes=args.angular_nodes)
    except ValueError as exc:
        return _fail(exc)
    lam = lambda_m(params, quad)
    unity = unity_check(params, quad)
    axioms = None if args.skip_projector else projector_axioms_check(params, quad)
    doc = {
        "lambda_m": lam,
        "unity_defect": abs(unity - 1.0),
        "idempotency_defect": None if axioms is None else axioms.idempotency_defect,
        "equivariance_defect": None if axioms is None else axioms.equivariance_defect,
        "monomial_defect": None if axioms is None else axioms.monomial_defect,
        "measure_total_defect": None if axioms is None else axioms.measure_total_defect,
        "tolerances": {
            "rel_tolerance": quad.rel_tolerance,
            "max_subdivisions": MAX_SUBDIVISIONS,
            "angular_nodes": quad.angular_nodes,
        },
    }
    print(json.dumps(doc, sort_keys=True))
    return _judge(doc, defect_gates(quad))


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
    p_verify.set_defaults(handler=cmd_verify)
    p_verify.add_argument("--l", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")

    p_sweep = sub.add_parser("sweep", help="grid of identity checks")
    p_sweep.set_defaults(handler=cmd_sweep)
    p_sweep.add_argument("--l-max", dest="l_max", type=int, required=True)
    p_sweep.add_argument("--m-max", dest="m_max", type=int, required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)

    p_kawasaki = sub.add_parser("kawasaki", help="evaluate a serialized spec")
    p_kawasaki.set_defaults(handler=cmd_kawasaki)
    p_kawasaki.add_argument("--spec", required=True)
    p_kawasaki.add_argument("--json", action="store_true")

    p_heat = sub.add_parser("heat", help="dbar complex index and supertrace")
    p_heat.set_defaults(handler=cmd_heat)
    p_heat.add_argument("--d", type=int, default=None)
    p_heat.add_argument("--K", type=int, required=True)
    p_heat.add_argument("--l", type=int, default=None)
    p_heat.add_argument("--m", type=int, default=None)
    p_heat.add_argument("--t", type=float, nargs="+", default=HEAT_TIMES)
    p_heat.add_argument("--json", action="store_true")

    p_measure = sub.add_parser("measure", help="fiber measure diagnostics")
    p_measure.set_defaults(handler=cmd_measure)
    p_measure.add_argument("--a", type=float, required=True)
    p_measure.add_argument("--m", type=int, required=True)
    p_measure.add_argument("--cutoff", choices=("smooth", "hard"), default="smooth")
    p_measure.add_argument("--tol", type=float, default=QuadratureConfig.rel_tolerance)
    p_measure.add_argument("--angular-nodes", dest="angular_nodes", type=int, default=QuadratureConfig.angular_nodes)
    p_measure.add_argument("--skip-projector", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DivergenceDetected as exc:
        return _fail(f"divergent measure: {exc}", 4)
    except (NumericalBreakdown, NonFiniteSupertrace, QuadratureError, OrderTooLargeError) as exc:
        return _fail(f"numerical breakdown: {exc}", 5)


if __name__ == "__main__":
    sys.exit(main())
