"""Acceptance gate: one test per deliverable criterion, each printing a
single PASS/FAIL line.  Tolerances are pinned here and nowhere looser.

Run with `pytest -v -s tests/test_acceptance.py` to see the summary lines
even when everything passes.
"""

import cmath
import time
from fractions import Fraction

from cstar_index.analytic import analytic_index, kappa
from cstar_index.exact import lefschetz_point_sum, unit_root_reciprocal_sum
from cstar_index.galerkin import (
    EquivariantRestriction,
    GalerkinProblem,
    equivariant_block_index,
    exact_index,
    supertrace,
)
from cstar_index.measure import (
    Cutoff,
    DivergenceDetected,
    FiberMeasureParams,
    QuadratureConfig,
    lambda_m,
    projector_axioms_check,
    unity_check,
)
from cstar_index.topological import hrr_term, mu_bruteforce, mu_closed

import numpy as np

L_RANGE = range(2, 21)
M_RANGE = range(0, 61)


def _finish(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    for item in failures[:10]:
        print(f"  - {item}")
    assert not failures, f"{name}: {len(failures)} failure(s), first: {failures[0]}"


def test_criterion_1_identity_sweep():
    failures = []
    start = time.perf_counter()
    for l in L_RANGE:
        for m in M_RANGE:
            lhs = Fraction(analytic_index(l, m))
            rhs = hrr_term(l, m) + 2 * mu_bruteforce(l, m)
            if lhs != rhs:
                failures.append(f"l={l} m={m}: analytic {lhs} != topological {rhs}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"sweep took {elapsed:.2f}s, budget 10s")
    _finish("criterion 1 (identity sweep, 1140 cells, exact, <10s)", failures)


def test_criterion_2_closed_form_vs_bruteforce():
    failures = []
    for l in L_RANGE:
        for m in M_RANGE:
            exact_brute = mu_bruteforce(l, m)
            exact_closed = mu_closed(l, m)
            if exact_brute != exact_closed:
                failures.append(f"l={l} m={m}: brute {exact_brute} != closed {exact_closed}")
                continue
            zeta = cmath.exp(2j * cmath.pi / l)
            approx = sum(
                zeta ** (m * k) / (1 - zeta ** (-k)) for k in range(1, l)
            ) / l
            if abs(approx - float(exact_brute)) >= 1e-10:
                failures.append(
                    f"l={l} m={m}: float sum off by {abs(approx - float(exact_brute)):.3e}"
                )
    _finish("criterion 2 (mu closed form == brute force, float check <1e-10)", failures)


def test_criterion_3_known_constants():
    failures = []
    for l in L_RANGE:
        if mu_closed(l, 0) != Fraction(l - 1, 2 * l):
            failures.append(f"mu({l},0) != (l-1)/(2l)")
        if unit_root_reciprocal_sum(l) != Fraction(-(l - 1), 2):
            failures.append(f"sum 1/(zeta^k - 1) for l={l} != -(l-1)/2")
        if Fraction(1, l) + 2 * Fraction(l - 1, 2 * l) != 1:
            failures.append(f"m=0 index decomposition broken at l={l}")
        if hrr_term(l, 0) + 2 * mu_bruteforce(l, 0) != 1:
            failures.append(f"m=0 total index != 1 at l={l}")
        for j in range(0, 6):
            m = j * l
            if kappa(l, m) != 2 * m // l + 1:
                failures.append(f"kappa({l},{m}) != 2m/l + 1 despite l | m")
    _finish("criterion 3 (known constants exact for l in [2,20])", failures)


def test_criterion_4_mckean_singer_matrix_level():
    failures = []
    start = time.perf_counter()
    for d in range(-4, 9):
        for K in range(max(1, -d), 7):
            report = supertrace(GalerkinProblem(d=d, K=K), t_values=(0.05, 0.5, 5.0))
            if report.index_exact != d + 1:
                failures.append(f"d={d} K={K}: exact index {report.index_exact} != {d + 1}")
            for t, value in report.supertrace_samples:
                if abs(value - (d + 1)) >= 1e-8:
                    failures.append(
                        f"d={d} K={K} t={t}: supertrace off by {abs(value - (d + 1)):.3e}"
                    )
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"grid took {elapsed:.2f}s, budget 60s")
    _finish("criterion 4 (index = d+1 and supertrace flat <1e-8, <60s)", failures)


def test_criterion_5_equivariant_descent():
    failures = []
    for l in (2, 3, 5):
        for m in range(0, 7):
            for K in (2, 3, 4):
                got = equivariant_block_index(l, m, K)
                want = kappa(l, m)
                if got != want:
                    failures.append(f"l={l} m={m} K={K}: block index {got} != kappa {want}")
            total = 0
            for label in range(l):
                block = GalerkinProblem(
                    d=2 * m, K=3, equivariance=EquivariantRestriction(l=l, label=label)
                )
                total += exact_index(block).index_exact
            if total != 2 * m + 1:
                failures.append(f"l={l} m={m}: block indices sum to {total}, expected {2 * m + 1}")
    _finish("criterion 5 (block index = kappa, blocks sum to 2m+1)", failures)


def test_criterion_6_fiber_measure():
    failures = []
    quad = QuadratureConfig(rel_tolerance=1e-10)
    for a in (1.0, 2.0, 3.0):
        p = FiberMeasureParams(a=a, m=0, cutoff=Cutoff.HARD_STEP)
        got = lambda_m(p, quad)
        want = np.pi * (1 + 2 * a)
        if abs(got - want) >= 1e-8:
            failures.append(f"hard lambda_0(a={a}) off by {abs(got - want):.3e}")
    for a, m in ((1.0, 0), (2.0, 1), (3.0, 2), (5.0, 3)):
        got = unity_check(FiberMeasureParams(a=a, m=m), quad)
        if abs(got - 1.0) >= 1e-8:
            failures.append(f"unity(a={a}, m={m}) off by {abs(got - 1.0):.3e}")
    for m in (1, 2):
        a = m / 2 - 0.1
        try:
            lambda_m(FiberMeasureParams(a=a, m=m), quad)
            failures.append(f"a={a} m={m}: divergence not detected")
        except DivergenceDetected:
            pass
    _finish("criterion 6 (lambda_0 = pi(1+2a), unity = 1 within 1e-8, divergence caught)", failures)


def test_criterion_7_projector_axioms():
    failures = []
    default = QuadratureConfig()
    for a, m in ((1.0, 0), (2.0, 1)):
        rep = projector_axioms_check(FiberMeasureParams(a=a, m=m), default)
        for field in ("monomial_defect", "idempotency_defect", "equivariance_defect"):
            value = getattr(rep, field)
            if value >= 1e-6:
                failures.append(f"a={a} m={m}: {field} = {value:.3e} >= 1e-6")
    # tightening the tolerance must tighten the defect proportionally; the
    # measure-total route carries the genuine quadrature dependence
    p = FiberMeasureParams(a=1.0, m=0)
    for tol in (1e-4, 1e-6, 1e-8):
        rep = projector_axioms_check(p, QuadratureConfig(rel_tolerance=tol))
        if rep.measure_total_defect > 10 * tol:
            failures.append(
                f"tol={tol}: measure total defect {rep.measure_total_defect:.3e} > 10*tol"
            )
    _finish("criterion 7 (projector axiom defects <1e-6, first-order in tolerance)", failures)
