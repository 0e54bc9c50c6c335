"""Tests for the truncated dbar complex.

The operator matrix is checked column by column against symbolic
differentiation, the Gram moments against symbolic and numerical
integration, and the index against both the exact rank count and the
floating-point heat supertrace.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
import sympy
from scipy.integrate import quad

from cstar_index import galerkin
from cstar_index.galerkin import (
    BasisElementV,
    BasisElementW,
    EquivariantRestriction,
    GalerkinProblem,
    NumericalBreakdown,
    build_dbar_matrix,
    equivariant_block_index,
    exact_index,
    gram_matrices,
    heat_spectra,
    laplacian_pairing_defect,
    supertrace,
)


def test_problem_validation():
    with pytest.raises(ValueError):
        GalerkinProblem(d=2, K=0)
    with pytest.raises(ValueError):
        GalerkinProblem(d=-3, K=2)
    GalerkinProblem(d=-2, K=2)  # boundary case d + K = 0 is allowed


def test_basis_dimensions_and_weights():
    p = GalerkinProblem(d=2, K=3)
    assert len(p.basis_v()) == (2 + 3 + 1) * (3 + 1)
    assert len(p.basis_w()) == (2 + 3 + 2) * 3
    assert BasisElementV(a=3, b=1).weight == 2
    assert BasisElementW(alpha=3, beta=1).weight == 1


def test_dbar_matrix_against_symbolic_differentiation():
    z, zb = sympy.symbols("z zbar")
    for d, K in [(0, 1), (2, 2), (-1, 2), (3, 3)]:
        p = GalerkinProblem(d=d, K=K)
        bv, bw = p.basis_v(), p.basis_w()
        mat = build_dbar_matrix(p)
        w_index = {(e.alpha, e.beta): i for i, e in enumerate(bw)}
        for col, e in enumerate(bv):
            v = z**e.a * zb**e.b * (1 + z * zb) ** (-K)
            # D v, re-expanded over the form basis denominator
            poly = sympy.cancel(sympy.diff(v, zb) * (1 + z * zb) ** (K + 1))
            poly = sympy.Poly(sympy.expand(poly), z, zb)
            seen = {}
            for (ea, eb), coeff in zip(poly.monoms(), poly.coeffs()):
                seen[(ea, eb)] = int(coeff)
            for row, f in enumerate(bw):
                expected = seen.pop((f.alpha, f.beta), 0)
                assert mat[row][col] == expected, (d, K, e, f)
            assert not seen  # nothing may fall outside the form basis


def test_beta_moment_against_sympy_and_quad():
    t = sympy.symbols("t", positive=True)
    g_v, _ = gram_matrices(GalerkinProblem(d=1, K=2))
    # independently recompute a few entries; s = 2K + d + 2 = 7
    p_obj = GalerkinProblem(d=1, K=2)
    bv = p_obj.basis_v()
    for i in (0, 3, 7):
        for j in (0, 3, 7):
            e, f = bv[i], bv[j]
            if e.weight != f.weight:
                assert g_v[i][j] == 0
                continue
            power = e.a + f.b
            exact = sympy.integrate(t**power * (1 + t) ** (-7), (t, 0, sympy.oo))
            assert Fraction(int(sympy.nsimplify(exact).p), int(sympy.nsimplify(exact).q)) == g_v[i][j]
            approx = quad(lambda x: x**power * (1 + x) ** (-7.0), 0, np.inf)[0]
            assert abs(approx - float(g_v[i][j])) < 1e-10


def test_gram_entry_matches_polar_double_integral():
    # full convention check in polar coordinates for one same-weight pair
    d, K = 2, 2
    p = GalerkinProblem(d=d, K=K)
    g_v, g_w = gram_matrices(p)
    bv, bw = p.basis_v(), p.basis_w()
    s = 2 * K + d + 2
    i, j = 5, 8
    assert bv[i].weight == bv[j].weight or g_v[i][j] == 0
    pairs = [(i2, j2) for i2 in range(len(bv)) for j2 in range(len(bv))
             if bv[i2].weight == bv[j2].weight][:6]
    for i2, j2 in pairs:
        power = bv[i2].a + bv[j2].b
        radial = quad(lambda r: 2 * r ** (2 * power + 1) * (1 + r * r) ** (-s), 0, np.inf)[0]
        assert abs(radial - float(g_v[i2][j2])) < 1e-9
    # same exponent s shows up in the form Gram
    for i2 in range(min(4, len(bw))):
        power = bw[i2].alpha + bw[i2].beta
        radial = quad(lambda r: 2 * r ** (2 * power + 1) * (1 + r * r) ** (-s), 0, np.inf)[0]
        assert abs(radial - float(g_w[i2][i2])) < 1e-9


def test_gram_matrices_positive_definite():
    for d, K in [(0, 1), (4, 3), (-2, 4)]:
        g_v, g_w = gram_matrices(GalerkinProblem(d=d, K=K))
        for g in (g_v, g_w):
            arr = np.array([[float(x) for x in row] for row in g])
            evals = np.linalg.eigvalsh(arr)
            assert evals.min() > 0


def test_holomorphic_kernel_containment():
    # z^a = sum_j binom(K, j) v_{a+j, j} must be annihilated exactly
    for d, K in [(0, 1), (3, 2), (5, 4)]:
        p = GalerkinProblem(d=d, K=K)
        bv = p.basis_v()
        v_index = {(e.a, e.b): i for i, e in enumerate(bv)}
        mat = build_dbar_matrix(p)
        for a in range(d + 1):
            vec = [0] * len(bv)
            for j in range(K + 1):
                vec[v_index[(a + j, j)]] = comb(K, j)
            image = [sum(m * c for m, c in zip(row, vec)) for row in mat]
            assert all(x == 0 for x in image), (d, K, a)


def test_exact_index_small_case_by_hand():
    # d=0, K=1: four sections, three forms, rank three, one-dimensional kernel
    r = exact_index(GalerkinProblem(d=0, K=1))
    assert (r.dim_V, r.dim_W) == (4, 3)
    assert (r.ker_dim, r.coker_dim) == (1, 0)
    assert r.index_exact == 1


def test_exact_index_reproduces_degree_count():
    assert exact_index(GalerkinProblem(d=4, K=3)).index_exact == 5
    assert exact_index(GalerkinProblem(d=-1, K=2)).index_exact == 0
    for d in range(-4, 9):
        for K in range(max(1, -d), 7):
            r = exact_index(GalerkinProblem(d=d, K=K))
            assert r.index_exact == d + 1, (d, K)
            # cohomology of the line bundle, visible at every truncation
            assert r.ker_dim == max(d + 1, 0), (d, K)
            assert r.coker_dim == max(-d - 1, 0), (d, K)


def test_supertrace_constant_in_t():
    for d, K in [(0, 1), (4, 3), (-3, 5), (2, 6)]:
        rep = supertrace(GalerkinProblem(d=d, K=K), t_values=(0.05, 0.5, 5.0, 50.0))
        for t, value in rep.supertrace_samples:
            assert abs(value - rep.index_exact) < 1e-8, (d, K, t)


def test_laplacian_pairing():
    for d, K in [(0, 1), (4, 3), (-2, 3), (6, 5)]:
        assert laplacian_pairing_defect(GalerkinProblem(d=d, K=K)) < 1e-10


def test_gram_cholesky_breakdown_is_typed(monkeypatch):
    # zeroing a diagonal entry of the form Gram matrix makes its second
    # leading minor nonpositive, as rounding does on large problems
    exact_gram = galerkin.gram_matrices

    def broken_gram(problem):
        g_v, g_w = exact_gram(problem)
        g_w = [list(row) for row in g_w]
        g_w[1][1] = Fraction(0)
        return g_v, g_w

    monkeypatch.setattr(galerkin, "gram_matrices", broken_gram)
    with pytest.raises(NumericalBreakdown) as exc:
        heat_spectra(GalerkinProblem(d=1, K=2))
    err = exc.value
    assert not isinstance(err, ValueError)
    assert (err.d, err.K, err.space, err.minor) == (1, 2, "form", 2)
    assert err.size == len(GalerkinProblem(d=1, K=2).basis_w())
    assert "leading minor 2" in str(err)


def test_spectra_shapes_and_zero_modes():
    p = GalerkinProblem(d=3, K=2)
    rep = exact_index(p)
    evals_v, evals_w, sigma = heat_spectra(p)
    assert len(evals_v) == rep.dim_V
    assert len(evals_w) == rep.dim_W
    tol = 1e-9 * max(1.0, float(sigma.max()))
    assert int(np.sum(sigma < tol)) == len(sigma) - (rep.dim_V - rep.ker_dim)
    assert int(np.sum(evals_v < tol)) == rep.ker_dim
    assert int(np.sum(evals_w < tol)) == rep.coker_dim


def test_equivariant_restriction_blocks():
    p = GalerkinProblem(d=4, K=2, equivariance=EquivariantRestriction(l=2, label=0))
    for e in p.basis_v():
        assert e.weight % 2 == 0
    for e in p.basis_w():
        assert e.weight % 2 == 0
    mat = build_dbar_matrix(p)  # must not leak between blocks
    assert len(mat) == len(p.basis_w())


def test_equivariant_block_index_known_values():
    assert equivariant_block_index(2, 0, 2) == 1
    assert equivariant_block_index(2, 2, 2) == 3
    assert equivariant_block_index(3, 4, 3) == 3


def test_equivariant_block_additivity():
    # blocks of the full degree-2m complex partition its index 2m + 1
    for l in (2, 3, 5):
        for m in (0, 2, 5):
            total = 0
            for label in range(l):
                p = GalerkinProblem(
                    d=2 * m, K=3, equivariance=EquivariantRestriction(l=l, label=label)
                )
                total += exact_index(p).index_exact
            assert total == 2 * m + 1, (l, m)


def test_restricted_problem_with_empty_block():
    # weights of the d=0, K=1 complex are {-1, 0, 1}; label 2 mod 5 is empty
    p = GalerkinProblem(d=0, K=1, equivariance=EquivariantRestriction(l=5, label=2))
    rep = supertrace(p, t_values=(0.5,))
    assert rep.dim_V == 0
    assert rep.index_exact == 0
    assert rep.supertrace_samples[0][1] == 0
