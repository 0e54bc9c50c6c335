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
from cstar_index.analytic import analytic_index
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
from cstar_index.topological import verify_identity


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
    problems = [GalerkinProblem(d=d, K=K) for d, K in [(0, 1), (2, 2), (-1, 2), (3, 3), (-2, 2)]]
    problems += [
        GalerkinProblem(d=8, K=4, equivariance=EquivariantRestriction(l=3, label=2)),
        GalerkinProblem(d=4, K=2, equivariance=EquivariantRestriction(l=2, label=0)),
    ]
    for p in problems:
        d, K = p.d, p.K
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
            assert not seen  # nothing may fall outside the (restricted) form basis


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


def test_gram_matrices_match_pairwise_moments():
    # the dense oracle pairs every two basis elements; the blocks are Hankel
    # moment vectors, so this checks their offsets and their scatter
    problems = [GalerkinProblem(d=d, K=K) for d, K in [(0, 1), (3, 4), (-3, 5), (-2, 2), (6, 6)]]
    problems.append(GalerkinProblem(d=8, K=4, equivariance=EquivariantRestriction(l=3, label=2)))
    for p in problems:
        s = 2 * p.K + p.d + 2
        g_v, g_w = gram_matrices(p)
        v_pairs = [(e.a, e.b, e.weight) for e in p.basis_v()]
        w_pairs = [(f.alpha, f.beta, f.weight) for f in p.basis_w()]
        for gram, pairs in ((g_v, v_pairs), (g_w, w_pairs)):
            assert len(gram) == len(pairs)
            for row, (a, _, weight) in zip(gram, pairs):
                assert len(row) == len(pairs)
                for x, (_, b, other) in zip(row, pairs):
                    want = galerkin._beta_moment(a + b, s) if weight == other else 0
                    assert x == want, (p, a, b)


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


def _fraction_rank(rows):
    """Rank by Gaussian elimination in Fraction arithmetic (the oracle)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_integer_rank_matches_fraction_oracle_on_d_blocks():
    # the problems the heat-ladder benchmark solves, the failing one included
    problems = [GalerkinProblem(d=d, K=d) for d in (4, 8, 12, 16, 20)]
    problems += [
        GalerkinProblem(d=16, K=8, equivariance=EquivariantRestriction(l=3, label=8)),
        GalerkinProblem(d=20, K=26),
    ]
    blocks = [blk[3] for p in problems for blk in galerkin._weight_blocks(p)]
    assert len(blocks) == 269
    for block in blocks:
        before = [row[:] for row in block]
        assert galerkin._integer_rank(block) == _fraction_rank(block)
        assert block == before  # the spectra read the same block afterwards


def test_integer_rank_of_known_rank_matrices():
    rng = np.random.default_rng(11)
    cases = [([], 0), ([[], []], 0), ([[0, 0, 0], [0, 0, 0]], 0)]
    for _ in range(300):
        n, m = (int(x) for x in rng.integers(1, 8, size=2))
        k = int(rng.integers(0, min(n, m) + 1))
        # [I; A] [I | B] has rank exactly k; permuting rows and columns,
        # scaling rows and adding zero rows and columns keeps it
        left = np.vstack([np.eye(k, dtype=np.int64), rng.integers(-9, 10, (n - k, k))])
        right = np.hstack([np.eye(k, dtype=np.int64), rng.integers(-9, 10, (k, m - k))])
        mat = (left @ right)[rng.permutation(n)][:, rng.permutation(m)]
        mat *= rng.choice([-30, -7, -1, 1, 2, 12, 97], size=(n, 1))
        mat = np.insert(mat, int(rng.integers(0, n + 1)), 0, axis=0)
        mat = np.insert(mat, int(rng.integers(0, m + 1)), 0, axis=1)
        cases.append((mat.tolist(), k))
    for rows, k in cases:
        assert _fraction_rank(rows) == k
        assert galerkin._integer_rank(rows) == k


def test_supertrace_constant_in_t():
    for d, K in [(0, 1), (4, 3), (-3, 5), (2, 6)]:
        rep = supertrace(GalerkinProblem(d=d, K=K), t_values=(0.05, 0.5, 5.0, 50.0))
        for t, value in rep.supertrace_samples:
            assert abs(value - rep.index_exact) < 1e-8, (d, K, t)


def test_laplacian_pairing():
    for d, K in [(0, 1), (4, 3), (-2, 3), (6, 5)]:
        assert laplacian_pairing_defect(GalerkinProblem(d=d, K=K)) < 1e-10


def test_gram_cholesky_breakdown_is_typed(monkeypatch):
    # zeroing moment 2, the (1, 1) Hankel entry, of one form Gram block makes
    # its second leading minor -mu_1^2 negative, as rounding does on large
    # problems
    exact_blocks = galerkin._weight_blocks
    broken = {}

    def broken_blocks(problem):
        for weight, bs, betas, d_block, g_v, g_w in exact_blocks(problem):
            if len(betas) >= 2 and not broken:
                broken.update(weight=weight, size=len(betas))
                g_w = g_w[:2] + (Fraction(0),) + g_w[3:]
            yield weight, bs, betas, d_block, g_v, g_w

    monkeypatch.setattr(galerkin, "_weight_blocks", broken_blocks)
    with pytest.raises(NumericalBreakdown) as exc:
        heat_spectra(GalerkinProblem(d=1, K=2))
    err = exc.value
    assert not isinstance(err, ValueError)
    assert (err.d, err.K, err.space, err.minor) == (1, 2, "form", 2)
    assert (err.weight, err.size) == (broken["weight"], broken["size"])
    assert "leading minor 2" in str(err)
    assert f"weight {broken['weight']}" in str(err)


def _dense_spectra(problem):
    """The full-matrix route: Cholesky of the whole Gram matrices, then the
    eigensolves and the SVD of the whole orthonormalized operator."""
    d_mat = np.array(build_dbar_matrix(problem), dtype=float)
    g_v, g_w = gram_matrices(problem)
    l_v = np.linalg.cholesky(np.array(g_v, dtype=float))
    l_w = np.linalg.cholesky(np.array(g_w, dtype=float))
    d_tilde = l_w.T @ np.linalg.solve(l_v, d_mat.T).T
    return (
        np.linalg.eigvalsh(d_tilde.T @ d_tilde),
        np.linalg.eigvalsh(d_tilde @ d_tilde.T),
        np.sort(np.linalg.svd(d_tilde, compute_uv=False)),
    )


def test_block_spectra_match_dense_oracle():
    problems = [GalerkinProblem(d=d, K=K) for d, K in [(0, 1), (3, 4), (-3, 5), (6, 6)]]
    problems.append(GalerkinProblem(d=8, K=4, equivariance=EquivariantRestriction(l=3, label=2)))
    for p in problems:
        for block, dense in zip(heat_spectra(p), _dense_spectra(p)):
            assert block.shape == dense.shape, p
            scale = max(1.0, float(np.max(dense, initial=0.0)))
            np.testing.assert_allclose(block, dense, rtol=1e-10, atol=1e-10 * scale)


def _monopole_spectrum(d, K):
    # the bidegree (d+K, K) sections split under SU(2) into levels
    # k = max(0, -d)..K (monopole harmonics); level k has eigenvalue
    # k(k+d+1) with multiplicity d+2k+1, and only k = 0 is harmonic
    return np.sort(np.concatenate(
        [np.full(d + 2 * k + 1, float(k * (k + d + 1))) for k in range(max(1, -d), K + 1)]
    ))


@pytest.mark.parametrize(
    "d, K",
    [
        (0, 3), (2, 3), (4, 4), (-2, 5), (3, 6), (-3, 5),
        pytest.param(16, 16, marks=pytest.mark.xfail(
            strict=True, reason="the float spectra are off by 1.0e-4 relative at d=K=16",
        )),
    ],
)
def test_section_spectrum_matches_closed_form(d, K):
    evals_v = heat_spectra(GalerkinProblem(d=d, K=K))[0]
    want = _monopole_spectrum(d, K)
    harmonic = len(evals_v) - len(want)
    assert harmonic == max(d + 1, 0)
    assert np.max(np.abs(evals_v[:harmonic]), initial=0.0) < 1e-10
    assert np.max(np.abs(evals_v[harmonic:] - want) / want) < 1e-10


def test_supertrace_walks_the_blocks_once(monkeypatch):
    walks = []
    exact_blocks = galerkin._weight_blocks

    def counted(problem):
        walks.append(problem)
        return exact_blocks(problem)

    monkeypatch.setattr(galerkin, "_weight_blocks", counted)
    p = GalerkinProblem(d=3, K=3)
    rep = supertrace(p)
    assert walks == [p]
    assert rep.pairing_defect < 1e-10


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


@pytest.mark.parametrize("t", [float("nan"), float("inf"), 1e400, -1.0])
def test_supertrace_rejects_negative_or_nonfinite_time(t, monkeypatch):
    def no_walk(problem):
        raise AssertionError("heat times must be checked before any block is built")

    monkeypatch.setattr(galerkin, "_block_spectra", no_walk)
    with pytest.raises(ValueError, match="heat time must be nonnegative and finite"):
        supertrace(GalerkinProblem(d=2, K=2), (0.5, t))


@pytest.mark.parametrize("K", [4, 8])
def test_three_routes_agree_on_the_family_grid(K):
    # every cell verify and sweep cover: the lattice count, the exact
    # fixed-point sums, and the dbar block of weight m mod l in the
    # degree-2m complex, by its exact rank and by its heat supertrace
    failures = []
    for l in range(2, 30):
        for m in range(61):
            want = analytic_index(l, m)
            if verify_identity(l, m).topological_total != want:
                failures.append((l, m, "point sums"))
            block = GalerkinProblem(d=2 * m, K=K, equivariance=EquivariantRestriction(l, m % l))
            if exact_index(block).index_exact != want:
                failures.append((l, m, "exact index"))
            samples = supertrace(block, galerkin._HEAT_TIMES).supertrace_samples
            if any(abs(value - want) > 1e-8 for _, value in samples):
                failures.append((l, m, "supertrace"))
    assert not failures, failures[:10]


def test_restricted_problem_with_empty_block():
    # weights of the d=0, K=1 complex are {-1, 0, 1}; label 2 mod 5 is empty
    p = GalerkinProblem(d=0, K=1, equivariance=EquivariantRestriction(l=5, label=2))
    rep = supertrace(p, t_values=(0.5,))
    assert rep.dim_V == 0
    assert rep.index_exact == 0
    assert rep.supertrace_samples[0][1] == 0
