"""Finite-dimensional dbar complex on the sphere and its heat supertrace.

The degree-d line bundle over the projective line is modeled in a single
affine chart.  Sections are spanned by

    v_{a,b} = z^a zbar^b (1 + z zbar)^(-K),      0 <= a <= d+K, 0 <= b <= K,

and (0,1)-forms by

    w_{alpha,beta} = z^alpha zbar^beta (1 + z zbar)^(-K-1) dzbar,
                                      0 <= alpha <= d+K+1, 0 <= beta <= K-1.

K is the truncation level.  Differentiating the section basis gives the
exact integer matrix

    D v_{a,b} = b * w_{a,b-1} + (b - K) * w_{a+1,b},

and both Gram matrices reduce to one Beta integral, so the whole complex is
available in rational arithmetic.  The index d + 1 then has two independent
readings: exact kernel/cokernel dimensions over Q, and the supertrace of the
heat semigroup of the two Laplacians in orthonormalized floating point,
which must be t-independent because the nonzero spectra pair off.

The circle action z -> e^(i theta) z gives v_{a,b} weight a - b and
w_{alpha,beta} weight alpha - beta - 1 (the dzbar contributes -1), D
preserves the weight, and restricting to a residue class of weights modulo
l computes the fixed-point index of the quotient family.

D and both Gram matrices are block diagonal by weight, and `_weight_blocks`
alone builds the blocks, each from its weight: the index ranges of its
sections and forms, the D-block from the formula above, and each Gram block
as the vector of Beta moments of which it is the Hankel matrix.  The exact
rank sums block ranks over Q, each found by fraction-free elimination on
Python ints; the float spectra come from one walk that factors,
orthonormalizes and diagonalizes block by block.  `build_dbar_matrix` and
`gram_matrices` only place the blocks along the diagonal of full matrices,
in block order: weight ascending, then b (sections) or beta (forms)
ascending.  Nothing in the program uses them; the tests use them as the
dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isfinite

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from .analytic import _check_family_args

__all__ = [
    "NumericalBreakdown",
    "NonFiniteSupertrace",
    "EquivariantRestriction",
    "GalerkinProblem",
    "SpectralReport",
    "exact_index",
    "supertrace",
    "equivariant_block_index",
]


class NumericalBreakdown(ArithmeticError):
    """Float Cholesky of a Gram block failed: double precision ran out.

    The exact Gram blocks are positive definite, so a failing leading
    minor (1-based, as LAPACK reports it) means rounding, not bad input.
    `size` is the order of the failing block and `weight` its weight.
    """

    def __init__(self, d: int, K: int, space: str, weight: int, minor: int, size: int) -> None:
        self.d = d
        self.K = K
        self.space = space
        self.weight = weight
        self.minor = minor
        self.size = size
        super().__init__(
            f"float Cholesky of the {size}x{size} {space} Gram block of weight "
            f"{weight} failed at leading minor {minor} (d={d}, K={K})"
        )


class NonFiniteSupertrace(ArithmeticError):
    """A heat supertrace sample overflowed to infinity or NaN.

    Rounding can leave a Laplacian eigenvalue that is zero in exact
    arithmetic slightly negative, and at a large enough heat time its
    exp(-t * lambda) overflows.
    """

    def __init__(self, d: int, K: int, t: float, value: float) -> None:
        self.d = d
        self.K = K
        self.t = t
        self.value = value
        super().__init__(f"heat supertrace at t={t:g} is {value} (d={d}, K={K})")


@dataclass(frozen=True)
class EquivariantRestriction:
    """Keep only basis elements whose weight is congruent to label mod l."""

    l: int
    label: int

    def __post_init__(self) -> None:
        if not isinstance(self.l, int) or self.l < 2:
            raise ValueError(f"l must be an integer >= 2, got {self.l!r}")
        object.__setattr__(self, "label", self.label % self.l)

    def keeps(self, weight: int) -> bool:
        return weight % self.l == self.label


@dataclass(frozen=True)
class GalerkinProblem:
    """Truncated dbar complex for O(d) at truncation level K.

    Requires K >= 1 and d + K >= 0 so that both bases are nonempty in the
    intended ranges; an optional equivariance restriction selects a single
    weight class modulo some l.
    """

    d: int
    K: int
    equivariance: EquivariantRestriction | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.K, int) or self.K < 1:
            raise ValueError(f"truncation level K must be an integer >= 1, got {self.K!r}")
        if not isinstance(self.d, int):
            raise ValueError("degree d must be an integer")
        if self.d + self.K < 0:
            raise ValueError(
                f"need d + K >= 0 for a nonempty section basis, got d={self.d}, K={self.K}"
            )


@dataclass(frozen=True)
class SpectralReport:
    """Exact and numerical summary of one truncated complex.

    `pairing_defect` is the largest relative mismatch between the paired
    nonzero spectra of the two Laplacians; None when no spectra were taken.
    """

    dim_V: int
    dim_W: int
    ker_dim: int
    coker_dim: int
    index_exact: int
    supertrace_samples: tuple[tuple[float, float], ...]
    block_label: int | None
    pairing_defect: float | None = None


@lru_cache(maxsize=None)
def _beta_moment(p: int, s: int) -> Fraction:
    """Exact value of the chart integral of t^p (1 + t)^(-s) over [0, inf)."""
    if p < 0 or s - p - 2 < 0:
        raise ValueError(f"moment ({p}, {s}) diverges")
    return Fraction(factorial(p) * factorial(s - p - 2), factorial(s - 1))


def _weight_blocks(problem: GalerkinProblem):
    """Yield (weight, b-range, beta-range, D-block, G_V moments, G_W moments).

    Weights ascend from -K to d + K.  Block w holds the sections v_{b+w,b}
    and forms w_{beta+w+1,beta} for b and beta in the two ranges, in the
    order of the full bases.  The int D-block (rows forms, columns sections)
    follows the formula for D v_{a,b}, whose targets keep the weight and lie
    in the form range.  Monomials of different weight are orthogonal (the
    angular integral vanishes), and an equal-weight pair gives the Beta
    moment of its exponent sum, so a Gram block of order n is the Hankel
    matrix of the 2n - 1 moments yielded: entry (i, j) is moments[i + j].
    Both spaces share s = 2K + d + 2 because the form pairing trades two
    powers of the conformal factor for the inverse metric on dzbar.
    """
    d, K = problem.d, problem.K
    s = 2 * K + d + 2
    for w in range(-K, d + K + 1):
        if problem.equivariance is not None and not problem.equivariance.keeps(w):
            continue
        bs = range(max(0, -w), min(K, d + K - w) + 1)
        betas = range(max(0, -w - 1), min(K - 1, d + K - w) + 1)
        d_block = [[0] * len(bs) for _ in betas]
        for col, b in enumerate(bs):
            if b > 0:
                d_block[b - 1 - betas.start][col] = b
            if b < K:
                d_block[b - betas.start][col] = b - K
        # the exponent sums of the two Gram blocks, from corner to corner
        g_v = tuple(_beta_moment(c, s) for c in range(2 * bs.start + w, 2 * bs.stop + w - 1))
        g_w = tuple(_beta_moment(c, s) for c in range(2 * betas.start + w + 1, 2 * betas.stop + w))
        yield w, bs, betas, d_block, g_v, g_w


def _block_diagonal(blocks, zero) -> list[list]:
    """One matrix with the (rows, cols, block) triples along its diagonal;
    each block takes len(cols) columns, a block with no rows too."""
    blocks = list(blocks)
    width = sum(len(cols) for _, cols, _ in blocks)
    full, left = [], 0
    for _, cols, block in blocks:
        right = width - left - len(cols)
        full += [[zero] * left + list(row) + [zero] * right for row in block]
        left += len(cols)
    return full


def build_dbar_matrix(problem: GalerkinProblem) -> list[list[int]]:
    """Integer matrix of D, rows the forms and columns the sections, both in
    block order: weight ascending, then beta (rows) or b (columns) ascending."""
    blocks = ((betas, bs, d_block) for _, bs, betas, d_block, _, _ in _weight_blocks(problem))
    return _block_diagonal(blocks, 0)


def gram_matrices(problem: GalerkinProblem):
    """Exact Gram matrices (G_V, G_W) in the block order of build_dbar_matrix:
    each diagonal block is the Hankel matrix of its moments, zero elsewhere."""
    v_blocks, w_blocks = [], []
    for _, bs, betas, _, g_v, g_w in _weight_blocks(problem):
        v_blocks.append((bs, bs, [g_v[i : i + len(bs)] for i in range(len(bs))]))
        w_blocks.append((betas, betas, [g_w[i : i + len(betas)] for i in range(len(betas))]))
    return _block_diagonal(v_blocks, Fraction(0)), _block_diagonal(w_blocks, Fraction(0))


# ---------------------------------------------------------------------------
# Exact rank over Q
# ---------------------------------------------------------------------------


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank over Q of a small integer matrix by fraction-free elimination.

    Clearing a pivot column replaces each row below by pivot * row - entry
    * pivot row, which stays in the integers; dividing the new row by the
    gcd of its entries keeps them from growing.
    """
    mat = [list(row) for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        top = mat[rank]
        pv = top[col]
        for r in range(rank + 1, len(mat)):
            c = mat[r][col]
            if c:
                row = [pv * x - c * y for x, y in zip(mat[r], top)]
                g = gcd(*row)
                mat[r] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def _report(problem, dim_v, dim_w, rank, samples=(), pairing=None) -> SpectralReport:
    return SpectralReport(
        dim_V=dim_v,
        dim_W=dim_w,
        ker_dim=dim_v - rank,
        coker_dim=dim_w - rank,
        index_exact=(dim_v - rank) - (dim_w - rank),
        supertrace_samples=tuple(samples),
        block_label=None if problem.equivariance is None else problem.equivariance.label,
        pairing_defect=pairing,
    )


def exact_index(problem: GalerkinProblem) -> SpectralReport:
    """Kernel, cokernel, and index of the truncated complex, exactly over Q."""
    dim_v = dim_w = rank = 0
    for _, bs, betas, d_block, _, _ in _weight_blocks(problem):
        dim_v += len(bs)
        dim_w += len(betas)
        rank += _integer_rank(d_block)
    return _report(problem, dim_v, dim_w, rank)


# ---------------------------------------------------------------------------
# Floating-point spectra
# ---------------------------------------------------------------------------


def _gram_cholesky(moments, problem: GalerkinProblem, space: str, weight: int) -> np.ndarray:
    """Lower float Cholesky factor of the Hankel block of `moments`, or NumericalBreakdown."""
    n = (len(moments) + 1) // 2
    hankel = np.array(moments, dtype=float)[np.add.outer(np.arange(n), np.arange(n))]
    factor, info = dpotrf(hankel, lower=1, clean=1)
    if info > 0:
        raise NumericalBreakdown(problem.d, problem.K, space, weight, info, n)
    if info < 0:
        raise ValueError(f"LAPACK potrf rejected argument {-info}")
    return factor


def _block_spectra(problem: GalerkinProblem):
    """One walk over the weight blocks: (rank over Q, evals_V, evals_W, sigma).

    Per block D~ = L_W^T D L_V^(-T) with G = L L^T.  The block spectra are
    sorted together.  sigma has min(dim_V, dim_W) entries, as for the full
    D~, because n_V - n_W has the sign of d + 1 in every block.
    """
    rank = 0
    parts_v, parts_w, parts_sigma = [], [], []
    for weight, _, _, d_block, g_v, g_w in _weight_blocks(problem):
        rank += _integer_rank(d_block)
        l_v = _gram_cholesky(g_v, problem, "section", weight)
        l_w = _gram_cholesky(g_w, problem, "form", weight)
        d_mat = np.array(d_block, dtype=float)
        # D * L_V^(-T) via a triangular solve, then the L_W^T factor
        d_tilde = l_w.T @ solve_triangular(l_v, d_mat.T, lower=True).T
        parts_v.append(np.linalg.eigvalsh(d_tilde.T @ d_tilde))
        parts_w.append(np.linalg.eigvalsh(d_tilde @ d_tilde.T))
        parts_sigma.append(np.linalg.svd(d_tilde, compute_uv=False))
    evals_v = np.sort(np.concatenate([np.zeros(0), *parts_v]))
    evals_w = np.sort(np.concatenate([np.zeros(0), *parts_w]))
    sigma = np.sort(np.concatenate([np.zeros(0), *parts_sigma]))
    return rank, evals_v, evals_w, sigma


def heat_spectra(problem: GalerkinProblem):
    """Eigenvalues of the two Laplacians and the singular values of D.

    Returns (evals_V, evals_W, sigma) where evals_V is the spectrum of
    D~* D~ on sections, evals_W that of D~ D~* on forms, and sigma the
    singular values of the orthonormalized D~, all ascending.  The two
    eigendecompositions are computed independently so that pairing of the
    nonzero spectra is a checkable property rather than a construction.
    """
    return _block_spectra(problem)[1:]


def laplacian_pairing_defect(problem: GalerkinProblem) -> float:
    """Largest relative mismatch between the paired nonzero spectra."""
    return supertrace(problem, ()).pairing_defect


_HEAT_TIMES = (0.05, 0.5, 5.0)


def _check_heat_times(t_values) -> None:
    """Refuse a heat time that is negative, NaN or infinite."""
    if not all(isfinite(t) and t >= 0 for t in t_values):
        raise ValueError("heat time must be nonnegative and finite")


def supertrace(
    problem: GalerkinProblem, t_values: tuple[float, ...] = _HEAT_TIMES
) -> SpectralReport:
    """Exact index data, heat supertrace samples str(t) and the pairing defect.

    str(t) = tr exp(-t D~* D~) - tr exp(-t D~ D~*), evaluated from the two
    independently diagonalized Laplacians.  Zero modes contribute 1 each, so
    every sample should reproduce ker - coker regardless of t.  A sample that
    is not finite raises NonFiniteSupertrace.
    """
    _check_heat_times(t_values)
    rank, evals_v, evals_w, sigma = _block_spectra(problem)
    samples = []
    for t in t_values:
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(np.sum(np.exp(-t * evals_v)) - np.sum(np.exp(-t * evals_w)))
        if not isfinite(value):
            raise NonFiniteSupertrace(problem.d, problem.K, float(t), value)
        samples.append((float(t), value))
    # the exact rank says how many eigenvalues of each Laplacian are nonzero;
    # those tails must agree with each other and with sigma^2
    if rank == 0:
        pairing = float(max(np.max(np.abs(x), initial=0.0) for x in (evals_v, evals_w)))
    else:
        pairs_v, sq = evals_v[-rank:], sigma[-rank:] ** 2
        defect = max(np.max(np.abs(pairs_v - evals_w[-rank:])), np.max(np.abs(pairs_v - sq)))
        pairing = float(defect / np.max(sq))
    return _report(problem, len(evals_v), len(evals_w), rank, samples, pairing)


def equivariant_block_index(l: int, m: int, K: int) -> int:
    """Index of the weight block m mod l inside the degree-2m complex.

    Holomorphic sections in this block are the chart monomials z^a with
    a congruent to m modulo l, so the result should match the section count
    of the order-l quotient family at parameter m.
    """
    _check_family_args(l, m)
    problem = GalerkinProblem(
        d=2 * m, K=K, equivariance=EquivariantRestriction(l=l, label=m % l)
    )
    return exact_index(problem).index_exact
