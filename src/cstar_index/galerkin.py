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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

__all__ = [
    "BlockLeakError",
    "NumericalBreakdown",
    "BasisElementV",
    "BasisElementW",
    "EquivariantRestriction",
    "GalerkinProblem",
    "SpectralReport",
    "build_dbar_matrix",
    "gram_matrices",
    "exact_index",
    "heat_spectra",
    "laplacian_pairing_defect",
    "supertrace",
    "equivariant_block_index",
]


class BlockLeakError(ArithmeticError):
    """The operator produced a target outside the selected weight block."""


class NumericalBreakdown(ArithmeticError):
    """Float Cholesky of a Gram matrix failed: double precision ran out.

    The exact Gram matrices are positive definite, so a failing leading
    minor (1-based, as LAPACK reports it) means rounding, not bad input.
    """

    def __init__(self, d: int, K: int, space: str, minor: int, size: int) -> None:
        self.d = d
        self.K = K
        self.space = space
        self.minor = minor
        self.size = size
        super().__init__(
            f"float Cholesky of the {size}x{size} {space} Gram matrix failed at "
            f"leading minor {minor} (d={d}, K={K})"
        )


@dataclass(frozen=True)
class BasisElementV:
    """Section basis monomial z^a zbar^b (1 + z zbar)^(-K)."""

    a: int
    b: int

    @property
    def weight(self) -> int:
        return self.a - self.b


@dataclass(frozen=True)
class BasisElementW:
    """Form basis monomial z^alpha zbar^beta (1 + z zbar)^(-K-1) dzbar."""

    alpha: int
    beta: int

    @property
    def weight(self) -> int:
        return self.alpha - self.beta - 1


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

    def basis_v(self) -> tuple[BasisElementV, ...]:
        out = [
            BasisElementV(a, b)
            for a in range(self.d + self.K + 1)
            for b in range(self.K + 1)
        ]
        if self.equivariance is not None:
            out = [e for e in out if self.equivariance.keeps(e.weight)]
        return tuple(out)

    def basis_w(self) -> tuple[BasisElementW, ...]:
        out = [
            BasisElementW(alpha, beta)
            for alpha in range(self.d + self.K + 2)
            for beta in range(self.K)
        ]
        if self.equivariance is not None:
            out = [e for e in out if self.equivariance.keeps(e.weight)]
        return tuple(out)


@dataclass(frozen=True)
class SpectralReport:
    """Exact and numerical summary of one truncated complex."""

    dim_V: int
    dim_W: int
    ker_dim: int
    coker_dim: int
    index_exact: int
    supertrace_samples: tuple[tuple[float, float], ...]
    block_label: int | None


def _dbar_images(elem: BasisElementV, K: int):
    """Targets of D on one basis section, as (coefficient, BasisElementW)."""
    out = []
    if elem.b > 0:
        out.append((elem.b, BasisElementW(elem.a, elem.b - 1)))
    if elem.b < K:
        out.append((elem.b - K, BasisElementW(elem.a + 1, elem.b)))
    return out


def build_dbar_matrix(problem: GalerkinProblem) -> list[list[int]]:
    """Integer matrix of D, rows indexed by the form basis, columns by sections.

    For a restricted problem the full-range targets must themselves satisfy
    the weight constraint; a violation raises BlockLeakError since it means
    the operator does not preserve the block decomposition.
    """
    bv = problem.basis_v()
    bw = problem.basis_w()
    w_index = {e: i for i, e in enumerate(bw)}
    rows = [[0] * len(bv) for _ in bw]
    for col, elem in enumerate(bv):
        for coeff, target in _dbar_images(elem, problem.K):
            row = w_index.get(target)
            if row is None:
                raise BlockLeakError(
                    f"D maps {elem} outside the selected block (target {target})"
                )
            rows[row][col] = coeff
    return rows


@lru_cache(maxsize=None)
def _beta_moment(p: int, s: int) -> Fraction:
    """Exact value of the chart integral of t^p (1 + t)^(-s) over [0, inf)."""
    if p < 0 or s - p - 2 < 0:
        raise ValueError(f"moment ({p}, {s}) diverges")
    return Fraction(factorial(p) * factorial(s - p - 2), factorial(s - 1))


def gram_matrices(problem: GalerkinProblem):
    """Exact Gram matrices (G_V, G_W) of the two bases.

    Monomials of different weight are orthogonal (the angular integral
    vanishes), and equal-weight pairs reduce to the Beta moment with the
    common exponent s = 2K + d + 2.  The same s serves both spaces because
    the form pairing trades two powers of the conformal factor for the
    inverse metric on dzbar.
    """
    s = 2 * problem.K + problem.d + 2
    bv = problem.basis_v()
    bw = problem.basis_w()
    g_v = [
        [
            _beta_moment(e.a + f.b, s) if e.weight == f.weight else Fraction(0)
            for f in bv
        ]
        for e in bv
    ]
    g_w = [
        [
            _beta_moment(e.alpha + f.beta, s) if e.weight == f.weight else Fraction(0)
            for f in bw
        ]
        for e in bw
    ]
    return g_v, g_w


# ---------------------------------------------------------------------------
# Exact rank over Q
# ---------------------------------------------------------------------------


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a small matrix by fraction-exact Gaussian elimination."""
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


def _exact_rank_by_weight(problem: GalerkinProblem) -> int:
    """Rank of D over Q, block by weight; D preserves weights exactly."""
    bv = problem.basis_v()
    bw = problem.basis_w()
    v_by_weight: dict[int, list[BasisElementV]] = {}
    for e in bv:
        v_by_weight.setdefault(e.weight, []).append(e)
    w_pos: dict[int, dict[BasisElementW, int]] = {}
    for e in bw:
        block = w_pos.setdefault(e.weight, {})
        block[e] = len(block)
    total = 0
    for weight, elems in v_by_weight.items():
        targets = w_pos.get(weight, {})
        if not targets:
            continue
        block = [[Fraction(0)] * len(elems) for _ in targets]
        for col, elem in enumerate(elems):
            for coeff, target in _dbar_images(elem, problem.K):
                row = targets.get(target)
                if row is None:
                    raise BlockLeakError(
                        f"D maps {elem} outside its weight block (target {target})"
                    )
                block[row][col] = Fraction(coeff)
        total += _fraction_rank(block)
    return total


def exact_index(problem: GalerkinProblem) -> SpectralReport:
    """Kernel, cokernel, and index of the truncated complex, exactly over Q."""
    dim_v = len(problem.basis_v())
    dim_w = len(problem.basis_w())
    rank = _exact_rank_by_weight(problem)
    label = None if problem.equivariance is None else problem.equivariance.label
    return SpectralReport(
        dim_V=dim_v,
        dim_W=dim_w,
        ker_dim=dim_v - rank,
        coker_dim=dim_w - rank,
        index_exact=(dim_v - rank) - (dim_w - rank),
        supertrace_samples=(),
        block_label=label,
    )


# ---------------------------------------------------------------------------
# Floating-point spectra
# ---------------------------------------------------------------------------


def _gram_cholesky(gram: np.ndarray, problem: GalerkinProblem, space: str) -> np.ndarray:
    """Lower Cholesky factor of a float Gram matrix; NumericalBreakdown if none."""
    factor, info = dpotrf(gram, lower=1, clean=1)
    if info > 0:
        raise NumericalBreakdown(problem.d, problem.K, space, info, gram.shape[0])
    if info < 0:
        raise ValueError(f"LAPACK potrf rejected argument {-info}")
    return factor


def _orthonormalized_operator(problem: GalerkinProblem) -> np.ndarray:
    """D expressed in orthonormal bases: L_W^T D L_V^(-T), G = L L^T."""
    n_v = len(problem.basis_v())
    n_w = len(problem.basis_w())
    if n_v == 0 or n_w == 0:
        return np.zeros((n_w, n_v))
    d_mat = np.array(build_dbar_matrix(problem), dtype=float)
    g_v, g_w = gram_matrices(problem)
    gv = np.array([[float(x) for x in row] for row in g_v])
    gw = np.array([[float(x) for x in row] for row in g_w])
    l_v = _gram_cholesky(gv, problem, "section")
    l_w = _gram_cholesky(gw, problem, "form")
    # D * L_V^(-T) via a triangular solve, then the L_W^T factor
    right = solve_triangular(l_v, d_mat.T, lower=True).T
    return l_w.T @ right


def heat_spectra(problem: GalerkinProblem):
    """Eigenvalues of the two Laplacians and the singular values of D.

    Returns (evals_V, evals_W, sigma) where evals_V is the spectrum of
    D~* D~ on sections, evals_W that of D~ D~* on forms, and sigma the
    singular values of the orthonormalized D~, all ascending.  The two
    eigendecompositions are computed independently so that pairing of the
    nonzero spectra is a checkable property rather than a construction.
    """
    d_tilde = _orthonormalized_operator(problem)
    lap_v = d_tilde.T @ d_tilde
    lap_w = d_tilde @ d_tilde.T
    evals_v = np.linalg.eigvalsh(lap_v) if lap_v.size else np.zeros(lap_v.shape[0])
    evals_w = np.linalg.eigvalsh(lap_w) if lap_w.size else np.zeros(lap_w.shape[0])
    sigma = np.linalg.svd(d_tilde, compute_uv=False) if d_tilde.size else np.zeros(0)
    return evals_v, evals_w, np.sort(sigma)


def laplacian_pairing_defect(problem: GalerkinProblem) -> float:
    """Largest relative mismatch between the paired nonzero spectra.

    The exact rank says how many eigenvalues of each Laplacian are nonzero;
    those tails must agree with each other and with sigma^2.
    """
    rank = _exact_rank_by_weight(problem)
    evals_v, evals_w, sigma = heat_spectra(problem)
    if rank == 0:
        top = [np.max(np.abs(x), initial=0.0) for x in (evals_v, evals_w)]
        return float(max(top))
    pairs_v = evals_v[-rank:]
    pairs_w = evals_w[-rank:]
    sq = sigma[-rank:] ** 2
    scale = float(np.max(sq))
    defect = max(
        float(np.max(np.abs(pairs_v - pairs_w))),
        float(np.max(np.abs(pairs_v - sq))),
    )
    return defect / scale


def supertrace(
    problem: GalerkinProblem, t_values: tuple[float, ...] = (0.05, 0.5, 5.0)
) -> SpectralReport:
    """Exact index data plus heat supertrace samples str(t).

    str(t) = tr exp(-t D~* D~) - tr exp(-t D~ D~*), evaluated from the two
    independently diagonalized Laplacians.  Zero modes contribute 1 each, so
    every sample should reproduce ker - coker regardless of t.
    """
    base = exact_index(problem)
    evals_v, evals_w, _ = heat_spectra(problem)
    samples = []
    for t in t_values:
        if t < 0:
            raise ValueError("heat time must be nonnegative")
        value = float(np.sum(np.exp(-t * evals_v)) - np.sum(np.exp(-t * evals_w)))
        samples.append((float(t), value))
    return SpectralReport(
        dim_V=base.dim_V,
        dim_W=base.dim_W,
        ker_dim=base.ker_dim,
        coker_dim=base.coker_dim,
        index_exact=base.index_exact,
        supertrace_samples=tuple(samples),
        block_label=base.block_label,
    )


def equivariant_block_index(l: int, m: int, K: int) -> int:
    """Index of the weight block m mod l inside the degree-2m complex.

    Holomorphic sections in this block are the chart monomials z^a with
    a congruent to m modulo l, so the result should match the section count
    of the order-l quotient family at parameter m.
    """
    if not isinstance(l, int) or l < 2:
        raise ValueError(f"l must be an integer >= 2, got {l!r}")
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be an integer >= 0, got {m!r}")
    problem = GalerkinProblem(
        d=2 * m, K=K, equivariance=EquivariantRestriction(l=l, label=m % l)
    )
    return exact_index(problem).index_exact
