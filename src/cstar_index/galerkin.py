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
alone works out the blocks, each from its weight: the index ranges of its
sections and forms, and for each Gram block the first exponent of the Beta
moments of which it is the Hankel matrix.  By the formula above each
section meets at most two forms, so each D-block has just two nonzero
diagonals: `_d_block` reads their entries off the formula once, fills the
block's float transpose from them and ranks them over Q by sparse
fraction-free elimination (`_integer_rank`), once per distinct block and
process.  In the float walk every Gram block is read off one float moment
table per complex and factored, in weight order, before any D-block is
built or ranked, so the first block whose float Cholesky fails is the one
reported and a breakdown does no exact arithmetic; only then is each block
orthonormalized, and the blocks of each shape are diagonalized as one
stack.  `build_dbar_matrix` (its int entries read off the float
transposes, exactly, since none exceeds K in size) and `gram_matrices`
only place the blocks along the diagonal of full matrices, in block order:
weight ascending, then b (sections) or beta (forms) ascending.  Nothing in
the program uses them; the tests use them as the dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isfinite

import numpy as np

from .analytic import check_family_args

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
        # the exact type, so that bool, an int subclass, is refused
        if type(self.l) is not int or self.l < 2:
            raise ValueError(f"l must be an integer >= 2, got {self.l!r}")
        if type(self.label) is not int:
            raise ValueError(f"label must be an integer, got {self.label!r}")
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
        if type(self.K) is not int or self.K < 1:
            raise ValueError(f"truncation level K must be an integer >= 1, got {self.K!r}")
        if type(self.d) is not int:
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


@lru_cache(maxsize=1024)
def _float_moments(s: int) -> np.ndarray:
    """The floats of _beta_moment(c, s) for c = 0..s-2, read-only.

    Every Gram entry of a complex with this s is one of them: exponent sums
    run from 0 to (d + K) + K = s - 2 on sections and on forms alike.  Each
    is int true division, correctly rounded as float(Fraction) is, so no
    Fraction is built and _beta_moment's cache stays empty.
    """
    top = factorial(s - 1)
    table = np.array([factorial(c) * factorial(s - c - 2) / top for c in range(s - 1)])
    table.flags.writeable = False
    return table


def _weight_blocks(problem: GalerkinProblem):
    """Yield (weight, b-range, beta-range, c_V, c_W).

    Weights ascend from -K to d + K.  Block w holds the sections v_{b+w,b}
    and forms w_{beta+w+1,beta} for b and beta in the two ranges, in the
    order of the full bases.  The walk builds no D-block: a consumer that
    reads one calls `_d_block(K, b-range, beta-range)`, so a walk that stops
    at a Gram block, as the float walk does on a breakdown, builds none.
    Monomials of different weight are orthogonal (the angular integral
    vanishes), and an equal-weight pair gives the Beta moment of its
    exponent sum, so a Gram block of order n is the Hankel matrix of 2n - 1
    consecutive moments: entry (i, j) is the moment of exponent c + i + j,
    where c, yielded as c_V and c_W, is the exponent sum of the block's
    first element with itself.  Both spaces share
    s = 2K + d + 2 because the form pairing trades two powers of the
    conformal factor for the inverse metric on dzbar.
    """
    d, K = problem.d, problem.K
    for w in range(-K, d + K + 1):
        if problem.equivariance is not None and not problem.equivariance.keeps(w):
            continue
        bs = range(max(0, -w), min(K, d + K - w) + 1)
        betas = range(max(0, -w - 1), min(K - 1, d + K - w) + 1)
        yield w, bs, betas, 2 * bs.start + w, 2 * betas.start + w + 1


@lru_cache(maxsize=1024)
def _d_block(K: int, bs: range, betas: range):
    """(rank over Q, read-only float transpose) of the D-block on bs and betas,
    rows forms; the middle weights 0..d of a complex share it.

    Section b meets form b - 1 with entry b and form b with entry b - K, so
    the block has two nonzero diagonals.  Its nonzero entries are read off
    once, as one {form: entry} map per section; they fill the float
    transpose, and `_integer_rank` ranks them by sparse elimination.  The
    two entries that fall outside a block are exactly the zero ones: b = 0
    meets form -1, and b = K form K.
    """
    first = betas.start
    rows = [{j: x for j, x in ((b - 1 - first, b), (b - first, b - K)) if x} for b in bs]
    floats = np.zeros((len(betas), len(bs)))
    for col, row in enumerate(rows):
        for j, x in row.items():
            floats[j, col] = x
    floats.flags.writeable = False
    return _integer_rank(rows), floats.T


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
    K = problem.K
    # each entry is at most K in size, so its float holds it exactly
    blocks = (
        (betas, bs, _d_block(K, bs, betas)[1].T.astype(int).tolist())
        for _, bs, betas, _, _ in _weight_blocks(problem)
    )
    return _block_diagonal(blocks, 0)


def gram_matrices(problem: GalerkinProblem):
    """Exact Gram matrices (G_V, G_W) in the block order of build_dbar_matrix:
    each diagonal block is the Hankel matrix of its moments, zero elsewhere."""
    s = 2 * problem.K + problem.d + 2

    def hankel(first, n):
        return [[_beta_moment(first + i + j, s) for j in range(n)] for i in range(n)]

    v_blocks, w_blocks = [], []
    for _, bs, betas, c_v, c_w in _weight_blocks(problem):
        v_blocks.append((bs, bs, hankel(c_v, len(bs))))
        w_blocks.append((betas, betas, hankel(c_w, len(betas))))
    return _block_diagonal(v_blocks, Fraction(0)), _block_diagonal(w_blocks, Fraction(0))


# ---------------------------------------------------------------------------
# Exact rank over Q
# ---------------------------------------------------------------------------


def _integer_rank(rows) -> int:
    """Rank over Q of an integer matrix by sparse fraction-free elimination.

    Each row is a {column: entry} map of its nonzero entries.  A row is
    reduced against the basis row that owns its leading (least) column, as
    pivot * row - entry * basis row, which stays in the integers and clears
    that column; dividing the result by the gcd of its entries keeps them
    from growing.  The row stops when it vanishes or leads a column that no
    basis row owns, and then joins the basis.  Basis rows lead distinct
    columns, so they are independent, and the rank is their number.
    """
    basis = {}
    for row in rows:
        while row:
            lead = min(row)
            top = basis.get(lead)
            if top is None:
                basis[lead] = row
                break
            pv, c = top[lead], row[lead]
            reduced = {col: pv * x for col, x in row.items()}
            for col, y in top.items():
                reduced[col] = reduced.get(col, 0) - c * y
            g = gcd(*reduced.values())
            row = {col: x // g for col, x in reduced.items() if x}
    return len(basis)


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
    for _, bs, betas, _, _ in _weight_blocks(problem):
        dim_v += len(bs)
        dim_w += len(betas)
        rank += _d_block(problem.K, bs, betas)[0]
    return _report(problem, dim_v, dim_w, rank)


# ---------------------------------------------------------------------------
# Floating-point spectra
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _hankel_index(n: int) -> np.ndarray:
    """The read-only n x n matrix of i + j."""
    index = np.add.outer(np.arange(n), np.arange(n))
    index.flags.writeable = False
    return index


def _gram_cholesky(
    dpotrf, moments: np.ndarray, first: int, n: int, problem: GalerkinProblem, space: str, weight: int
) -> np.ndarray:
    """Lower float Cholesky factor, by LAPACK's dpotrf, of the n x n Hankel
    block of moments[first:], or NumericalBreakdown."""
    hankel = moments[first + _hankel_index(n)]
    factor, info = dpotrf(hankel, lower=1, clean=1)
    if info > 0:
        raise NumericalBreakdown(problem.d, problem.K, space, weight, info, n)
    if info < 0:
        raise ValueError(f"LAPACK potrf rejected argument {-info}")
    return factor


def _block_spectra(problem: GalerkinProblem):
    """One walk over the weight blocks: (rank over Q, evals_V, evals_W, sigma).

    The first pass reads every Gram block off one float moment table and
    factors it, G = L L^T, in weight order, so the first block whose float
    Cholesky fails raises before any D-block is built or ranked: a
    breakdown does no exact arithmetic.  The second pass takes each block's
    cached `_d_block` pair, adds its rank over Q and forms
    D~ = L_W^T D L_V^(-T).  The D~ blocks are
    stacked by shape, and each stack takes one call per eigensolve and one
    SVD, which run the same LAPACK routine on every matrix of the stack.
    The spectra are sorted together.  sigma has min(dim_V, dim_W) entries,
    as for the full D~, because n_V - n_W has the sign of d + 1 in every
    block.
    """
    # scipy loads only where a float walk runs, once per walk
    from scipy.linalg.lapack import dpotrf, dtrtrs

    moments = _float_moments(2 * problem.K + problem.d + 2)
    factored = []
    for weight, bs, betas, c_v, c_w in _weight_blocks(problem):
        l_v = _gram_cholesky(dpotrf, moments, c_v, len(bs), problem, "section", weight)
        l_w = _gram_cholesky(dpotrf, moments, c_w, len(betas), problem, "form", weight)
        factored.append((bs, betas, l_v, l_w))
    rank = 0
    by_shape = {}
    for bs, betas, l_v, l_w in factored:
        block_rank, d_t = _d_block(problem.K, bs, betas)
        rank += block_rank
        # D * L_V^(-T) via a triangular solve, then the L_W^T factor
        solved, info = dtrtrs(l_v, d_t, lower=1)
        if info != 0:
            raise ValueError(f"LAPACK trtrs returned info {info}")
        d_tilde = l_w.T @ solved.T
        by_shape.setdefault(d_tilde.shape, []).append(d_tilde)
    parts_v, parts_w, parts_sigma = [np.zeros(0)], [np.zeros(0)], [np.zeros(0)]
    for blocks in by_shape.values():
        stack = np.stack(blocks)
        stack_t = stack.transpose(0, 2, 1)
        parts_v.append(np.linalg.eigvalsh(stack_t @ stack).ravel())
        parts_w.append(np.linalg.eigvalsh(stack @ stack_t).ravel())
        parts_sigma.append(np.linalg.svd(stack, compute_uv=False).ravel())
    evals_v = np.sort(np.concatenate(parts_v))
    evals_w = np.sort(np.concatenate(parts_w))
    sigma = np.sort(np.concatenate(parts_sigma))
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


# supertrace's default heat times, which the CLI shares; like
# check_heat_times and DEFECT_GATES, public to the package's modules but not
# in __all__
HEAT_TIMES = (0.05, 0.5, 5.0)

# the most each defect of a supertrace report may be, by the name the CLI
# prints it under: every sample's distance from the exact index, and the
# pairing defect
DEFECT_GATES = {"max_supertrace_deviation": 1e-8, "pairing_defect": 1e-10}


def check_heat_times(t_values) -> None:
    """Refuse a heat time that is negative, NaN or infinite."""
    if not all(isfinite(t) and t >= 0 for t in t_values):
        raise ValueError("heat time must be nonnegative and finite")


def supertrace(
    problem: GalerkinProblem, t_values: tuple[float, ...] = HEAT_TIMES
) -> SpectralReport:
    """Exact index data, heat supertrace samples str(t) and the pairing defect.

    str(t) = tr exp(-t D~* D~) - tr exp(-t D~ D~*), evaluated from the two
    independently diagonalized Laplacians.  Zero modes contribute 1 each, so
    every sample should reproduce ker - coker regardless of t.  A sample that
    is not finite raises NonFiniteSupertrace.
    """
    check_heat_times(t_values)
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
    check_family_args(l, m)
    problem = GalerkinProblem(
        d=2 * m, K=K, equivariance=EquivariantRestriction(l=l, label=m % l)
    )
    return exact_index(problem).index_exact
