"""Cyclotomic polynomials and exact Lefschetz fixed-point sums.

The fixed-point character sums used by the index checks run over nontrivial
N-th roots of unity.  Each is Galois invariant, hence rational, and this
module certifies that rationality instead of trusting a floating-point
imaginary part to be small.

A sum is evaluated in the integer group ring Z[x]/(x^N - 1): for x^N = 1,
x != 1 the identity 1/(1 - x) = -(1/N) sum_{i<N} (i+1) x^i turns every term
into integer-weighted powers of zeta, which accumulate into one exponent
histogram.  Every sum is first brought to normal weight 1 by substituting
k -> a^(-1) k, so one cache, of up to 1024 sums, serves every normal
weight; Phi_N is memoized up to 1024 orders as well.  One helper,
_certified_sums, reduces a histogram modulo the monic N-th cyclotomic
polynomial Phi_N to its coefficients in the power basis 1, zeta, ...,
zeta^(phi(N)-1), by a fold and the integer long division that also builds
Phi_N as Phi_M(x^p) / Phi_M(x), p the largest prime factor of N and M = N/p
(no division when p divides M).  Phi_N is irreducible over Q, so that basis
is linearly independent over Q: the sum is rational exactly when every
integer coefficient beyond the constant term vanishes, and the constant term
then gives its value.  A single sum needs O(N) memory beyond one histogram
block.  A sweep over every residue b of an order N counts once how often
each product k j hits each exponent and reads every residue's histogram off
that N x N count matrix in O(N^2), instead of one (k, i) table per residue.
That route is capped at N^2 <= _HIST_BLOCK entries (N <= 1024), where it
needs a few block-sized arrays; larger orders are summed one residue at a
time.  Either way no table is kept per order besides Phi_N itself.

General field arithmetic in Q(zeta_N), with an extended-Euclid inverse, is
kept outside the package as the test suite's oracle
(tests/_cyclotomic_field.py); the tests check these sums term by term
against it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

Rational = Fraction

__all__ = [
    "Rational",
    "NotRationalError",
    "OrderTooLargeError",
    "parse_rational",
    "format_rational",
    "cyclotomic_polynomial",
    "lefschetz_point_sum",
    "unit_root_reciprocal_sum",
]


class NotRationalError(ValueError):
    """Raised when a fixed-point sum expected to be rational is not."""


class OrderTooLargeError(OverflowError):
    """Raised when an isotropy order is too large for exact point sums."""


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-free "p/q" or "p" string into a Fraction.

    Strings containing '.' are rejected so that serialized rationals never
    pass through floating point.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not a decimal-free rational: {text!r}")
    return Fraction(s)


def format_rational(q: Fraction | int) -> str:
    """Render a Fraction or an int as "p/q" ("p" when the denominator is 1)."""
    return _ratio_text(q.numerator, q.denominator)


def _ratio_text(num: int, den: int) -> str:
    """Render a reduced pair with den > 0 as "num/den" ("num" when den is 1)."""
    return str(num) if den == 1 else f"{num}/{den}"


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense, ascending coefficients)
# ---------------------------------------------------------------------------


def _poly_divmod(
    num: tuple[int, ...], den: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of integer polynomials by a monic divisor.

    The remainder has exactly deg(den) coefficients.  The work is done in
    Python ints, so no step can overflow, and each step visits only the
    divisor's nonzero coefficients below its leading one.
    """
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    deg = len(den) - 1
    terms = [(i, d) for i, d in enumerate(den[:deg]) if d]
    rem = list(num) + [0] * (deg - len(num))
    quot = [0] * (len(num) - deg)
    for shift in range(len(quot) - 1, -1, -1):
        c = rem[shift + deg]
        if c:
            quot[shift] = c
            for i, d in terms:
                rem[shift + i] -= c * d
    return tuple(quot), tuple(rem[:deg])


def _least_prime(n: int) -> int:
    """Least prime factor of n >= 2."""
    return next((p for p in range(2, isqrt(n) + 1) if n % p == 0), n)


@lru_cache(maxsize=1024)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """N-th cyclotomic polynomial as ascending integer coefficients.

    With p the largest prime factor of n and m = n/p, Phi_n(x) is Phi_m(x^p)
    when p divides m and Phi_m(x^p) / Phi_m(x), by exact integer long
    division, otherwise.  No floating point; the recursion depth is the
    number of prime factors of n, counted with multiplicity.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return (-1, 1)
    p = n  # divide out least prime factors until the largest prime is left
    while (q := _least_prime(p)) < p:
        p //= q
    m = n // p
    inner = cyclotomic_polynomial(m)
    poly = [0] * ((len(inner) - 1) * p + 1)
    poly[::p] = inner  # Phi_m(x^p)
    if m % p:
        poly, rem = _poly_divmod(poly, inner)
        if any(rem):
            raise ValueError("polynomial division left a remainder")
    return tuple(poly)


def _certified_sums(n: int, hists: np.ndarray, residues) -> tuple[Fraction, ...]:
    """The point sums -c_0 / n^2 of the residues b from their int64 histograms.

    hists has one histogram per row, in the order of residues, and c is a
    row reduced modulo Phi_n.  The rows are first folded modulo
    F = (x^n - 1)/(x^(n/q) - 1) = sum_{j<q} x^(j n/q), q the least prime
    factor of n: Phi_n divides F, since it shares no root with x^(n/q) - 1,
    so the fold keeps the class modulo Phi_n.  The fold is one int64
    subtraction of the top block of n/q coefficients from the others, for
    every row at once.  Long division by Phi_n on Python ints finishes each
    row, with no step for a prime or prime-power n.  A sum is rational
    exactly when its c vanishes beyond the constant term (NotRationalError
    otherwise).
    """
    blocks = hists.reshape(len(hists), _least_prime(n), -1)
    folded = (blocks[:, :-1] - blocks[:, -1:]).reshape(len(hists), -1)
    phi = cyclotomic_polynomial(n)
    sums = []
    for b, row in zip(residues, folded):
        _, coeffs = _poly_divmod(row.tolist(), phi)
        if any(coeffs[1:]):
            raise NotRationalError(
                f"point sum ({n}, 1, {b}) has nonzero higher coefficients: {list(coeffs)}"
            )
        sums.append(Fraction(-coeffs[0], n * n))
    return tuple(sums)


_HIST_BLOCK = 2**20


@lru_cache(maxsize=1024)
def _point_sum(n: int, b: int) -> Fraction:
    """Exact (1/n) sum_{k=1}^{n-1} zeta^(bk) / (1 - zeta^(-k)).

    For x^n = 1, x != 1 the inverse is 1/(1 - x) = -(1/n) sum_{i<n} (i+1) x^i,
    so the value is -1/n^2 times the group-ring element whose coefficient at
    e is the total weight i+1 of the pairs (k, i) with k(b - i) = e mod n,
    reduced and certified by _certified_sums.

    The histogram's entries sum to (n-1) n(n+1)/2, which the order guard
    keeps below 2**53, so every float64 partial sum is an exact integer.
    The (k, i) exponent table is built in row blocks of at most _HIST_BLOCK
    entries (one block up to n = 1024).  Memory is O(n) beyond one
    histogram block.
    """
    if (n - 1) * n * (n + 1) // 2 >= 2**53:
        raise OrderTooLargeError(f"order {n} is too large for exact point sums")
    i = np.arange(n)
    shifts = b - i
    rows = _HIST_BLOCK // n  # n is at most 2**18 once the order guard passes
    hist = np.zeros(n)
    for k0 in range(1, n, rows):
        exponents = np.outer(np.arange(k0, min(k0 + rows, n)), shifts)
        exponents %= n  # in place: no third block-sized array
        weights = np.empty(exponents.shape)
        weights[:] = i + 1  # faster than raveling np.broadcast_to for small n
        hist += np.bincount(exponents.ravel(), weights.ravel(), minlength=n)
    return _certified_sums(n, hist.astype(np.int64)[None], (b,))[0]


def _order_point_sums(n: int, count: int) -> tuple[Fraction, ...]:
    """_point_sum(n, b) for the residues b < count of an order n >= 2.

    With j = b - i the histogram of residue b is sum_j C[e, j] ((b-j mod n) + 1),
    where C[e, j] = #{k in 1..n-1 : k j = e mod n} does not depend on b.
    Splitting the weight at j <= b gives, for every residue at once,

        H[e, b] = (b + 1) sum_j C[e, j] - sum_j j C[e, j] + n sum_{j>b} C[e, j],

    O(n^2) from one C counted off the n(n-1) products k j, instead of one
    (k, i) table per residue.  Entries stay below 2 n^3, exact in int64.
    Every column goes through _certified_sums at once.  C and H are n x n, so
    only orders with n^2 <= _HIST_BLOCK take this route, in a few
    block-sized arrays; larger orders return _point_sum per residue.
    """
    if n * n > _HIST_BLOCK:
        return tuple(_point_sum(n, b) for b in range(count))
    j = np.arange(n)
    cells = np.outer(np.arange(1, n), j)
    cells %= n  # e = k j mod n
    cells *= n
    cells += j
    counts = np.bincount(cells.ravel(), minlength=n * n).reshape(n, n)
    del cells
    totals = counts.sum(axis=1)
    moments = counts @ j
    np.cumsum(counts, axis=1, out=counts)  # sum_{j'<=j} C[e, j']
    counts *= n
    # H transposed, one residue per row: n sum_{j>b} C = n totals - n prefix
    hist = np.outer(j[:count] + (n + 1), totals)
    hist -= moments
    hist -= counts[:, :count].T
    del counts
    return _certified_sums(n, hist, range(count))


def lefschetz_point_sum(n: int, a: int, b: int) -> Fraction:
    """Fixed-point contribution (1/N) * sum_{k=1}^{N-1} z^(bk) / (1 - z^(-ak)).

    Here z = zeta_N, N = n >= 2 is the isotropy order, a is the rotation
    weight on the normal direction (must be a unit mod N so every nontrivial
    k gives a nonzero denominator), and b is the bundle weight.  The sum is
    invariant under every Galois automorphism (it permutes the terms), hence
    rational.  It is computed exactly as an integer power-basis vector modulo
    Phi_N and certified rational on those integers (NotRationalError
    otherwise) before any rounding can occur.  Substituting k -> a^(-1) k,
    which permutes the nontrivial k, turns the sum into the one with normal
    weight 1 and bundle weight b a^(-1) mod N, so every normal weight shares
    the cached sums of weight 1.
    """
    if n < 2:
        raise ValueError("isotropy order must be at least 2")
    a = a % n
    if gcd(a, n) != 1:
        raise ValueError(f"normal weight {a} is not a unit modulo {n}")
    return _point_sum(n, b * pow(a, -1, n) % n)


def unit_root_reciprocal_sum(n: int) -> Fraction:
    """Exact value of sum_{k=1}^{N-1} 1 / (zeta_N^k - 1).

    Substituting k -> -k makes it -N times the weight-1 sum with b = 0, the
    cached value of lefschetz_point_sum(N, 1, 0).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return -n * _point_sum(n, 0)
