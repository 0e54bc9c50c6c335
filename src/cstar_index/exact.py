"""Cyclotomic polynomials and exact Lefschetz fixed-point sums.

The fixed-point character sums used by the index checks run over nontrivial
N-th roots of unity.  Each is Galois invariant, hence rational, and this
module certifies that rationality instead of trusting a floating-point
imaginary part to be small.

A sum is evaluated in the integer group ring Z[x]/(x^N - 1): for x^N = 1,
x != 1 the identity 1/(1 - x) = -(1/N) sum_{i<N} (i+1) x^i turns every term
into integer-weighted powers of zeta, which accumulate into one exponent
histogram.  That histogram is reduced once modulo the monic N-th cyclotomic
polynomial Phi_N, in integer arithmetic, to its coefficients in the power
basis 1, zeta, ..., zeta^(phi(N)-1).  Phi_N is irreducible over Q, so that
basis is linearly independent over Q: the sum is rational exactly when every
integer coefficient beyond the constant term vanishes, and the constant term
then gives its value.

General field arithmetic in Q(zeta_N), with an extended-Euclid inverse, is
kept outside the package as the test suite's oracle
(tests/_cyclotomic_field.py); the tests check these sums term by term
against it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

Rational = Fraction

__all__ = [
    "Rational",
    "NotRationalError",
    "parse_rational",
    "format_rational",
    "cyclotomic_polynomial",
    "lefschetz_point_sum",
    "unit_root_reciprocal_sum",
]


class NotRationalError(ValueError):
    """Raised when a fixed-point sum expected to be rational is not."""


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-free "p/q" or "p" string into a Fraction.

    Strings containing '.' are rejected so that serialized rationals never
    pass through floating point.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"not a decimal-free rational: {text!r}")
    return Fraction(s)


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q" ("p" when the denominator is 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense, ascending coefficients)
# ---------------------------------------------------------------------------


def _poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_divide_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Divide integer polynomials known to divide exactly (monic divisor)."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = rem[shift + len(den) - 1]
        quot[shift] = c
        if c:
            for i, d in enumerate(den):
                rem[shift + i] -= c * d
    if any(rem):
        raise ValueError("polynomial division left a remainder")
    return _poly_trim(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """N-th cyclotomic polynomial as ascending integer coefficients.

    Computed by exact recursive division of x^n - 1 by the cyclotomic
    polynomials of the proper divisors of n.  No floating point and no
    Moebius shortcuts; the recursion depth is the divisor lattice height.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return (-1, 1)
    poly = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
    return poly


@lru_cache(maxsize=None)
def _reduction_matrix(n: int) -> np.ndarray:
    """The (n, phi) int64 matrix whose row e is x^e mod Phi_n, e < n.

    Each row is the previous one times x, with x^phi folded back through
    x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1}); Phi_n is monic, so
    every entry is an integer.  A point-sum histogram has entries summing to
    (n-1) * n(n+1)/2; the bound check keeps that sum exact in float64 and
    its product with this matrix exact in int64.  The first bound depends on
    n alone, so it is checked before anything is built.
    """
    weight = (n - 1) * n * (n + 1) // 2
    if weight >= 2**53:
        raise OverflowError(f"order {n} is too large for exact int64 point sums")
    big_phi = cyclotomic_polynomial(n)
    phi = len(big_phi) - 1
    fold = [-c for c in big_phi[:phi]]
    rows = []
    row = [1] + [0] * (phi - 1)
    for _ in range(n):
        rows.append(row)
        lead = row[-1]
        row = [0] + row[:-1]
        if lead:
            row = [r + lead * f for r, f in zip(row, fold)]
    top = max(abs(c) for r in rows for c in r)
    if top * weight >= 2**63:
        raise OverflowError(f"order {n} is too large for exact int64 point sums")
    return np.array(rows, dtype=np.int64)


_HIST_BLOCK = 2**20


@lru_cache(maxsize=None)
def _point_sum(n: int, a: int, b: int) -> Fraction:
    """Exact (1/n) sum_{k=1}^{n-1} zeta^(bk) / (1 - zeta^(-ak)), a a unit mod n.

    For x^n = 1, x != 1 the inverse is 1/(1 - x) = -(1/n) sum_{i<n} (i+1) x^i,
    so the value is -1/n^2 times the group-ring element whose coefficient at
    e is the total weight i+1 of the pairs (k, i) with k(b - a i) = e mod n.
    That histogram is reduced once modulo Phi_n; the reduced integer vector
    is rational exactly when its coefficients beyond the constant term vanish.

    The (k, i) exponent table is built in row blocks of at most _HIST_BLOCK
    entries (one block up to n = 1024), so the histogram needs O(n) memory
    beyond one block; the partial sums are integers below the 2**53 guard of
    _reduction_matrix, so they stay exact.  The reduction matrix itself stays
    O(n * phi(n)).
    """
    matrix = _reduction_matrix(n)
    i = np.arange(n)
    shifts = b - a * i
    rows = _HIST_BLOCK // n  # n is at most 2**18 once the matrix guard passes
    hist = np.zeros(n)
    for k0 in range(1, n, rows):
        exponents = np.outer(np.arange(k0, min(k0 + rows, n)), shifts)
        exponents %= n  # in place: no third block-sized array
        weights = np.empty(exponents.shape)
        weights[:] = i + 1  # faster than raveling np.broadcast_to for small n
        hist += np.bincount(exponents.ravel(), weights.ravel(), minlength=n)
    coeffs = hist.astype(np.int64) @ matrix
    if coeffs[1:].any():
        raise NotRationalError(
            f"point sum ({n}, {a}, {b}) has nonzero higher coefficients: {coeffs.tolist()}"
        )
    return Fraction(-int(coeffs[0]), n * n)


def lefschetz_point_sum(n: int, a: int, b: int) -> Fraction:
    """Fixed-point contribution (1/N) * sum_{k=1}^{N-1} z^(bk) / (1 - z^(-ak)).

    Here z = zeta_N, N = n >= 2 is the isotropy order, a is the rotation
    weight on the normal direction (must be a unit mod N so every nontrivial
    k gives a nonzero denominator), and b is the bundle weight.  The sum is
    invariant under every Galois automorphism (it permutes the terms), hence
    rational.  It is computed exactly as an integer power-basis vector modulo
    Phi_N and certified rational on those integers (NotRationalError
    otherwise) before any rounding can occur.
    """
    if n < 2:
        raise ValueError("isotropy order must be at least 2")
    a = a % n
    b = b % n
    if gcd(a, n) != 1:
        raise ValueError(f"normal weight {a} is not a unit modulo {n}")
    return _point_sum(n, a, b)


def unit_root_reciprocal_sum(n: int) -> Fraction:
    """Exact value of sum_{k=1}^{N-1} 1 / (zeta_N^k - 1)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return -n * _point_sum(n, n - 1, 0)
