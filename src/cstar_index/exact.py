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
weight.  One helper, _certified_sums, reduces histograms to coordinates in
the CRT tensor basis of Z[zeta_N], with no division by Phi_N.  With
N = q_1 ... q_k, q_i = p_i^(a_i) its prime-power factors, the Chinese
remainder theorem gives Z[C_N] = (x) Z[C_(q_i)] and Z[zeta_N] = (x)
Z[zeta_(q_i)], since cyclotomic fields of coprime orders are linearly
disjoint (Washington, Introduction to Cyclotomic Fields, ch. 2).  Entry e
of a histogram goes to (e mod q_1, ..., e mod q_k); on each axis
Phi_q(x) = sum_{j<p} x^(j q/p), so the top block of q/p entries folds into
the others by one int64 subtraction, for every histogram at once.  The
result is the coordinate vector in the product of the power bases 1, zeta_q,
..., zeta_q^(phi(q)-1), a Z-basis of Z[zeta_N] that contains 1: a sum is
rational exactly when every coordinate but (0, ..., 0) vanishes, and that
one gives its value.  A fold at most doubles the largest magnitude and the
histogram entries stay below 2 N^3, so every coordinate is below
2^omega(N) 2 N^3 < 2^63 under the order guard (N <= 2^18, omega(N) <= 6).
The placement is one permutation per composite order, cached for up to 1024
orders; a prime power needs none.  A single sum needs O(N) memory beyond
one histogram block.  A sweep over every residue b of an order N counts
once how often each product k j hits each exponent and reads every
residue's histogram off that N x N count matrix in O(N^2), instead of one
(k, i) table per residue.  That route is capped at N^2 <= _HIST_BLOCK
entries (N <= 1024), where it needs a few block-sized arrays; larger orders
are summed one residue at a time.

cyclotomic_polynomial builds Phi_N by exact integer long division and is
public, but no point sum consults it: with _poly_divmod it is the tests'
oracle for the CRT coordinates.  General field arithmetic in Q(zeta_N), with
an extended-Euclid inverse, is kept outside the package as the test suite's
oracle as well (tests/_cyclotomic_field.py); the tests check these sums term
by term against it.
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


@lru_cache(maxsize=1024)
def _crt_layout(n: int) -> tuple[np.ndarray | None, tuple[tuple[int, int], ...]]:
    """The prime-power factors (q, p) of n >= 2 and the CRT placement of entries.

    The placement is a read-only permutation: column j of hists[:, perm] is
    the entry e whose (e mod q_1, ..., e mod q_k) is the j-th index in
    row-major order.  A prime power has the identity and gets None.
    """
    factors, rest = [], n
    while rest > 1:
        p = q = _least_prime(rest)
        while (rest := rest // p) % p == 0:
            q *= p
        factors.append((q, p))
    if len(factors) == 1:
        return None, tuple(factors)
    e, place = np.arange(n), 0
    for q, _ in factors:
        place = place * q + e % q  # row-major index of (e mod q_1, ..., e mod q_k)
    perm = np.empty(n, dtype=np.intp)
    perm[place] = e
    perm.flags.writeable = False
    return perm, tuple(factors)


def _crt_coordinates(n: int, hists: np.ndarray) -> np.ndarray:
    """The int64 histograms' coordinates in the CRT tensor basis of Z[zeta_n].

    One row of phi(n) coordinates per histogram, row-major over the axes of
    the prime powers q; the constant coordinate is column 0.  Each axis folds
    its top block of q/p entries into the other p - 1 blocks, since
    Phi_q(x) = sum_{j<p} x^(j q/p); see the module docstring for the bound.
    """
    perm, factors = _crt_layout(n)
    coords = hists if perm is None else hists[:, perm]
    tail = n
    for q, p in factors:
        tail //= q  # entries per step of this axis's index
        blocks = coords.reshape(-1, p, q // p * tail)
        coords = blocks[:, :-1] - blocks[:, -1:]
    return coords.reshape(len(hists), -1)


def _certified_sums(n: int, hists: np.ndarray, residues) -> tuple[Fraction, ...]:
    """The point sums -c_0 / n^2 of the residues b from their int64 histograms.

    hists has one histogram per row, in the order of residues, and c is its
    row of _crt_coordinates.  A sum is rational exactly when its c vanishes
    beyond the constant coordinate (NotRationalError otherwise).
    """
    coords = _crt_coordinates(n, hists)
    if coords[:, 1:].any():
        b = residues[int(coords[:, 1:].any(axis=1).argmax())]
        raise NotRationalError(f"point sum ({n}, 1, {b}) has a nonzero CRT coordinate beyond the constant one")
    return tuple(Fraction(-c, n * n) for c in coords[:, 0].tolist())


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
    rational.  It is computed exactly as integer coordinates in the CRT
    tensor basis of Z[zeta_N] and certified rational on those integers
    (NotRationalError otherwise) before any rounding can occur.  Substituting k -> a^(-1) k,
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
