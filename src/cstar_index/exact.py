"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) with
rational coefficients, reduced modulo the N-th cyclotomic polynomial.  Since
Phi_N is irreducible over Q this representation is canonical: an element is
rational exactly when every coefficient beyond the constant term vanishes.

The point of doing this exactly is the fixed-point character sums used by the
index checks.  Each sum over nontrivial N-th roots of unity is Galois
invariant, hence rational, and the arithmetic here certifies that rationality
instead of trusting a floating-point imaginary part to be small.

The sums themselves are evaluated in the integer group ring Z[x]/(x^N - 1):
for x^N = 1, x != 1 the identity 1/(1 - x) = -(1/N) sum_{i<N} (i+1) x^i turns
every term into integer-weighted powers of zeta, which accumulate into one
exponent histogram.  That histogram is reduced once modulo the monic Phi_N in
integer arithmetic, and the resulting power-basis element is certified
rational by assert_rational.  CyclotomicElement with its extended-Euclid
inverse is the general field arithmetic, and the reference the tests check
the sums against.
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
    "CyclotomicElement",
    "root_of_unity",
    "assert_rational",
    "lefschetz_point_sum",
    "unit_root_reciprocal_sum",
]


class NotRationalError(ValueError):
    """Raised when a cyclotomic element expected to be rational is not."""


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


def _euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Representations of x^j mod Phi_n for j = 0 .. max(n-1, 2*phi-2).

    Products of two reduced elements have degree at most 2*phi - 2, and raw
    roots of unity need exponents up to n - 1, so this table covers every
    reduction the element arithmetic performs.  Phi_n is monic, so every
    entry is an integer.
    """
    phi = _euler_phi(n)
    top = max(n - 1, 2 * phi - 2)
    big_phi = cyclotomic_polynomial(n)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
    fold = tuple(-c for c in big_phi[:phi])
    table: list[tuple[int, ...]] = []
    for j in range(top + 1):
        if j < phi:
            row = [0] * phi
            row[j] = 1
            table.append(tuple(row))
        else:
            prev = table[j - 1]
            row = [0] + list(prev[: phi - 1])
            lead = prev[phi - 1]
            if lead:
                row = [r + lead * f for r, f in zip(row, fold)]
            table.append(tuple(row))
    return tuple(table)


def _reduce(n: int, raw: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce an arbitrary-degree coefficient list modulo Phi_n."""
    phi = _euler_phi(n)
    table = _power_table(n)
    out = list(raw[:phi]) + [Fraction(0)] * max(0, phi - len(raw))
    for j in range(phi, len(raw)):
        c = raw[j]
        if c:
            row = table[j]
            for i in range(phi):
                out[i] += c * row[i]
    return tuple(out[:phi])


# ---------------------------------------------------------------------------
# Rational polynomial helpers for inversion (extended Euclid in Q[x])
# ---------------------------------------------------------------------------


def _qpoly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _qpoly_divmod(num: list[Fraction], den: list[Fraction]):
    quot = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    rem = list(num)
    inv_lead = 1 / den[-1]
    while len(rem) >= len(den) and _qpoly_trim(rem):
        if len(rem) < len(den):
            break
        shift = len(rem) - len(den)
        c = rem[-1] * inv_lead
        quot[shift] = c
        for i, d in enumerate(den):
            rem[shift + i] -= c * d
        rem.pop()
    return _qpoly_trim(quot), _qpoly_trim(rem)


def _qpoly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _qpoly_trim(out)


def _qpoly_sub(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    return _qpoly_trim(out)


class CyclotomicElement:
    """An element of Q(zeta_N) in the power basis modulo Phi_N.

    Immutable.  Supports +, -, *, /, ** with other elements of the same
    order and with int/Fraction scalars.  Mixing distinct orders raises
    ValueError rather than silently embedding into a common field.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if order < 1:
            raise ValueError("order must be a positive integer")
        phi = _euler_phi(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            cs = list(_reduce(order, cs))
        else:
            cs = cs + [Fraction(0)] * (phi - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(order: int, value) -> "CyclotomicElement":
        return CyclotomicElement(order, [Fraction(value)])

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.rational(self.order, other)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CyclotomicElement(
            self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CyclotomicElement(
            self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)]
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        phi = len(self.coeffs)
        raw = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        raw[i + j] += a * b
        return CyclotomicElement(self.order, _reduce(self.order, raw))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """Multiplicative inverse via extended Euclid against Phi_N.

        Phi_N is irreducible, so any nonzero residue is invertible and the
        Bezout identity s*u + t*Phi = 1 yields the inverse exactly.
        """
        if not self:
            raise ZeroDivisionError("cyclotomic element is zero")
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi_poly, _qpoly_trim(list(self.coeffs))
        s0: list[Fraction] = []
        s1: list[Fraction] = [Fraction(1)]
        while r1:
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _qpoly_sub(s0, _qpoly_mul(q, s1))
        # r0 is a nonzero constant gcd; scale the Bezout coefficient by it
        if len(r0) != 1:
            raise ArithmeticError("gcd with Phi_N is not constant")
        scale = 1 / r0[0]
        return CyclotomicElement(self.order, [c * scale for c in s0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicElement.rational(self.order, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- field structure ---------------------------------------------------

    def galois(self, c: int) -> "CyclotomicElement":
        """Apply the Galois automorphism zeta -> zeta^c, gcd(c, N) = 1."""
        n = self.order
        c = c % n
        if gcd(c, n) != 1:
            raise ValueError(f"{c} is not coprime to {n}")
        table = _power_table(n)
        phi = len(self.coeffs)
        out = [Fraction(0)] * phi
        for i, a in enumerate(self.coeffs):
            if a:
                row = table[(i * c) % n]
                for j in range(phi):
                    out[j] += a * row[j]
        return CyclotomicElement(n, out)

    def conjugate(self) -> "CyclotomicElement":
        return self.galois(-1)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_complex(self) -> complex:
        """Floating-point image under zeta -> exp(2*pi*i/N)."""
        import cmath

        z = complex(0.0)
        for i, a in enumerate(self.coeffs):
            if a:
                z += float(a) * cmath.exp(2j * cmath.pi * i / self.order)
        return z

    # -- comparisons -------------------------------------------------------

    def __bool__(self) -> bool:
        return any(c != 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CyclotomicElement):
            if self.order != other.order:
                # Equal only if both sit in the common rational subfield.
                return (
                    self.is_rational()
                    and other.is_rational()
                    and self.coeffs[0] == other.coeffs[0]
                )
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(format_rational(a))
            else:
                coef = "" if a == 1 else ("-" if a == -1 else format_rational(a) + "*")
                power = "z" if i == 1 else f"z^{i}"
                terms.append(f"{coef}{power}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc({self.order}: {body})"


def root_of_unity(n: int, k: int = 1) -> CyclotomicElement:
    """zeta_n^k as an exact cyclotomic element."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    table = _power_table(n)
    return CyclotomicElement(n, table[k % n])


def assert_rational(u: CyclotomicElement) -> Fraction:
    """Certify that u lies in Q and return it as a Fraction.

    In the power basis this is exact: the basis elements are linearly
    independent over Q, so rationality is equivalent to all higher
    coefficients vanishing.
    """
    if not u.is_rational():
        raise NotRationalError(
            f"element of Q(zeta_{u.order}) has nonzero higher coefficients: {u!r}"
        )
    return u.coeffs[0]


@lru_cache(maxsize=None)
def _reduction_matrix(n: int) -> np.ndarray:
    """The (n, phi) int64 matrix whose row e is x^e mod Phi_n, e < n.

    A point-sum histogram has entries summing to (n-1) * n(n+1)/2; the
    bound check keeps that sum exact in float64 and its product with this
    matrix exact in int64.
    """
    rows = _power_table(n)[:n]
    top = max(abs(c) for row in rows for c in row)
    weight = (n - 1) * n * (n + 1) // 2
    if weight >= 2**53 or top * weight >= 2**63:
        raise OverflowError(f"order {n} is too large for exact int64 point sums")
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def _point_sum(n: int, a: int, b: int) -> Fraction:
    """Exact (1/n) sum_{k=1}^{n-1} zeta^(bk) / (1 - zeta^(-ak)), a a unit mod n.

    For x^n = 1, x != 1 the inverse is 1/(1 - x) = -(1/n) sum_{i<n} (i+1) x^i,
    so the value is -1/n^2 times the group-ring element whose coefficient at
    e is the total weight i+1 of the pairs (k, i) with k(b - a i) = e mod n.
    That histogram is reduced once modulo Phi_n and certified rational.
    """
    matrix = _reduction_matrix(n)
    k = np.arange(1, n)
    i = np.arange(n)
    exponents = np.outer(k, b - a * i) % n
    weights = np.broadcast_to(i + 1, exponents.shape)
    hist = np.bincount(exponents.ravel(), weights.ravel(), minlength=n)
    coeffs = hist.astype(np.int64) @ matrix
    value = assert_rational(CyclotomicElement(n, coeffs.tolist()))
    return -value / (n * n)


def lefschetz_point_sum(n: int, a: int, b: int) -> Fraction:
    """Fixed-point contribution (1/N) * sum_{k=1}^{N-1} z^(bk) / (1 - z^(-ak)).

    Here z = zeta_N, N = n >= 2 is the isotropy order, a is the rotation
    weight on the normal direction (must be a unit mod N so every nontrivial
    k gives a nonzero denominator), and b is the bundle weight.  The sum is
    invariant under every Galois automorphism (it permutes the terms), hence
    rational; assert_rational certifies that before any rounding can occur.
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
