"""Field arithmetic in Q(zeta_N): the oracle the point-sum tests check against.

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) with
rational coefficients, reduced modulo the N-th cyclotomic polynomial.  Since
Phi_N is irreducible over Q this representation is canonical: an element is
rational exactly when every coefficient beyond the constant term vanishes.

The package computes its point sums as integer histograms, folded and then
divided by Phi_N.  This module shares none of that: it reduces by long
division by Phi_N in Q[x] and inverts by extended Euclid, so the only
program code it relies on is cyclotomic_polynomial itself, which the tests
check against sympy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from cstar_index.exact import NotRationalError, cyclotomic_polynomial, format_rational

# ---------------------------------------------------------------------------
# Rational polynomial helpers (dense, ascending coefficients)
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


@lru_cache(maxsize=None)
def _phi_poly(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in cyclotomic_polynomial(n))


def _reduce(n: int, raw: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce an arbitrary-degree coefficient list modulo Phi_n by division."""
    phi_poly = _phi_poly(n)
    _, rem = _qpoly_divmod(raw, phi_poly)
    return tuple(rem) + (Fraction(0),) * (len(phi_poly) - 1 - len(rem))


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
        phi = len(cyclotomic_polynomial(order)) - 1
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
        return CyclotomicElement(self.order, raw)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """Multiplicative inverse via extended Euclid against Phi_N.

        Phi_N is irreducible, so any nonzero residue is invertible and the
        Bezout identity s*u + t*Phi = 1 yields the inverse exactly.
        """
        if not self:
            raise ZeroDivisionError("cyclotomic element is zero")
        r0, r1 = _phi_poly(self.order), _qpoly_trim(list(self.coeffs))
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
        raw = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            raw[(i * c) % n] += a
        return CyclotomicElement(n, raw)

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
    return CyclotomicElement(n, [0] * (k % n) + [1])


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
