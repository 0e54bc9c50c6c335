"""Reference computations the benchmark checks the program's outputs against.

Each oracle is written apart from the program: a plain lattice count, a
float evaluation of the fixed-point character sum with cmath, and an mpmath
quadrature of the fiber density.  None of them imports cstar_index.
"""

from __future__ import annotations

import cmath
import math

import mpmath


def lattice_count(l: int, m: int) -> int:
    """Number of exponents k in [0, 2m] with k congruent to m modulo l.

    These are the chart monomials that descend to invariant sections of
    the degree-m bundle over the order-l quotient.
    """
    return sum(1 for k in range(2 * m + 1) if (k - m) % l == 0)


def point_sum_float(n: int, a: int, b: int) -> complex:
    """(1/N) * sum_{k=1}^{N-1} z^(bk) / (1 - z^(-ak)) with z = exp(2 pi i / N)."""
    total = 0j
    for k in range(1, n):
        numer = cmath.exp(2j * math.pi * ((b * k) % n) / n)
        denom = 1.0 - cmath.exp(-2j * math.pi * ((a * k) % n) / n)
        total += numer / denom
    return total / n


def _phi1(x, hard: bool):
    """Cutoff profile on the squared radius, as the fiber measure defines it."""
    if x <= 1:
        return mpmath.mpf(1)
    if hard or x >= 2:
        return mpmath.mpf(0)
    t = x - 1
    return 1 / (1 + mpmath.exp(-(1 / t - 1 / (1 - t))))


def lambda_mpmath(a: float, m: int, cutoff: str) -> float:
    """2 pi * Int_0^inf r^(2m) rho(r) dr by mpmath quadrature at 30 digits.

    rho(r) = [phi1(r^2) + (1 - phi1(r^2)) * 4 a^2 r^(-4a-2)] * r, integrated
    piecewise over the cutoff seams 1 and sqrt(2) and the tail to infinity.
    """
    hard = cutoff == "hard"
    with mpmath.workdps(30):
        aa = mpmath.mpf(a)

        def integrand(r):
            p1 = _phi1(r * r, hard)
            tail = 4 * aa * aa * r ** (-4 * aa - 2)
            return r ** (2 * m) * (p1 + (1 - p1) * tail) * r

        value = mpmath.quad(integrand, [0, 1, mpmath.sqrt(2), mpmath.inf])
        return float(2 * mpmath.pi * value)
