"""Analytic index of the test family by direct section counting.

For the degree-m bundle over the order-l quotient curve, global holomorphic
sections lift to polynomials on the covering chart whose monomial exponents
are constrained modulo l, and the first cohomology vanishes because the dual
bundle has negative degree.  The analytic index is therefore a plain count
of lattice points, which is what these functions compute.
"""

from __future__ import annotations

__all__ = [
    "invariant_monomial_count",
    "kappa",
    "h1_equivariant",
    "analytic_index",
]


def check_family_args(l: int, m: int) -> None:
    """Refuse a family member (l, m) unless l >= 2 and m >= 0 are ints.

    The check is on the exact type, so that bool, an int subclass, is
    refused.  Not in __all__: it serves the package's modules and its CLI.
    """
    if type(l) is not int or l < 2:
        raise ValueError(f"l must be an integer >= 2, got {l!r}")
    if type(m) is not int or m < 0:
        raise ValueError(f"m must be an integer >= 0, got {m!r}")


def invariant_monomial_count(d: int, l: int, r: int) -> int:
    """Number of exponents k with 0 <= k <= d and k congruent to r mod l."""
    if type(l) is not int or l < 1:  # the exact type, refusing bool
        raise ValueError(f"l must be a positive integer, got {l!r}")
    if d < 0:
        return 0
    r = r % l
    if r > d:
        return 0
    return (d - r) // l + 1


def kappa(l: int, m: int) -> int:
    """Dimension of the space of holomorphic sections, 1 + 2*floor(m/l).

    A section lifts to a polynomial of degree at most 2m whose exponents are
    congruent to m modulo l, so the count is the number of integers n >= 0
    with m - l*n >= 0 and m + l*n <= 2m, namely 2*floor(m/l) + 1.
    """
    check_family_args(l, m)
    return 1 + 2 * (m // l)


def h1_equivariant(l: int, m: int) -> int:
    """Dimension of the first cohomology in the relevant weight: always 0.

    By Serre duality this space pairs with sections of a bundle of degree
    -(2m + 2)/l < 0 on the quotient, equivalently with polynomials of
    negative degree on the chart, of which there are none.
    """
    check_family_args(l, m)
    return 0


def analytic_index(l: int, m: int) -> int:
    """Holomorphic Euler characteristic h^0 - h^1 of the test family."""
    return kappa(l, m) - h1_equivariant(l, m)
