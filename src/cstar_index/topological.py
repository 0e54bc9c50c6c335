"""Topological index: smooth Riemann-Roch term plus exact point corrections.

The point correction at an isolated orbifold point is the character sum
evaluated exactly in a cyclotomic field by lefschetz_point_sum.  For the
test family the correction also has a closed form in floor arithmetic, and
keeping both routes independent is the whole point: the brute-force sum
exercises the field arithmetic, the closed form exercises nothing but
integer division, and the identity checks play them against each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .analytic import _check_family_args, analytic_index
from .exact import Rational, lefschetz_point_sum
from .model import IndexReport, KawasakiCurveSpec, example_to_kawasaki

__all__ = [
    "hrr_term",
    "mu_closed",
    "mu_bruteforce",
    "kawasaki_index",
    "verify_identity",
]


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0, by one gcd."""
    g = gcd(num, den)
    return num // g, den // g


def _hrr_ratio(l: int, m: int) -> tuple[int, int]:
    """(2m + 1)/l as a reduced (numerator, denominator) pair; no argument check."""
    return _reduced(2 * m + 1, l)


def _mu_closed_ratio(l: int, m: int) -> tuple[int, int]:
    """(-m + (l-1)/2 + l*floor(m/l)) / l as a reduced pair; no argument check."""
    return _reduced(2 * (l * (m // l) - m) + (l - 1), 2 * l)


def hrr_term(l: int, m: int) -> Rational:
    """Smooth Riemann-Roch contribution (2m + 1)/l of the quotient curve."""
    _check_family_args(l, m)
    return Fraction(*_hrr_ratio(l, m))


def mu_closed(l: int, m: int) -> Rational:
    """Point correction in closed form: (1/l) * (-m + (l-1)/2 + l*floor(m/l)).

    Integer division only, no field arithmetic involved.
    """
    _check_family_args(l, m)
    return Fraction(*_mu_closed_ratio(l, m))


def mu_bruteforce(l: int, m: int) -> Rational:
    """Point correction as the exact character sum over nontrivial roots.

    Equals (1/l) * sum_{k=1}^{l-1} zeta^(km) / (1 - zeta^(-k)); only the
    residue of m modulo l enters.
    """
    _check_family_args(l, m)
    return lefschetz_point_sum(l, 1, m % l)


def kawasaki_index(spec: KawasakiCurveSpec) -> Rational:
    """Evaluate a Kawasaki decomposition: smooth term plus point sums."""
    total = Fraction(spec.smooth_term)
    for p in spec.points:
        total += lefschetz_point_sum(
            p.isotropy_order, p.normal_weight, p.bundle_weight
        )
    return total


def verify_identity(l: int, m: int) -> IndexReport:
    """Compare the analytic index against the topological one for (l, m).

    Both point corrections go through the brute-force character sum, so a
    bug in either the closed form or the field arithmetic cannot cancel
    silently; the closed form is cross-checked separately in the tests.
    """
    _check_family_args(l, m)
    analytic = analytic_index(l, m)
    kspec = example_to_kawasaki(l, m)
    point_values = tuple(
        lefschetz_point_sum(p.isotropy_order, p.normal_weight, p.bundle_weight)
        for p in kspec.points
    )
    total = Fraction(kspec.smooth_term) + sum(point_values, Fraction(0))
    return IndexReport(
        analytic_index=analytic,
        topological_smooth=kspec.smooth_term,
        topological_points=point_values,
        topological_total=total,
        agree=(Fraction(analytic) == total),
    )
