"""Topological index: smooth Riemann-Roch term plus exact point corrections.

The point correction at an isolated orbifold point is the character sum
evaluated exactly in a cyclotomic field by lefschetz_point_sum.  For the
test family the correction also has a closed form in floor arithmetic, and
keeping both routes independent is the whole point: the brute-force sum
exercises the field arithmetic, the closed form exercises nothing but
integer division, and the identity checks play them against each other.

sweep_rows builds the CLI's grid of such checks, with one set of residue
terms (point sum, closed form, smooth term and total, their texts and their
agreement) per order, and one tuple per row in SWEEP_COLUMNS order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .analytic import analytic_index, check_family_args, kappa
from .exact import (
    Rational,
    _order_point_sums,
    _ratio_text,
    lefschetz_point_sum,
)
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
    check_family_args(l, m)
    return Fraction(*_hrr_ratio(l, m))


def mu_closed(l: int, m: int) -> Rational:
    """Point correction in closed form: (1/l) * (-m + (l-1)/2 + l*floor(m/l)).

    Integer division only, no field arithmetic involved.
    """
    check_family_args(l, m)
    return Fraction(*_mu_closed_ratio(l, m))


def mu_bruteforce(l: int, m: int) -> Rational:
    """Point correction as the exact character sum over nontrivial roots.

    Equals (1/l) * sum_{k=1}^{l-1} zeta^(km) / (1 - zeta^(-k)); only the
    residue of m modulo l enters.
    """
    check_family_args(l, m)
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
    check_family_args(l, m)
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


# the fields of a sweep row, in order: the CSV header and the JSON keys
SWEEP_COLUMNS = ("l", "m", "kappa", "hrr", "mu_closed", "mu_bruteforce", "total", "agree")


def sweep_rows(l_max: int, m_max: int) -> list[tuple]:
    """All grid rows, l-major then m-minor, as tuples in SWEEP_COLUMNS order.

    Each residue b's terms come once per order: the point sum from one
    _order_point_sums call, the closed form _mu_closed_ratio(l, b), which is
    that of every m = b mod l, since 2 (l floor(m/l) - m) = -2 b, and the
    smooth term and total at m = b as reduced integer pairs.  The row of
    m = b + l t adds the integer 2 t to both, which keeps them reduced, and
    compares the total with kappa(l, m), evaluated on every row.  Texts are
    "p/q" or "p" and agree is a bool, so no row builds a Fraction.  No
    argument check.
    """
    rows = []
    for l in range(2, l_max + 1):
        terms = []  # per residue: hrr, mu_closed's text, mu_b's text, mu_closed == mu_b, total
        for b, mu in enumerate(_order_point_sums(l, min(l, m_max + 1))):
            p, q = mu.numerator, mu.denominator
            (hn, hd), mu_c = _hrr_ratio(l, b), _mu_closed_ratio(l, b)
            total = _reduced(hn * q + 2 * p * hd, hd * q)  # hrr + 2 mu_b
            terms.append(((hn, hd), _ratio_text(*mu_c), _ratio_text(p, q), mu_c == (p, q), total))
        for m in range(m_max + 1):
            t, b = divmod(m, l)
            (hn, hd), closed_text, mu_text, same, (tn, td) = terms[b]
            k = kappa(l, m)
            tn += 2 * t * td
            hrr = _ratio_text(hn + 2 * t * hd, hd)
            agree = same and (tn, td) == (k, 1)
            rows.append((l, m, k, hrr, closed_text, mu_text, _ratio_text(tn, td), agree))
    return rows
