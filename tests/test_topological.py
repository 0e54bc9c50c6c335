"""Tests for the topological index route and the closed-form corrections."""

from fractions import Fraction

import pytest

from cstar_index.analytic import analytic_index
from cstar_index.model import (
    FixedPointDatum,
    KawasakiCurveSpec,
    example_to_kawasaki,
)
from cstar_index.topological import (
    hrr_term,
    kawasaki_index,
    mu_bruteforce,
    mu_closed,
    verify_identity,
)


def test_mu_closed_known_values():
    assert mu_closed(2, 3) == Fraction(-1, 4)
    assert mu_closed(4, 2) == Fraction(-1, 8)
    assert mu_closed(6, 6) == Fraction(5, 12)
    # m = 0 reduces to the reciprocal-sum constant (l - 1) / (2l)
    for l in range(2, 21):
        assert mu_closed(l, 0) == Fraction(l - 1, 2 * l)


def test_mu_bruteforce_matches_closed_form():
    for l in range(2, 13):
        for m in range(0, 30):
            assert mu_bruteforce(l, m) == mu_closed(l, m)


def test_mu_depends_only_on_residue():
    # -m and l*floor(m/l) cancel to -(m mod l), so both routes see only the
    # residue; the m-dependence of the index sits entirely in the smooth term
    for l in (3, 5, 8):
        for m in range(0, 3 * l):
            assert mu_bruteforce(l, m) == mu_bruteforce(l, m % l)
            assert mu_closed(l, m) == mu_closed(l, m % l)
    assert mu_closed(3, 4) == mu_closed(3, 1) == 0


def test_hrr_term_values():
    assert hrr_term(3, 4) == 3
    assert hrr_term(2, 0) == Fraction(1, 2)
    assert hrr_term(7, 10) == Fraction(21, 7) == 3


def test_kawasaki_index_of_trivial_bundle_is_one():
    # degree-zero bundle has exactly the constants as sections
    for l in range(2, 21):
        k = example_to_kawasaki(l, 0)
        assert kawasaki_index(k) == 1


def test_kawasaki_index_general_points():
    spec = KawasakiCurveSpec(
        smooth_term=Fraction(1, 2),
        points=(FixedPointDatum(isotropy_order=2, normal_weight=1, bundle_weight=0),),
    )
    assert kawasaki_index(spec) == Fraction(1, 2) + Fraction(1, 4)


def test_verify_identity_report():
    r = verify_identity(12, 35)
    assert r.analytic_index == 5
    assert r.topological_smooth == Fraction(71, 12)
    assert len(r.topological_points) == 2
    assert r.topological_points[0] == r.topological_points[1]
    assert r.topological_total == 5
    assert r.agree


def test_identity_over_grid_is_exact_and_integer():
    for l in range(2, 13):
        for m in range(0, 25):
            r = verify_identity(l, m)
            assert r.agree, (l, m)
            assert r.topological_total.denominator == 1
            assert r.topological_total == analytic_index(l, m)


def test_kappa_decomposition_identity():
    # (2m + 1)/l + 2*mu(l, m) recombines to the integer section count
    for l in range(2, 11):
        for m in range(0, 22):
            assert hrr_term(l, m) + 2 * mu_closed(l, m) == analytic_index(l, m)


def test_argument_validation():
    with pytest.raises(ValueError):
        mu_closed(1, 0)
    with pytest.raises(ValueError):
        mu_bruteforce(2, -1)
    with pytest.raises(ValueError):
        verify_identity(1, 5)
