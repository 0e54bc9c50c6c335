"""Tests for the section-counting side of the index identity."""

import random

import pytest

from cstar_index.analytic import (
    analytic_index,
    h1_equivariant,
    invariant_monomial_count,
    kappa,
)


def test_invariant_monomial_count_known_values():
    assert invariant_monomial_count(4, 2, 0) == 3  # exponents 0, 2, 4
    assert invariant_monomial_count(5, 3, 1) == 2  # exponents 1, 4
    assert invariant_monomial_count(-1, 3, 0) == 0
    assert invariant_monomial_count(2, 5, 4) == 0
    assert invariant_monomial_count(7, 1, 0) == 8


def test_invariant_monomial_count_matches_enumeration():
    rng = random.Random(41)
    for _ in range(300):
        d = rng.randint(-2, 40)
        l = rng.randint(1, 9)
        r = rng.randint(-5, 12)
        expected = len([k for k in range(0, max(d, -1) + 1) if (k - r) % l == 0])
        assert invariant_monomial_count(d, l, r) == expected


def test_kappa_known_values():
    assert kappa(3, 4) == 3
    assert kappa(2, 0) == 1
    assert kappa(2, 3) == 3
    assert kappa(7, 20) == 5
    # when l divides m the count is 2m/l + 1
    for l in range(2, 8):
        for t in range(0, 5):
            assert kappa(l, l * t) == 2 * t + 1


def test_kappa_equals_monomial_count():
    # sections are degree <= 2m monomials with exponent congruent to m mod l
    for l in range(2, 12):
        for m in range(0, 40):
            assert kappa(l, m) == invariant_monomial_count(2 * m, l, m % l)


def test_kappa_is_odd_and_monotone_in_m():
    for l in range(2, 8):
        prev = None
        for m in range(0, 50):
            k = kappa(l, m)
            assert k % 2 == 1
            if prev is not None:
                assert k >= prev
            prev = k


def test_h1_vanishes_and_index_is_kappa():
    for l in range(2, 10):
        for m in range(0, 25):
            assert h1_equivariant(l, m) == 0
            assert analytic_index(l, m) == kappa(l, m)


def test_argument_validation():
    with pytest.raises(ValueError):
        kappa(1, 0)
    with pytest.raises(ValueError):
        kappa(3, -1)
    with pytest.raises(ValueError):
        analytic_index(0, 2)
    with pytest.raises(ValueError):
        invariant_monomial_count(4, 0, 1)


@pytest.mark.parametrize("l, m", [(3, True), (3, False), (True, 2)])
def test_family_args_refuse_bool(l, m):
    # bool is an int subclass: True would otherwise pass as m = 1
    with pytest.raises(ValueError, match="must be an integer"):
        analytic_index(l, m)


def test_invariant_monomial_count_refuses_bool():
    # l = True would otherwise count modulo 1: 5 exponents for d = 4
    with pytest.raises(ValueError, match="must be a positive integer"):
        invariant_monomial_count(4, True, 0)
