"""Tests for exact cyclotomic arithmetic and fixed-point character sums.

Every exact value asserted here is checked against an independent route:
sympy and the division of x^n - 1 by every smaller Phi_d for cyclotomic
polynomials, a complex floating-point brute-force sum and the term-by-term
field evaluation (one CyclotomicElement inversion per term, from the
test-side oracle in _cyclotomic_field.py) for the Lefschetz contributions,
and closed forms for the reciprocal sums.
"""

import cmath
import functools
import math
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
import sympy

from _cyclotomic_field import CyclotomicElement, assert_rational, root_of_unity
from cstar_index import exact
from cstar_index.exact import (
    NotRationalError,
    cyclotomic_polynomial,
    format_rational,
    lefschetz_point_sum,
    parse_rational,
    unit_root_reciprocal_sum,
)
from cstar_index.topological import mu_bruteforce, mu_closed


def _lefschetz_float(n: int, a: int, b: int) -> complex:
    """Independent floating-point evaluation of the fixed-point sum."""
    z = cmath.exp(2j * cmath.pi / n)
    total = 0j
    for k in range(1, n):
        total += z ** (b * k) / (1 - z ** (-a * k))
    return total / n


def _lefschetz_field_oracle(n: int, a: int, b: int) -> Fraction:
    """The fixed-point sum term by term in Q(zeta_n), one inversion per k."""
    total = CyclotomicElement.rational(n, 0)
    one = CyclotomicElement.rational(n, 1)
    for k in range(1, n):
        numer = root_of_unity(n, (b * k) % n)
        denom = one - root_of_unity(n, (-a * k) % n)
        total = total + numer / denom
    return assert_rational(total) / n


def test_rational_string_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" 0 ") == 0
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-8, 2)) == "-4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    for k in (0, 5, -12, 10**30):
        assert format_rational(k) == str(k)
        assert parse_rational(format_rational(k)) == k
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1e-3")


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_matches_sympy():
    x = sympy.symbols("x")
    # 105, 165, 195 and 210 take many long-division steps with sparse divisors
    for n in [*range(1, 41), 105, 165, 195, 210]:
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(ours) == [int(c) for c in reversed(theirs)]


@functools.lru_cache(maxsize=None)
def _cyclotomic_by_divisors(n):
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d (the oracle)."""
    if n == 1:
        return (-1, 1)
    poly = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly, rem = exact._poly_divmod(poly, _cyclotomic_by_divisors(d))
            assert not any(rem)
    return poly


def test_cyclotomic_polynomial_matches_divisor_division():
    # every n < 600, and two highly composite orders with many divisors
    for n in [*range(1, 600), 4620, 9240]:
        assert cyclotomic_polynomial(n) == _cyclotomic_by_divisors(n), n


def test_cyclotomic_polynomials_multiply_back():
    # prod_{d | n} Phi_d = x^n - 1, exactly
    for n in (6, 8, 9, 10, 12, 30):
        x = sympy.symbols("x")
        prod = sympy.Integer(1)
        for d in range(1, n + 1):
            if n % d == 0:
                cs = cyclotomic_polynomial(d)
                prod *= sum(int(c) * x**i for i, c in enumerate(cs))
        assert sympy.expand(prod - (x**n - 1)) == 0


def test_poly_divmod_multiplies_back():
    # monic divisors with interior zero coefficients, seeded random dividends
    rng = random.Random(7)
    for _ in range(60):
        deg = rng.randrange(1, 9)
        den = tuple(rng.choice((0, 0, 1, -1, 3)) for _ in range(deg)) + (1,)
        num = tuple(rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(deg, 30)))
        quot, rem = exact._poly_divmod(num, den)
        assert len(rem) == deg
        back = [0] * max(len(num), len(quot) + deg)
        for i, q in enumerate(quot):
            for j, d in enumerate(den):
                back[i + j] += q * d
        for i, r in enumerate(rem):
            back[i] += r
        assert back == list(num) + [0] * (len(back) - len(num))


def test_poly_divmod_short_dividend_and_non_monic_divisor():
    assert exact._poly_divmod((4, -2), (1, 0, 0, 1)) == ((), (4, -2, 0))
    with pytest.raises(ValueError, match="monic"):
        exact._poly_divmod((1, 2, 3), (1, 2))


def test_basic_root_identities():
    z4 = root_of_unity(4)
    assert z4 * z4 == -1
    z3 = root_of_unity(3)
    assert z3 + z3**2 == -1
    assert (1 - z3) * (1 - z3**2) == 3
    # power wraps around the order
    assert root_of_unity(5, 7) == root_of_unity(5, 2)
    assert root_of_unity(6, 6) == 1


def test_inverse_known_values():
    z4 = root_of_unity(4)
    assert z4.inverse() == -z4
    z3 = root_of_unity(3)
    u = 1 - z3
    expected = (1 - z3**2) / 3
    assert u.inverse() == expected
    assert u * u.inverse() == 1


def test_inverse_randomized_two_sided():
    rng = random.Random(20250815)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 12)
        phi = len(root_of_unity(n).coeffs)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(phi)]
        u = CyclotomicElement(n, coeffs)
        if not u:
            continue
        inv = u.inverse()
        assert u * inv == 1
        assert inv * u == 1
        checked += 1


def test_division_and_pow():
    z5 = root_of_unity(5)
    assert (z5**3) / (z5**3) == 1
    assert z5 ** (-2) == root_of_unity(5, 3)
    assert (1 / z5) == root_of_unity(5, 4)
    w = 2 + 3 * z5 - z5**2
    assert (w / w) == 1


def test_order_mismatch_rejected():
    z3 = root_of_unity(3)
    z4 = root_of_unity(4)
    with pytest.raises(ValueError):
        _ = z3 + z4
    # rational elements of distinct orders still compare equal
    assert CyclotomicElement.rational(3, 5) == CyclotomicElement.rational(4, 5)


def test_galois_action():
    z7 = root_of_unity(7)
    u = 1 + 2 * z7 - z7**3
    assert u.galois(2).galois(4) == u.galois(8)  # 2*4 = 8 = 1 mod 7
    assert u.galois(1) == u
    with pytest.raises(ValueError):
        u.galois(7)
    # conjugation agrees with complex conjugation numerically
    approx = u.conjugate().to_complex()
    assert abs(approx - u.to_complex().conjugate()) < 1e-12


def test_to_complex_matches_direct_evaluation():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 15)
        phi = len(root_of_unity(n).coeffs)
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(phi)]
        u = CyclotomicElement(n, coeffs)
        direct = sum(
            float(c) * cmath.exp(2j * cmath.pi * i / n) for i, c in enumerate(coeffs)
        )
        assert abs(u.to_complex() - direct) < 1e-12


def test_assert_rational():
    z6 = root_of_unity(6)
    assert assert_rational(z6 + z6.conjugate()) == 1  # 2*cos(pi/3)
    with pytest.raises(NotRationalError):
        assert_rational(root_of_unity(5))


def test_lefschetz_point_sum_known_values():
    assert lefschetz_point_sum(2, 1, 0) == Fraction(1, 4)
    assert lefschetz_point_sum(3, 1, 1) == 0
    # weight arguments only matter modulo N
    assert lefschetz_point_sum(5, 2, 3) == lefschetz_point_sum(5, 7, 13)


def test_lefschetz_point_sum_matches_float_oracle():
    rng = random.Random(99)
    cases = []
    for n in range(2, 16):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        for _ in range(4):
            cases.append((n, rng.choice(units), rng.randrange(n)))
    # the fold by least prime 2, 3 or 5 with several odd factors, prime
    # powers (no division step), and a large squarefree order
    for n in (105, 165, 195, 210, 243, 256, 1155):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        for _ in range(2):
            cases.append((n, rng.choice(units), rng.randrange(n)))
    for n, a, b in cases:
        exact = lefschetz_point_sum(n, a, b)
        approx = _lefschetz_float(n, a, b)
        assert abs(approx.imag) < 1e-10
        assert abs(approx.real - float(exact)) < 1e-10


def test_lefschetz_point_sum_matches_field_oracle():
    for n in range(2, 17):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            for b in range(n):
                assert lefschetz_point_sum(n, a, b) == _lefschetz_field_oracle(n, a, b), (n, a, b)


def _weight_a_point_sum(n: int, a: int, b: int) -> Fraction:
    """The sum with normal weight a from its own group-ring histogram.

    The exponents k(b - a i) mod n, weighted by i + 1, are reduced by one
    long division by Phi_n, with no fold.
    """
    i = np.arange(n)
    exponents = np.outer(np.arange(1, n), b - a * i) % n
    weights = np.broadcast_to(i + 1, exponents.shape)
    hist = np.bincount(exponents.ravel(), weights.ravel(), minlength=n)
    _, coeffs = exact._poly_divmod(hist.astype(np.int64).tolist(), cyclotomic_polynomial(n))
    assert not any(coeffs[1:]), (n, a, b)
    return Fraction(-coeffs[0], n * n)


def test_every_normal_weight_shares_the_weight_one_sums():
    # k -> a^(-1) k permutes the nontrivial k, so the sum with normal weight a
    # and bundle weight b is the cached one with weight 1 and b a^(-1) mod n;
    # the histogram with weight a is the reference
    for n in range(2, 30):
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                for b in range(n):
                    want = _weight_a_point_sum(n, a, b)
                    assert lefschetz_point_sum(n, a, b) == want, (n, a, b)
    exact._point_sum.cache_clear()
    lefschetz_point_sum(7, 3, 2)  # 3^(-1) = 5 mod 7, 2 * 5 = 3 mod 7
    lefschetz_point_sum(7, 1, 3)
    info = exact._point_sum.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    assert info.maxsize == exact.cyclotomic_polynomial.cache_info().maxsize == 1024
    assert exact._crt_layout.cache_info().maxsize == 1024


def test_reciprocal_sum_shares_the_weight_one_sum():
    # k -> -k makes sum 1/(zeta^k - 1) the weight-1 sum with b = 0 times -n
    exact._point_sum.cache_clear()
    value = unit_root_reciprocal_sum(7)
    assert lefschetz_point_sum(7, 1, 0) == -value / 7
    info = exact._point_sum.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# the two routes to the point sums of isotropy order n and normal weight 1:
# one residue at a time, and every residue below a count from one histogram
_ROUTES = {
    "single": lambda n: lefschetz_point_sum(n, 1, 0),
    "order": lambda n: exact._order_point_sums(n, n),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("e", [6, 28, 29])
def test_point_sum_certificate_rejects_perturbed_histogram(monkeypatch, route, e):
    # one more zeta^e in the last histogram handed to the certificate makes
    # its sum irrational, and the refusal names the residue of that row.
    # n = 30 = 2 * 3 * 5 folds three CRT axes: e = 6 at (0, 0, 1) and
    # e = 28 at (0, 1, 3) are the first and the last coordinate beyond the
    # constant one; e = 29 at (1, 2, 4) is in the top block of every axis
    # and folds into all eight coordinates
    n = 30
    certify = exact._certified_sums

    def perturbed(order, hists, residues):
        hists = hists.copy()
        hists[-1, e] += 1
        return certify(order, hists, residues)

    monkeypatch.setattr(exact, "_certified_sums", perturbed)
    exact._point_sum.cache_clear()
    residue = {"single": 0, "order": n - 1}[route]
    try:
        with pytest.raises(NotRationalError, match=rf"\({n}, 1, {residue}\)"):
            _ROUTES[route](n)
    finally:
        exact._point_sum.cache_clear()


def _order_histograms(monkeypatch, n):
    """The int64 histograms, one row per residue, that _order_point_sums certifies."""
    seen = []
    certify = exact._certified_sums

    def recorded(order, hists, residues):
        seen.append(hists)
        return certify(order, hists, residues)

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_certified_sums", recorded)
        exact._order_point_sums(n, n)
    (hists,) = seen
    return hists


@pytest.mark.parametrize(
    "orders, step", [((*range(2, 120), 105, 210, 256), 1), ((1001,), 20)], ids=["all", "1001"]
)
def test_crt_constant_coordinate_is_the_remainder_modulo_phi(monkeypatch, orders, step):
    # the long division by Phi_n is the oracle of the CRT certificate: on
    # the histograms of the tests' orders (every 20th residue of 1001), the
    # remainder is the constant coordinate and nothing beyond it
    for n in orders:
        hists = _order_histograms(monkeypatch, n)
        coords = exact._crt_coordinates(n, hists)
        assert coords.shape == (n, len(cyclotomic_polynomial(n)) - 1)
        for b in range(0, n, step):
            _, rem = exact._poly_divmod(hists[b].tolist(), cyclotomic_polynomial(n))
            assert rem == (int(coords[b, 0]),) + (0,) * (len(rem) - 1), (n, b)
            assert not coords[b, 1:].any(), (n, b)


@pytest.mark.parametrize("n", [12, 30, 210, 243, 1001])
def test_crt_coordinates_evaluate_to_the_histogram(n):
    # on random, mostly irrational histograms: sum_e h[e] x^e at
    # x = prod_i exp(2 pi i / q_i), a primitive n-th root, equals the
    # coordinates summed against the products of powers of exp(2 pi i / q_i)
    rng = np.random.default_rng(n)
    hists = rng.integers(-50, 50, size=(3, n))
    coords = exact._crt_coordinates(n, hists)
    _, factors = exact._crt_layout(n)
    assert math.prod(q for q, _ in factors) == n
    x = np.exp(2j * np.pi * sum(1 / q for q, _ in factors))
    basis = np.ones(1)
    for q, p in factors:
        basis = np.multiply.outer(basis, np.exp(2j * np.pi * np.arange(q - q // p) / q)).ravel()
    want = hists @ x ** np.arange(n)
    assert np.allclose(coords @ basis, want, rtol=0, atol=1e-8 * np.abs(hists).sum())


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_order_past_the_guard_raises_before_building(monkeypatch, route):
    # 2**18 + 1 is the least order whose histogram weight (n-1)n(n+1)/2
    # reaches 2**53, so its point sums cannot be exact; that must be known
    # before the CRT layout or the histogram is built
    n = 2**18 + 1
    assert (n - 2) * (n - 1) * n // 2 < 2**53 <= (n - 1) * n * (n + 1) // 2

    def no_build(order):
        raise AssertionError(f"the CRT layout of {order} was built past the order guard")

    monkeypatch.setattr(exact, "_crt_layout", no_build)
    with pytest.raises(OverflowError, match="too large") as exc:
        _ROUTES[route](n)
    assert isinstance(exc.value, exact.OrderTooLargeError)


def test_group_ring_inverse_identity():
    # 1/(1 - x) = -(1/n) sum_{i<n} (i+1) x^i for every x = zeta_n^j, j != 0
    for n in range(2, 25):
        for j in range(1, n):
            x = root_of_unity(n, j)
            series = sum(root_of_unity(n, i * j) * (i + 1) for i in range(n))
            assert (1 - x) * (series * Fraction(-1, n)) == 1, (n, j)


def test_point_sum_matches_closed_form_at_large_order():
    for l in (97, 160):
        for m in (0, 1, l // 2, l - 1, 3 * l + 7):
            assert mu_bruteforce(l, m) == mu_closed(l, m), (l, m)


def test_lefschetz_point_sum_galois_invariance():
    # the defining sum is permuted by zeta -> zeta^c, so the value must be
    # a fixed point of every automorphism; spot-check the element itself
    n = 12
    one = CyclotomicElement.rational(n, 1)
    total = CyclotomicElement.rational(n, 0)
    for k in range(1, n):
        total = total + root_of_unity(n, (5 * k) % n) / (
            one - root_of_unity(n, (-7 * k) % n)
        )
    for c in (5, 7, 11):
        assert total.galois(c) == total


def test_lefschetz_point_sum_validation():
    with pytest.raises(ValueError):
        lefschetz_point_sum(1, 1, 0)
    with pytest.raises(ValueError):
        lefschetz_point_sum(6, 2, 1)  # gcd(2, 6) != 1
    with pytest.raises(ValueError):
        lefschetz_point_sum(6, 3, 0)


def test_unit_root_reciprocal_sum_values():
    assert unit_root_reciprocal_sum(2) == Fraction(-1, 2)
    assert unit_root_reciprocal_sum(3) == -1
    assert unit_root_reciprocal_sum(7) == -3


def test_unit_root_reciprocal_sum_closed_form():
    for n in range(2, 51):
        assert unit_root_reciprocal_sum(n) == Fraction(-(n - 1), 2)


@pytest.mark.parametrize("n", [1031, 1499])
def test_point_sums_across_histogram_blocks(n):
    # the (k, i) exponent table of these orders spans at least two blocks
    assert (n - 1) * n > exact._HIST_BLOCK
    assert unit_root_reciprocal_sum(n) == Fraction(-(n - 1), 2)
    value = lefschetz_point_sum(n, 7, 13)
    approx = _lefschetz_float(n, 7, 13)
    assert abs(approx.imag) < 1e-9
    assert abs(approx.real - float(value)) < 1e-9


def test_cold_point_sum_memory_is_bounded_by_histogram_blocks():
    # no per-order table: a cold sum needs a few block-sized arrays for the
    # histogram and O(n) for the reduction, not n * phi(n) entries
    n = 4006
    exact._crt_layout(n)  # cached, and not part of the sum's cost
    tracemalloc.start()
    try:
        value = exact._point_sum.__wrapped__(n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == Fraction(n - 1, 2 * n)
    assert peak <= 4 * 8 * exact._HIST_BLOCK


def _single_sums(n, residues):
    return tuple(exact._point_sum.__wrapped__(n, b) for b in residues)


def test_order_point_sums_match_single_sums():
    # every residue of every small order, and of orders whose fold and
    # division take many steps (105, 210) or none (the prime power 256)
    for n in [*range(2, 120), 105, 210, 256]:
        assert exact._order_point_sums(n, n) == _single_sums(n, range(n)), n


def _check_order_sums_sampled(n):
    # each single sum at n near 1000 builds its own n x n histogram, so only
    # every 31st residue (and the last) is checked against it, and every
    # residue against the closed form
    sums = exact._order_point_sums(n, n)
    assert len(sums) == n
    sample = [*range(0, n, 31), n - 1]
    assert tuple(sums[b] for b in sample) == _single_sums(n, sample)
    assert all(sums[b] == mu_closed(n, b) for b in range(n))


def test_order_point_sums_at_the_largest_order():
    # the largest order whose n x n count matrix fits one histogram block
    n = isqrt(exact._HIST_BLOCK)
    assert n * n <= exact._HIST_BLOCK < (n + 1) ** 2
    _check_order_sums_sampled(n)


def test_order_point_sums_at_three_odd_primes():
    # 1001 = 7 * 11 * 13: the CRT layout has three factors, none of them 2.
    # 1155 = 3 * 5 * 7 * 11 is left out: past the n^2 <= _HIST_BLOCK cap the
    # order route calls _point_sum per residue, which the check would compare
    # with itself
    n = 7 * 11 * 13
    assert n * n <= exact._HIST_BLOCK
    _check_order_sums_sampled(n)


def test_order_point_sums_first_residues():
    for n, count in ((2, 1), (12, 5), (30, 29), (97, 40)):
        assert exact._order_point_sums(n, count) == exact._order_point_sums(n, n)[:count]


def test_order_counts_come_from_the_products(monkeypatch):
    # C[e, j] is counted off the (n-1) n products k j in one bincount, never
    # filled from gcd(j, n): that fill is the retired collapse of the class
    # sums into mu_closed
    def no_gcd(*args):
        raise AssertionError("the order route called a gcd")

    counted = []
    bincount = np.bincount

    def spy(cells, *args, **kwargs):
        counted.append(cells.size)
        return bincount(cells, *args, **kwargs)

    n = 60
    want = _single_sums(n, range(n))
    monkeypatch.setattr(exact, "gcd", no_gcd)
    monkeypatch.setattr(np, "gcd", no_gcd)
    monkeypatch.setattr(np, "bincount", spy)
    assert exact._order_point_sums(n, n) == want
    assert counted == [(n - 1) * n]


def test_order_point_sums_past_the_block_go_one_by_one(monkeypatch):
    # 1031 is past the largest order of the histogram route: its sums come
    # from _point_sum, residue by residue, and equal the single sums
    n = 1031
    assert n * n > exact._HIST_BLOCK
    want = _single_sums(n, range(3))
    calls = []
    single = exact._point_sum

    def recorded(*key):
        calls.append(key)
        return single(*key)

    monkeypatch.setattr(exact, "_point_sum", recorded)
    sums = exact._order_point_sums(n, 3)
    assert calls == [(n, 0), (n, 1), (n, 2)]
    assert sums == want
    assert sums == tuple(mu_closed(n, b) for b in range(3))


def test_order_point_sums_memory_is_bounded_by_histogram_blocks():
    # at the largest order the count matrix and the n x n histogram are one
    # block each; the columns are reduced one at a time
    n = isqrt(exact._HIST_BLOCK)
    exact._crt_layout(n)  # cached, and not part of the sums' cost
    tracemalloc.start()
    try:
        sums = exact._order_point_sums(n, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sums[0] == Fraction(n - 1, 2 * n)
    assert peak <= 4 * 8 * exact._HIST_BLOCK
