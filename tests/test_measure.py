"""Tests for the fiber measure, its normalization, and the weight projector.

The closed-form hard-cutoff mass pi(1+2a) and a scipy-based reconstruction
of the projector serve as independent oracles; divergence detection is
exercised on purpose with parameters on the wrong side of a = m/2.
"""

import functools
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import expit

from cstar_index import measure
from cstar_index.measure import (
    Cutoff,
    DivergenceDetected,
    FiberMeasureParams,
    ProjectorAxiomsReport,
    QuadratureConfig,
    QuadratureError,
    lambda_m,
    project_m,
    projector_axioms_check,
    pullback_measure_total,
    radial_density,
    unity_check,
)

TIGHT = QuadratureConfig(rel_tolerance=1e-10)
DEFAULT = QuadratureConfig()


def _bump(w):
    return np.exp(-np.abs(w - 1.2) ** 2 / 0.4)


def _bump_off_axis(w):
    # centred away from the direction w/|w| = 1 the radial rule is built on
    return np.exp(-np.abs(w + 1.2) ** 2 / 0.4)


def test_radial_density_values():
    p = FiberMeasureParams(a=1.0, m=0)
    assert radial_density(0.5, p) == 0.5  # pure Lebesgue factor inside r = 1
    assert radial_density(0.0, p) == 0.0
    # fully in the tail: rho = 4 a^2 r^(-4a-1)
    assert abs(radial_density(2.0, p) - 4.0 * 2.0 ** (-6.0) * 2.0) < 1e-15
    hard = FiberMeasureParams(a=1.0, m=0, cutoff=Cutoff.HARD_STEP)
    assert radial_density(0.5, hard) == 0.5
    assert abs(radial_density(2.0, hard) - 0.125) < 1e-15


def test_radial_density_vectorized_and_validated():
    p = FiberMeasureParams(a=2.0, m=1)
    r = np.linspace(0.0, 3.0, 50)
    vals = radial_density(r, p)
    assert vals.shape == r.shape
    assert np.all(vals >= 0)
    for bad in (-0.1, -1e-300, math.nan, math.inf):
        for r in (bad, np.float64(bad), np.array(bad), np.array([0.5, bad, 2.0])):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                radial_density(r, p)
    # -0.0 is a nonnegative radius, and an empty batch has no bad one
    assert radial_density(np.array([-0.0, 0.5]), p)[0] == 0.0
    assert radial_density(np.array([]), p).shape == (0,)


@pytest.mark.parametrize("cutoff", list(Cutoff))
def test_scalar_radius_matches_array_path(cutoff):
    # unity_check's scalar integrand takes a float path, and a 0-d radius a
    # batch of one; both must give the array path's entry bit for bit,
    # including -4a-2 integer (a = 0.25, 0.5, 1, 2)
    rng = np.random.default_rng(7)
    s2 = math.sqrt(2.0)
    radii = np.concatenate([
        [0.0, 1.0, s2, np.nextafter(1.0, 2.0), np.nextafter(s2, 0.0), np.nextafter(s2, 2.0)],
        rng.uniform(0.0, 1.0, 50),
        rng.uniform(1.0, s2, 400),  # the transition band
        1.0 + np.logspace(-16, -2, 60),
        # below sqrt(2) by less than about 5e-4 the logistic's exp overflows
        s2 - np.logspace(-16, -2, 60),
        rng.uniform(s2, 12.0, 400),  # the tail
    ])
    for a in (0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 2.37, 4.1):
        p = FiberMeasureParams(a=a, m=0, cutoff=cutoff)
        expected = radial_density(radii, p)
        for r, want in zip(radii.tolist(), expected.tolist()):
            scalar = measure._density_at(r, p)
            assert type(scalar) is float
            assert scalar == want, (a, r)
            for lone in (r, np.float64(r), np.array(r)):
                got = radial_density(lone, p)
                assert type(got) is float
                assert got == want, (a, r)


def _three_pass_density(r, params):
    """radial_density's array path as three full-length passes: the oracle."""
    x = r * r
    if params.cutoff is Cutoff.HARD_STEP:
        p1 = np.where(x <= 1.0, 1.0, 0.0)
    else:
        p1 = np.empty_like(x)
        p1[x <= 1.0] = 1.0
        p1[x >= 2.0] = 0.0
        mid = (x > 1.0) & (x < 2.0)
        t = x[mid] - 1.0
        p1[mid] = expit(1.0 / t - 1.0 / (1.0 - t))
    p2 = 1.0 - p1
    a = params.a
    tail = np.zeros_like(r)
    mask = p2 > 0.0
    tail[mask] = 4.0 * a * a * r[mask] ** (-4.0 * a - 2.0)
    return (p1 + p2 * tail) * r


@pytest.mark.parametrize("cutoff", list(Cutoff))
def test_density_pieces_match_three_pass_oracle(cutoff):
    rng = np.random.default_rng(11)
    s2 = math.sqrt(2.0)
    below1, above1 = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    below2, above2 = np.nextafter(s2, 0.0), np.nextafter(s2, 2.0)
    inner = np.concatenate([[0.0, 1.0, below1], rng.uniform(0.0, 1.0, 40)])
    band = np.concatenate([[above1, below2], rng.uniform(1.0, s2, 40)])
    tail = np.concatenate([[s2, above2], rng.uniform(s2, 30.0, 40)])
    # each batch lies wholly in its piece of the smooth bump
    assert np.all(inner**2 <= 1.0)
    assert np.all((band**2 > 1.0) & (band**2 < 2.0))
    assert np.all(tail**2 >= 2.0)
    edges = [1.0, below1, above1, s2, below2, above2]
    mixed = rng.permutation(np.concatenate([edges, rng.uniform(0.0, 4.0, 58)]))
    batches = [inner, band, tail, mixed, mixed.reshape(8, 8), np.empty(0)]
    for a in (0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 2.37, 4.1):
        p = FiberMeasureParams(a=a, m=0, cutoff=cutoff)
        for r in batches:
            kept = r.copy()
            got = radial_density(r, p)
            want = _three_pass_density(r, p)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (a, r)
            got[...] = -1.0  # the result never aliases the radii
            assert np.array_equal(r, kept)


@pytest.mark.parametrize(
    "a, m, cutoff, tol",
    [
        (1.0, 0, Cutoff.SMOOTH_BUMP, 1e-6),
        (1.5, 2, Cutoff.SMOOTH_BUMP, 1e-6),
        # on these two a libm tail power (Python's **) moves the result
        (0.9, 0, Cutoff.HARD_STEP, 1e-6),
        (2.3, 2, Cutoff.HARD_STEP, 1e-9),
    ],
)
def test_unity_check_matches_array_path_integrand(monkeypatch, a, m, cutoff, tol):
    params = FiberMeasureParams(a=a, m=m, cutoff=cutoff)
    quad = QuadratureConfig(rel_tolerance=tol)
    unity_check.cache_clear()
    fast = unity_check(params, quad)
    radii = []

    def array_path(r, p):
        radii.append(r)
        return float(radial_density(np.array([r]), p)[0])

    monkeypatch.setattr(measure, "_density_at", array_path)
    # the memo would return fast without evaluating anything
    unity_check.cache_clear()
    assert unity_check(params, quad) == fast
    assert radii


def test_repeated_unity_check_makes_no_quad_call(monkeypatch):
    calls = []
    library_quad = measure._scipy_quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return library_quad(*args, **kwargs)

    def dispatch(r, p):
        raise AssertionError("unity_check's integrand calls _density_at directly")

    monkeypatch.setattr(measure, "_scipy_quad", counted)
    params = FiberMeasureParams(a=1.3, m=1)
    lambda_m(params, DEFAULT)
    unity_check.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(measure, "radial_density", dispatch)
        first = unity_check(params, DEFAULT)
    assert calls == [(0.0, 1.0), (1.0, math.sqrt(2.0))]
    assert unity_check(params, DEFAULT).hex() == first.hex()
    assert len(calls) == 2
    assert unity_check.cache_info().maxsize == 1024
    assert lambda_m.cache_info().maxsize == 1024
    # an exception is not memoized: divergent parameters raise every time
    for _ in range(2):
        with pytest.raises(DivergenceDetected):
            unity_check(FiberMeasureParams(a=0.5, m=2), DEFAULT)
    assert unity_check.cache_info().currsize == 1


def test_memos_key_on_params_and_config():
    # lambda_m and unity_check are memoized on (params, quad): equal configs
    # share one entry, and another rel_tolerance or angular_nodes makes
    # another, though neither value reads angular_nodes
    params = FiberMeasureParams(a=2.0, m=1)
    coarse, fine = QuadratureConfig(angular_nodes=32), QuadratureConfig(angular_nodes=64)
    assert coarse != fine
    lambda_m.cache_clear()
    unity_check.cache_clear()
    first = lambda_m(params, coarse)
    assert lambda_m(params, QuadratureConfig(angular_nodes=32)) == first
    assert unity_check(params, coarse) == unity_check(params, QuadratureConfig())
    assert lambda_m.cache_info().misses == 1
    assert unity_check.cache_info().misses == 1
    assert lambda_m(params, fine) == first
    assert unity_check(params, coarse) == unity_check(params, fine)
    assert lambda_m.cache_info().misses == 2
    assert unity_check.cache_info().misses == 2
    # another tolerance is another entry
    lambda_m(params, QuadratureConfig(rel_tolerance=1e-8, angular_nodes=64))
    assert lambda_m.cache_info().misses == 3
    assert lambda_m.cache_info().currsize == 3


def test_cutoffs_agree_outside_transition_band():
    smooth = FiberMeasureParams(a=1.5, m=0, cutoff=Cutoff.SMOOTH_BUMP)
    hard = FiberMeasureParams(a=1.5, m=0, cutoff=Cutoff.HARD_STEP)
    for r in (0.2, 0.8, 1.0, 1.5, 2.0, 5.0):
        s, h = radial_density(r, smooth), radial_density(r, hard)
        if r <= 1.0 or r >= math.sqrt(2.0):
            assert s == h, r
    # inside the band the smooth density interpolates strictly monotonically
    band = np.linspace(1.001, math.sqrt(2.0) - 0.001, 40)
    sv = radial_density(band, smooth)
    hv = radial_density(band, hard)
    assert np.all(sv > 0)
    assert not np.allclose(sv, hv)


def test_params_validation():
    with pytest.raises(ValueError):
        FiberMeasureParams(a=0.0, m=0)
    with pytest.raises(ValueError):
        FiberMeasureParams(a=1.0, m=-1)
    # a = m/2 diverges: the parameters are built, and lambda_m refuses them
    divergent = FiberMeasureParams(a=1.0, m=2)
    with pytest.raises(DivergenceDetected):
        lambda_m(divergent, DEFAULT)
    FiberMeasureParams(a=1.01, m=2)


@pytest.mark.parametrize("m", [True, False])
def test_params_refuse_bool_m(m):
    with pytest.raises(ValueError, match="m must be an integer"):
        FiberMeasureParams(a=1.0, m=m)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tolerance=1e-13)  # scipy quad cannot reach it
    with pytest.raises(ValueError):
        QuadratureConfig(angular_nodes=4)


def test_quadrature_config_refuses_bool_nodes():
    with pytest.raises(ValueError, match="angular_nodes must be an integer"):
        QuadratureConfig(angular_nodes=True)


def test_lambda_hard_cutoff_closed_form():
    # Int r^(2m) rho = 1/(2m+2) + 2a^2/(2a-m) exactly for the hard step
    for a in (1.0, 2.0, 3.0):
        for m in (0, 1):
            p = FiberMeasureParams(a=a, m=m, cutoff=Cutoff.HARD_STEP)
            expected = 2.0 * math.pi * (1.0 / (2 * m + 2) + 2 * a * a / (2 * a - m))
            assert abs(lambda_m(p, TIGHT) - expected) < 1e-8, (a, m)
    assert abs(lambda_m(
        FiberMeasureParams(a=1.0, m=0, cutoff=Cutoff.HARD_STEP), TIGHT
    ) - 3.0 * math.pi) < 1e-8


def test_lambda_smooth_stable_under_refinement():
    p = FiberMeasureParams(a=1.0, m=0)
    coarse = lambda_m(p, QuadratureConfig(rel_tolerance=1e-6))
    fine = lambda_m(p, QuadratureConfig(rel_tolerance=1e-9))
    assert coarse > 0
    assert abs(coarse - fine) < 1e-5 * fine


def test_unity_check_is_one():
    for a, m in [(1.0, 0), (2.0, 1), (3.0, 2), (5.0, 3)]:
        for cutoff in (Cutoff.SMOOTH_BUMP, Cutoff.HARD_STEP):
            p = FiberMeasureParams(a=a, m=m, cutoff=cutoff)
            assert abs(unity_check(p, TIGHT) - 1.0) < 1e-8, (a, m, cutoff)


def _mp_phi1(x):
    if x <= 1:
        return mpmath.mpf(1)
    if x >= 2:
        return mpmath.mpf(0)
    t = x - 1
    return 1 / (1 + mpmath.exp(-(1 / t - 1 / (1 - t))))


@functools.lru_cache(maxsize=None)
def _lambda_mpmath(a, m):
    # smooth-cutoff normalizing mass by mpmath tanh-sinh quadrature at 30
    # digits, written from the density formula with no cstar_index code
    with mpmath.workdps(30):
        aa = mpmath.mpf(a)

        def integrand(r):
            p1 = _mp_phi1(r * r)
            return r ** (2 * m) * (p1 + (1 - p1) * 4 * aa * aa * r ** (-4 * aa - 2)) * r

        return float(2 * mpmath.pi * mpmath.quad(integrand, [0, 1, mpmath.sqrt(2), mpmath.inf]))


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_smooth_cutoff_against_mpmath(tol):
    # tail exponents 4a - 2m of 1.2, 2.07, 4 and 6
    q = QuadratureConfig(rel_tolerance=tol)
    for a, m in [(0.8, 1), (1.517, 2), (1.0, 0), (1.5, 0)]:
        p = FiberMeasureParams(a=a, m=m)
        ref = _lambda_mpmath(a, m)
        lam = lambda_m(p, q)
        unity = unity_check(p, q)
        assert abs(lam - ref) <= 10 * tol * ref, (a, m)
        assert abs(unity - 1.0) <= 10 * tol, (a, m)
        # unity_check's numerator is its own route to lambda_m
        assert abs(unity * lam - ref) <= 10 * tol * ref, (a, m)


def test_refine_budget_and_failure():
    calls = []

    def unsettled(x):
        # 1/x is not integrable at 0: each doubling adds about log 2
        calls.append(x.size // measure._GAUSS_X.size)
        return 1.0 / x

    vals = {}
    with pytest.raises(QuadratureError, match=r"with up to 8192 panels"):
        measure._refine(unsettled, 0.0, 1.0, 1e-3, vals)
    levels = sorted(n for _, _, n in vals)
    assert levels[0] == 1
    assert levels[-1] == 2 ** (measure.MAX_SUBDIVISIONS + 1) == 2**13
    assert levels == [2**k for k in range(14)]
    # 1 and 2 panels share the first call, every finer level has its own
    assert calls == [1 + 2] + levels[2:]

    # a polynomial is exact on one panel, so the first comparison settles
    val, n = measure._refine(lambda x: x * x, 0.0, 3.0, 1e-12, {})
    assert abs(val - 9.0) < 1e-12 and n == 2


# The per-panel walk the batched one replaced: one call of f per panel set,
# the scale pass first, then each segment and tail window doubled in turn.
# It is the oracle for the batched walk's values, rules and radii.


def _oracle_panel_points(lo, hi, n_panels):
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    pts = (mids[:, None] + half * measure._GAUSS_X[None, :]).ravel()
    wts = np.tile(measure._GAUSS_W * half, n_panels)
    return pts, wts


def _oracle_panel_integral(f, lo, hi, n_panels):
    pts, wts = _oracle_panel_points(lo, hi, n_panels)
    vals = np.asarray(f(pts))
    return complex(np.dot(vals, wts))


def _oracle_refine(f, lo, hi, tol_abs):
    n = 1
    prev = _oracle_panel_integral(f, lo, hi, n)
    for _ in range(measure.MAX_SUBDIVISIONS + 1):
        n *= 2
        cur = _oracle_panel_integral(f, lo, hi, n)
        if abs(cur - prev) <= tol_abs:
            return cur, n
        prev = cur
    raise QuadratureError(f"no convergence on [{lo:g}, {hi:g}] with up to {n} panels")


def _oracle_integrate_radial(f, seams, rel_tolerance, scale_floor=0.0):
    edges = [0.0, *seams]
    segments = list(zip(edges[:-1], edges[1:]))
    scale = sum(abs(_oracle_panel_integral(f, lo, hi, 4)) for lo, hi in segments)
    scale += abs(_oracle_panel_integral(f, edges[-1], 2 * edges[-1], 4))
    scale = max(scale, scale_floor, 1e-300)
    budget = rel_tolerance * scale
    seg_tol = 0.1 * budget / (len(segments) + 1)
    total = 0j
    rule = []
    for lo, hi in segments:
        val, n = _oracle_refine(f, lo, hi, seg_tol)
        total += val
        rule.append((lo, hi, n))
    tail_tol = 0.25 * budget
    lo = edges[-1]
    prev_mag = None
    strikes = 0
    for _ in range(measure._TAIL_WINDOW_BUDGET):
        val, n = _oracle_refine(f, lo, 2 * lo, seg_tol)
        total += val
        rule.append((lo, 2 * lo, n))
        mag = abs(val)
        if mag <= 1e-300:
            return total, rule
        if prev_mag is not None and prev_mag > 0:
            ratio = mag / prev_mag
            if ratio >= measure._FLAT_RATIO:
                if mag > tail_tol:
                    strikes += 1
                    if strikes >= 3:
                        raise DivergenceDetected(
                            f"tail windows stopped decaying (ratio {ratio:.3f} "
                            f"at window [{lo:g}, {2 * lo:g}])"
                        )
            else:
                strikes = 0
                if mag <= tail_tol * (1.0 - ratio):
                    return total, rule
        prev_mag = mag
        lo *= 2
    raise QuadratureError("tail did not settle within the window budget")


def _run_walk(walk, f, args, kwargs):
    """Outcome, rule and per-call radii of one walk of f."""
    calls = []

    def counted(r):
        calls.append(np.array(r))
        return f(r)

    rule = None
    try:
        value, rule = walk(counted, *args, **kwargs)
        outcome = np.complex128(value).tobytes()
    except ArithmeticError as exc:
        outcome = (type(exc), str(exc))
    return outcome, rule, calls


_BATCHED_WALK = measure._integrate_radial


def _same_walks(captured):
    """Replay each captured walk, unseeded, on both engines and compare them."""
    assert captured
    for f, args, kwargs, _ in captured:
        new = _run_walk(_BATCHED_WALK, f, args, kwargs)
        old = _run_walk(_oracle_integrate_radial, f, args, kwargs)
        assert new[:2] == old[:2]
        # the oracle evaluates the scale pass's 4-panel sets twice; the
        # batched walk evaluates each of the oracle's panel sets once
        distinct = list({c.tobytes(): c for c in old[2]}.values())
        radii = np.sort(np.concatenate(new[2]))
        assert radii.tobytes() == np.sort(np.concatenate(distinct)).tobytes()
        assert len(new[2]) < len(old[2])


@pytest.fixture
def walks(monkeypatch):
    """(f, args, kwargs, seed) of every radial walk, which still runs as
    usual; seed is a copy of the estimates a caller hands the walk as vals
    (empty if none), and kwargs lacks them, so a replay walks unseeded."""
    captured = []
    engine = measure._integrate_radial

    def capturing(f, *args, vals=None, **kwargs):
        captured.append((f, args, kwargs, dict(vals or {})))
        return engine(f, *args, vals=vals, **kwargs)

    monkeypatch.setattr(measure, "_integrate_radial", capturing)
    return captured


@pytest.mark.parametrize(
    "a, m, cutoff, tol",
    [
        (1.0, 0, Cutoff.SMOOTH_BUMP, 1e-6),
        (1.0, 0, Cutoff.HARD_STEP, 1e-6),
        (1.5, 2, Cutoff.SMOOTH_BUMP, 1e-10),
        (2.0, 1, Cutoff.HARD_STEP, 1e-8),
        (0.6, 1, Cutoff.SMOOTH_BUMP, 1e-6),
        (17.0, 16, Cutoff.SMOOTH_BUMP, 1e-6),
        (3.0, 2, Cutoff.SMOOTH_BUMP, 1e-3),
    ],
)
def test_batched_walk_matches_oracle_on_lambda(walks, a, m, cutoff, tol):
    lambda_m.__wrapped__(FiberMeasureParams(a=a, m=m, cutoff=cutoff), QuadratureConfig(tol))
    _same_walks(walks)


def test_batched_walk_matches_oracle_on_pullback(walks):
    p = FiberMeasureParams(a=1.0, m=0)
    lambda_m(p, DEFAULT)
    for w in measure._PROBE_POINTS:
        pullback_measure_total(p, DEFAULT, complex(w))
    assert len(walks) >= 3  # and lambda_m's walk where its cache was cold
    _same_walks(walks)


def _ring_envelope(u, p, t):
    """A projector integrand's magnitude profile on radii t: the angular
    mean of |u| on the ring of the direction 1, times the radial weight."""
    n = DEFAULT.angular_nodes
    xi = np.exp(1j * (2.0 * math.pi * np.arange(n) / n))
    rays = getattr(u, "on_rays", None)
    rings = u(np.multiply.outer(t, xi)) if rays is None else rays(xi, t)
    weight = t**p.m * radial_density(t, p) * (2.0 * math.pi / lambda_m(p, DEFAULT))
    return (np.abs(rings) @ np.full(n, 1.0 / n)) * weight


def test_batched_walk_matches_oracle_on_projector_rules(walks):
    p = FiberMeasureParams(a=1.0, m=0)
    lambda_m(p, DEFAULT)
    pu = project_m(_bump, p, DEFAULT)
    project_m(pu, p, DEFAULT)
    assert len(walks) == 2
    _same_walks(walks)
    r2 = math.sqrt(2.0)
    first = [(0.0, 1.0, 4), (1.0, r2, 4), (r2, 2 * r2, 4), (0.0, 1.0, 1), (0.0, 1.0, 2)]
    for u, (f, args, kwargs, seed) in zip((_bump, pu), walks):
        # the seed is the walk's own first call: the scale pass's three
        # 4-panel sets, then 1 and 2 panels of [0, 1], each bit for bit
        assert list(seed) == first
        own = measure._panel_integrals(f, first, {})
        assert [np.complex128(seed[k]).tobytes() for k in first] == [
            np.complex128(own[k]).tobytes() for k in first
        ]
        # seeded, the walk skips that call and makes every other one
        seeded = _run_walk(_BATCHED_WALK, f, args, {**kwargs, "vals": dict(seed)})
        unseeded = _run_walk(_BATCHED_WALK, f, args, kwargs)
        assert seeded[:2] == unseeded[:2]
        assert [c.tobytes() for c in seeded[2]] == [c.tobytes() for c in unseeded[2][1:]]
        # the envelope floor: the three 4-panel sets of the same rings
        floor = args[2]
        assert floor == abs(
            sum(_oracle_panel_integral(lambda t: _ring_envelope(u, p, t), *k) for k in first[:3])
        )


def test_projector_build_evaluates_u_once_per_walk_node(walks):
    # the envelope floor reads the walk's first call, so u sees each radial
    # node of the walk on one ring and no other point: 32 x 324 radii for
    # P(bump) at (1, 0), where a separate floor call added 32 x 144 = 4,608
    p = FiberMeasureParams(a=1.0, m=0)
    lambda_m(p, DEFAULT)
    sizes = []

    def recorded(w):
        sizes.append(np.size(w))
        return _bump(w)

    project_m(recorded, p, DEFAULT)
    seen = sum(sizes)
    ((f, args, kwargs, _),) = walks
    radii = sum(c.size for c in _run_walk(_BATCHED_WALK, f, args, kwargs)[2])
    assert seen == DEFAULT.angular_nodes * radii == 10368


def test_batched_walk_matches_oracle_on_failures(walks):
    with pytest.raises(DivergenceDetected):
        lambda_m.__wrapped__(FiberMeasureParams(a=0.4, m=1), DEFAULT)
    # what measure --a 6.1 --m 12 meets: the pulled-back integrand is
    # singular at s = 0, so the first segment never settles
    p = FiberMeasureParams(a=6.1, m=12)
    lambda_m(p, DEFAULT)
    with pytest.raises(QuadratureError, match=r"no convergence on \[0, 0.494975\]"):
        pullback_measure_total(p, DEFAULT, complex(measure._PROBE_POINTS[0]))
    _same_walks(walks)


@pytest.mark.parametrize(
    "a, m, cutoff, tol",
    [
        (1.0, 0, Cutoff.SMOOTH_BUMP, 1e-6),
        (1.0, 0, Cutoff.HARD_STEP, 1e-8),
        (1.5, 2, Cutoff.SMOOTH_BUMP, 1e-10),
        (2.0, 1, Cutoff.HARD_STEP, 1e-6),
        (3.0, 2, Cutoff.SMOOTH_BUMP, 1e-3),
    ],
)
def test_walk_value_is_its_rule_summed(walks, a, m, cutoff, tol):
    # the returned rule is the panel sets the value was summed from: each
    # one's estimate on its own, added in rule order from 0j, gives the
    # value bit for bit
    p, q = FiberMeasureParams(a=a, m=m, cutoff=cutoff), QuadratureConfig(tol)
    lambda_m.__wrapped__(p, q)
    pullback_measure_total(p, q, complex(measure._PROBE_POINTS[2]))
    assert len(walks) >= 2  # and lambda_m's own walk where its cache was cold
    for f, args, kwargs, _ in walks:
        value, rule = _BATCHED_WALK(f, *args, **kwargs)
        assert len(rule) >= 3 and [lo for lo, _, _ in rule] == sorted(lo for lo, _, _ in rule)
        total = 0j
        for key in rule:
            total += measure._panel_integrals(f, [key], {})[key]
        assert np.complex128(total).tobytes() == np.complex128(value).tobytes()


@pytest.mark.parametrize(
    "w", [0, 0.0, math.nan, math.inf, complex(1.0, math.inf), complex(math.nan, 1.0)]
)
def test_pullback_refuses_zero_and_nonfinite(w):
    p = FiberMeasureParams(a=1.0, m=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not evaluated with numpy warnings
        with pytest.raises(ValueError, match="finite nonzero point"):
            pullback_measure_total(p, DEFAULT, w)


@pytest.mark.parametrize("tol", [DEFAULT.rel_tolerance, 3e-13])
def test_pullback_measure_total_at_extreme_moduli(tol):
    # the Jacobian t / s keeps every factor in the float range across the
    # supported moduli, so the mass is one there with no numpy warning
    q = QuadratureConfig(tol)
    hard = FiberMeasureParams(a=2.0, m=1, cutoff=Cutoff.HARD_STEP)
    for p in (FiberMeasureParams(a=1.0, m=0), hard, FiberMeasureParams(a=9.0, m=4)):
        for w in (1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                total = pullback_measure_total(p, q, w)
            assert abs(total - 1.0) <= 10 * tol, (p, w)


@pytest.mark.parametrize("w", [1e-305, 1e305, complex(0.0, -1e-305), 1e300 * (1 + 1j)])
def test_pullback_refuses_moduli_out_of_range(w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="modulus between 1e-300 and 1e300"):
            pullback_measure_total(FiberMeasureParams(a=1.0, m=0), DEFAULT, w)


def test_panel_points_are_cached_read_only():
    assert measure._panel_points.cache_info().maxsize is not None
    pts, wts = measure._panel_points(0.0, 1.0, 2)
    assert measure._panel_points(0.0, 1.0, 2)[0] is pts
    for arr in (pts, wts):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.fixture
def rule_sizes(monkeypatch):
    """Radial node counts of the rules projectors build, in build order."""
    sizes = []
    engine = measure._integrate_radial

    def recording(f, *args, **kwargs):
        value, rule = engine(f, *args, **kwargs)
        if f.__name__ == "_profile":
            sizes.append(sum(n for _, _, n in rule) * measure._GAUSS_X.size)
        return value, rule

    monkeypatch.setattr(measure, "_integrate_radial", recording)
    return sizes


def test_radial_rule_size_set_by_error_estimate(rule_sizes):
    p = FiberMeasureParams(a=1.0, m=0)
    for k in range(-3, 4):
        project_m(lambda w, k=k: w**k, p, DEFAULT)
    # a killed monomial w**k, k != m, needs two segments and two tail
    # windows, each settled at its first comparison: 4 x 2 panels x 12 nodes
    assert rule_sizes[:3] + rule_sizes[4:] == [96] * 6
    assert rule_sizes[3] <= 216  # w**m itself
    rule_sizes.clear()
    pu = project_m(_bump, p, DEFAULT)
    project_m(pu, p, DEFAULT)
    assert rule_sizes[0] <= 144 and rule_sizes[1] <= 216


def test_divergence_detected_empirically():
    for m in (1, 2):
        p = FiberMeasureParams(a=m / 2 - 0.1, m=m)
        with pytest.raises(DivergenceDetected):
            lambda_m(p, DEFAULT)
        with pytest.raises(DivergenceDetected):
            unity_check(p, DEFAULT)
    # the borderline case diverges logarithmically and must also be caught
    p = FiberMeasureParams(a=1.0, m=2)
    with pytest.raises(DivergenceDetected):
        lambda_m(p, DEFAULT)


@pytest.mark.parametrize("a, m", [(0.4, 1), (0.9, 2), (1.0, 2)])
@pytest.mark.parametrize(
    "consume",
    [
        lambda p: lambda_m(p, DEFAULT),
        lambda p: unity_check(p, DEFAULT),
        lambda p: pullback_measure_total(p, DEFAULT, 0.7 * np.exp(0.4j)),
        lambda p: project_m(_bump, p, DEFAULT),
        lambda p: projector_axioms_check(p, DEFAULT),
    ],
    ids=["lambda_m", "unity_check", "pullback_measure_total", "project_m", "projector_axioms_check"],
)
def test_every_consumer_refuses_divergent_parameters(consume, a, m):
    # construction accepts a <= m/2 (the last case is the borderline
    # a = m/2); the tail-window detector is the only refusal
    p = FiberMeasureParams(a=a, m=m)
    with pytest.raises(DivergenceDetected, match="tail windows stopped decaying"):
        consume(p)


def test_just_convergent_side_converges():
    p = FiberMeasureParams(a=0.5 + 0.1, m=1)
    val = lambda_m(p, DEFAULT)
    assert math.isfinite(val) and val > 0


def test_pullback_measure_total_is_one():
    for cutoff in (Cutoff.SMOOTH_BUMP, Cutoff.HARD_STEP):
        p = FiberMeasureParams(a=1.0, m=0, cutoff=cutoff)
        for w in (1.0, 0.7 * np.exp(0.4j), 1.4 * np.exp(-1.1j)):
            assert abs(pullback_measure_total(p, DEFAULT, w) - 1.0) < 1e-5
    p = FiberMeasureParams(a=2.0, m=1)
    assert abs(pullback_measure_total(p, TIGHT, 1.1) - 1.0) < 1e-8


def test_projector_value_against_independent_oracle():
    # hard cutoff: lambda has a closed form, the radial integral goes to
    # scipy, and the angular average to a dense trapezoid rule, so no code
    # path is shared with project_m
    for (a, m), bump in itertools.product([(1.0, 0), (2.0, 1)], [_bump, _bump_off_axis]):
        p = FiberMeasureParams(a=a, m=m, cutoff=Cutoff.HARD_STEP)
        lam_exact = 2.0 * math.pi * (1.0 / (2 * m + 2) + 2 * a * a / (2 * a - m))
        proj = project_m(bump, p, QuadratureConfig(rel_tolerance=1e-8))
        nphi = 512
        phis = 2.0 * np.pi * np.arange(nphi) / nphi

        def radial(t):
            vals = bump(t * np.exp(1j * phis))
            return float(np.real(np.mean(vals * np.exp(-1j * m * phis)))) * t**m

        i1 = scipy_quad(lambda t: radial(t) * t, 0, 1, epsabs=1e-13, epsrel=1e-12, limit=300)[0]
        i2 = scipy_quad(
            lambda t: radial(t) * 4 * a * a * t ** (-4 * a - 1),
            1, 30.0, epsabs=1e-13, epsrel=1e-12, limit=300,
        )[0]
        coefficient = 2.0 * math.pi * (i1 + i2) / lam_exact
        for w in (0.8 * np.exp(1.1j), 1.3):
            got = proj(complex(w))
            want = complex(w) ** m * coefficient
            assert abs(got - want) < 1e-7, (a, m, bump.__name__, w)


def test_one_radial_rule_per_projector(monkeypatch):
    builds = []
    ring_sizes = []
    engine = measure._integrate_radial

    def counted(f, *args, **kwargs):
        builds.append(f.__name__)
        value, rule = engine(f, *args, **kwargs)
        if f.__name__ == "_profile":
            ring_sizes.append(sum(n for _, _, n in rule) * measure._GAUSS_X.size * q.angular_nodes)
        return value, rule

    sizes = []

    def recorded(f):
        def g(w):
            sizes.append(np.size(w))
            return f(w)

        return g

    p = FiberMeasureParams(a=2.0, m=1)
    q = QuadratureConfig(rel_tolerance=1e-3)
    lambda_m(p, q)  # the normalization has its own radial integral, cached
    monkeypatch.setattr(measure, "_integrate_radial", counted)
    pu = project_m(recorded(_bump), p, q)
    assert builds == ["_profile"]
    grid = np.outer(np.linspace(0.3, 3.0, 40), np.exp(1j * np.linspace(0.0, 6.0, 5)))
    vals = pu(grid)
    assert len(builds) == 1  # 40 distinct moduli, still the one rule

    ppu = project_m(recorded(pu), p, q)
    assert len(builds) == 2
    sizes.clear()
    assert abs(ppu(grid[10, 1]) - vals[10, 1]) <= 10 * q.rel_tolerance
    assert len(builds) == 2
    # P(P u) hands both u and P u their ring values in blocks of at most
    # _RING_BLOCK points, or one direction's ring where that is larger
    assert sizes and max(sizes) <= max(measure._RING_BLOCK, *ring_sizes)


def test_projector_shapes_and_zero_rejection():
    p = FiberMeasureParams(a=1.0, m=1)
    proj = project_m(_bump, p, DEFAULT)
    grid = np.array([[1.0 + 0j, 0.5j], [-1.2 + 0.3j, 2.0 + 0j]])
    vals = proj(grid)
    assert vals.shape == grid.shape
    assert isinstance(proj(1.0 + 0.5j), complex)
    # below the smallest normal modulus, w / |w| would overflow to nan
    for bad in (0.0, 1e-310, math.inf, math.nan, complex(1.0, math.inf)):
        with pytest.raises(ValueError):
            proj(bad)
    with pytest.raises(ValueError):
        proj(np.array([1.0, math.nan]))


def _counting(f, counts):
    def g(w):
        counts.append(np.size(w))
        return f(w)

    return g


def test_projector_evaluates_each_direction_once(rule_sizes):
    # 7 moduli 2**k on each of 5 angles: scaling by a power of two is exact,
    # so the 35 points have exactly 5 bitwise-distinct directions
    p = FiberMeasureParams(a=2.0, m=1)
    counts = []
    proj = project_m(_counting(_bump, counts), p, DEFAULT)
    ring_size = rule_sizes[0] * DEFAULT.angular_nodes
    angles = np.exp(1j * np.array([0.3, 1.7, 2.9, -0.8, -2.2]))
    points = np.multiply.outer(2.0 ** np.arange(-3, 4), angles).ravel()
    grid = np.random.default_rng(8).permutation(points).reshape(5, 7)
    counts.clear()
    vals = proj(grid)
    assert sum(counts) == 5 * ring_size
    assert vals.shape == grid.shape
    for z, got in zip(grid.ravel(), vals.ravel()):
        want = proj(complex(z))
        assert got == want, z


_BATCH_POINTS = 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False))


@pytest.mark.parametrize("a, m", [(1.0, 0), (2.0, 1), (2.5, 3), (9.0, 4)])
def test_projector_value_does_not_depend_on_batch(a, m):
    # a direction's value is its own sum: the other directions of a call,
    # and so the call's size, must not move its bits, and a lone point is
    # a batch of one, so its |w|**m is the array power's
    p = FiberMeasureParams(a=a, m=m)
    batched = project_m(measure._bump, p, DEFAULT)(_BATCH_POINTS)
    single = project_m(measure._bump, p, DEFAULT)
    alone = np.array([single(complex(z)) for z in _BATCH_POINTS])
    assert batched.tobytes() == alone.tobytes()


def test_ring_block_changes_no_bit(monkeypatch):
    p = FiberMeasureParams(a=1.0, m=0)
    points = np.outer(np.linspace(0.3, 3.0, 7), np.exp(1j * np.linspace(-3.0, 3.0, 11)))

    def run():
        values = project_m(measure._bump, p, DEFAULT)(points)
        return values.tobytes(), projector_axioms_check(p, DEFAULT)

    default = run()
    for block in (1, 2**20):
        monkeypatch.setattr(measure, "_RING_BLOCK", block)
        assert run() == default, block


def test_axioms_check_bump_work(monkeypatch):
    # the block decides which call a point goes to, never whether it is
    # evaluated: the direction memo and the rays hook set this count
    counts = []
    monkeypatch.setattr(measure, "_bump", _counting(measure._bump, counts))
    projector_axioms_check(FiberMeasureParams(a=1.0, m=0), DEFAULT)
    assert 0 < sum(counts) <= 633_984


@pytest.mark.parametrize("a, m", [(1.0, 0), (2.0, 1), (3.0, 2)])
def test_rays_hook_matches_generic_path(monkeypatch, a, m):
    # P(P u) built on P u itself takes its rays hook; built on a plain
    # function of the same P u it takes the generic path.  Both must build
    # the same rule and agree to rounding.
    p = FiberMeasureParams(a=a, m=m)
    pu = project_m(_bump, p, DEFAULT)
    rules = []
    engine = measure._integrate_radial

    def recording(f, *args, **kwargs):
        value, rule = engine(f, *args, **kwargs)
        if f.__name__ == "_profile":
            rules.append(rule)
        return value, rule

    monkeypatch.setattr(measure, "_integrate_radial", recording)
    hooked = project_m(pu, p, DEFAULT)
    generic = project_m(lambda w: pu(w), p, DEFAULT)
    assert len(rules) == 2 and rules[0] == rules[1]
    grid = np.outer([0.5, 1.3, 2.6], np.exp(1j * np.linspace(-3.0, 3.0, 5)))
    for points in (np.array(measure._PROBE_POINTS), grid):
        want = generic(points)
        assert np.all(np.abs(hooked(points) - want) <= 1e-14 * np.abs(want))

    radii = np.linspace(0.3, 3.0, 9)
    c = 0.8 * np.exp(1j * np.linspace(-3.0, 3.0, 13))
    want = pu(np.multiply.outer(radii, c))
    got = pu.on_rays(c, radii)
    assert got.shape == want.shape == (9, 13)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))


def test_rays_hook_rejects_zero_and_nonfinite():
    proj = project_m(_bump, FiberMeasureParams(a=1.0, m=1), DEFAULT)
    for c, t in ((np.array([1.0, 0.0]), 1.0), (np.array([1.0j]), np.array([0.5, math.inf])),
                 (np.array([1.0j]), -1.0), (np.array([math.nan]), 1.0)):
        with pytest.raises(ValueError):
            proj.on_rays(c, t)


def test_nested_projector_inner_work_per_ray(rule_sizes):
    # through the rays hook a fresh outer direction d hands the inner
    # projector its rays d * xi_g whole: one inner ring per angular node
    p = FiberMeasureParams(a=1.0, m=0)
    inner_counts = []
    pu = project_m(_counting(_bump, inner_counts), p, DEFAULT)
    ppu = project_m(pu, p, DEFAULT)
    inner_ring = rule_sizes[0] * DEFAULT.angular_nodes
    for z in (np.exp(2.5j), 0.3 * np.exp(-1.3j)):
        inner_counts.clear()
        ppu(complex(z))
        assert sum(inner_counts) == inner_ring * DEFAULT.angular_nodes


def _aliasing_xfail(m, error):
    reason = (
        f"ROADMAP, angular error estimate item: 32 angular nodes alias P_m(bump) "
        f"at m={m} ({error} relative)"
    )
    return pytest.param(m, marks=pytest.mark.xfail(strict=True, reason=reason))


@pytest.mark.parametrize("m", [8, 12, _aliasing_xfail(14, "2.2e-3"), _aliasing_xfail(16, "1.0")])
def test_angular_rule_meets_tolerance(m):
    # nothing estimates the angular error yet: compare the default 32 nodes
    # with 256 at the probe points, relative to |P_m u|, which shrinks with m
    p = FiberMeasureParams(a=m + 1.0, m=m)
    points = np.array(measure._PROBE_POINTS)
    got = project_m(measure._bump, p, DEFAULT)(points)
    want = project_m(measure._bump, p, QuadratureConfig(angular_nodes=256))(points)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 10 * DEFAULT.rel_tolerance


def test_nested_projector_inner_work_per_direction(rule_sizes):
    # recorded_pu is a plain function, so it hides the rays hook and the
    # outer projector takes the generic path: one inner ring per direction
    p = FiberMeasureParams(a=1.0, m=0)
    inner_counts = []
    outer_args = []

    def recorded_pu(w):
        outer_args.append(np.array(w, dtype=complex).ravel())
        return pu(w)

    pu = project_m(_counting(_bump, inner_counts), p, DEFAULT)
    ppu = project_m(recorded_pu, p, DEFAULT)
    inner_ring = rule_sizes[0] * DEFAULT.angular_nodes
    outer_args.clear()
    inner_counts.clear()
    ppu(complex(np.exp(2.5j)))
    received = np.concatenate(outer_args)
    distinct = {complex(d) for d in received / np.abs(received)}
    assert len(distinct) < received.size
    assert sum(inner_counts) == inner_ring * len(distinct)


def test_repeated_call_reuses_every_direction(rule_sizes):
    p = FiberMeasureParams(a=2.0, m=1)
    counts = []
    proj = project_m(_counting(_bump, counts), p, DEFAULT)
    grid = np.outer(np.linspace(0.3, 3.0, 7), np.exp(1j * np.linspace(-3.0, 3.0, 11)))
    counts.clear()
    first = proj(grid)
    ring_size = rule_sizes[0] * DEFAULT.angular_nodes
    assert sum(counts) == ring_size * np.unique(grid / np.abs(grid)).size
    counts.clear()
    again = proj(grid)
    assert sum(counts) == 0
    assert again.tobytes() == first.tobytes()


def _rays_counting(proj, counts):
    # proj with its rays hook kept, recording the rays each hook call gets
    def g(w):
        return proj(w)

    def on_rays(c, t):
        counts.append(np.size(c))
        return proj.on_rays(c, t)

    g.on_rays = on_rays
    return g


@pytest.mark.parametrize("nested", [False, True], ids=["plain", "nested"])
def test_memo_merges_seen_and_unseen_directions(rule_sizes, nested):
    # a call mixing the directions of an earlier call (grid A) with new ones
    # (grid B, repeats included) runs u on the new ones only, and returns
    # what a fresh projector gives, bit for bit.  The memo matches w/|w| by
    # value, so complex(1, -0.0) in B takes the entry of 1 + 0j in A
    p = FiberMeasureParams(a=1.0, m=0)
    n_ang = DEFAULT.angular_nodes

    def make(counts):
        # the projector and the count u records per direction evaluated
        if nested:
            inner = project_m(_bump, p, DEFAULT)
            return project_m(_rays_counting(inner, counts), p, DEFAULT), n_ang
        proj = project_m(_counting(_bump, counts), p, DEFAULT)
        return proj, rule_sizes[-1] * n_ang

    counts = []
    proj, per_direction = make(counts)
    grid_a = np.append(np.outer([0.5, 1.3], np.exp(1j * np.array([-2.6, -0.9, 0.4, 2.1]))), 1.0)
    grid_b = np.array([0.8 * np.exp(0.45j), 0.6 * np.exp(0.45j), 2.0 * np.exp(-2.2j),
                       complex(1.0, -0.0)])
    union = np.concatenate([grid_a, grid_b, grid_a[:3], grid_b[:2]])
    seen = {complex(d) for d in grid_a / np.abs(grid_a)}
    new = {complex(d) for d in grid_b / np.abs(grid_b)} - seen
    assert complex(1.0, -0.0) in seen and 2 <= len(new) <= 3
    proj(grid_a)
    counts.clear()
    merged = proj(union)
    assert sum(counts) == per_direction * len(new)
    fresh, _ = make([])
    assert merged.tobytes() == fresh(union).tobytes()


def test_nested_build_evaluates_inner_once_per_direction(rule_sizes):
    # the outer rule build calls the inner projector many times, largely on
    # the same directions: the inner u sees each of them once over all calls
    # (recorded_pu hides the rays hook, so this is the generic path)
    p = FiberMeasureParams(a=1.0, m=0)
    inner_counts = []
    outer_args = []

    def recorded_pu(w):
        outer_args.append(np.array(w, dtype=complex).ravel())
        return pu(w)

    pu = project_m(_counting(_bump, inner_counts), p, DEFAULT)
    inner_ring = rule_sizes[0] * DEFAULT.angular_nodes
    inner_counts.clear()
    project_m(recorded_pu, p, DEFAULT)
    received = np.concatenate(outer_args)
    distinct = {complex(d) for d in received / np.abs(received)}
    assert len(outer_args) > 1
    assert sum(inner_counts) <= inner_ring * len(distinct)
    assert sum(inner_counts) < inner_ring * sum(
        np.unique(w / np.abs(w)).size for w in outer_args
    )


def test_projectors_share_no_memo():
    p = FiberMeasureParams(a=1.0, m=0)
    counts = []
    u = _counting(_bump, counts)
    first, second = project_m(u, p, DEFAULT), project_m(u, p, DEFAULT)
    z = 0.9 * np.exp(0.7j)
    counts.clear()
    value = first(z)
    seen = sum(counts)
    assert seen > 0
    counts.clear()
    assert second(z) == value
    assert sum(counts) == seen
    counts.clear()
    first(z)
    second(z)
    assert sum(counts) == 0


@pytest.mark.xfail(
    strict=True,
    raises=QuadratureError,
    reason="ROADMAP, angular error estimate item: its log-radius map should settle the "
    "pulled-back integrand, which grows like s^(4a-2m-1) at s = 0",
)
def test_projector_axioms_near_the_integrability_edge():
    # a = 6.1 > m/2, so the measure is integrable, but s^(4a-2m-1) = s^-0.6
    # at s = 0 and uniform panels never settle the pullback's first segment
    report = projector_axioms_check(FiberMeasureParams(a=6.1, m=12), DEFAULT)
    assert isinstance(report, ProjectorAxiomsReport)


def test_projector_axioms_at_default_tolerance():
    p = FiberMeasureParams(a=1.0, m=0)
    rep = projector_axioms_check(p, DEFAULT)
    assert isinstance(rep, ProjectorAxiomsReport)
    assert rep.monomial_defect < 1e-6
    assert rep.idempotency_defect < 1e-6
    assert rep.equivariance_defect < 1e-6
    assert rep.measure_total_defect < 1e-6
    assert rep.rel_tolerance == 1e-6


def test_projector_axioms_nonzero_weight():
    p = FiberMeasureParams(a=2.0, m=1)
    rep = projector_axioms_check(p, DEFAULT)
    assert rep.monomial_defect < 1e-6
    assert rep.idempotency_defect < 1e-6
    assert rep.equivariance_defect < 1e-6
    assert rep.measure_total_defect < 1e-6


def test_defects_track_tolerance():
    # every defect must stay within one order of the requested tolerance;
    # the measure total is the route with genuine tolerance dependence
    p = FiberMeasureParams(a=1.0, m=0)
    for tol in (1e-4, 1e-6, 1e-8):
        q = QuadratureConfig(rel_tolerance=tol)
        assert abs(pullback_measure_total(p, q, 1.0) - 1.0) <= 10 * tol
        assert abs(unity_check(p, q) - 1.0) <= 10 * tol
    # composed projection at three levels
    for tol in (1e-3, 1e-4, 1e-5):
        q = QuadratureConfig(rel_tolerance=tol)
        pu = project_m(_bump, p, q)
        ppu = project_m(pu, p, q)
        w0 = 1.0 * np.exp(2.5j)
        assert abs(ppu(complex(w0)) - pu(complex(w0))) <= 10 * tol
