"""Tests for the fiber measure, its normalization, and the weight projector.

The closed-form hard-cutoff mass pi(1+2a) and a scipy-based reconstruction
of the projector serve as independent oracles; divergence detection is
exercised on purpose with parameters on the wrong side of a = m/2.
"""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

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
    for bad in (-0.1, math.nan, math.inf):
        for r in (bad, np.float64(bad), np.array(bad), np.array([0.5, bad, 2.0])):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                radial_density(r, p)


@pytest.mark.parametrize("cutoff", list(Cutoff))
def test_scalar_radius_matches_array_path(cutoff):
    # a 0-d radius takes a float path; it must give the array path's entry
    # bit for bit, including -4a-2 integer (a = 0.25, 0.5, 1, 2)
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
            got = radial_density(r, p)
            assert type(got) is float
            assert got == want, (a, r)
            assert radial_density(np.float64(r), p) == want
            assert radial_density(np.array(r), p) == want


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
    fast = unity_check(params, quad)
    monkeypatch.setattr(
        measure, "_density_at", lambda r, p: float(radial_density(np.array([r]), p)[0])
    )
    assert unity_check(params, quad) == fast


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


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tolerance=1e-13)  # scipy quad cannot reach it
    with pytest.raises(ValueError):
        QuadratureConfig(angular_nodes=4)


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
    panels = []

    def unsettled(x):
        # integrates to the node count times the length: never settles
        panels.append(x.size // measure._GAUSS_X.size)
        return np.full(x.shape, float(x.size))

    with pytest.raises(QuadratureError):
        measure._refine(unsettled, 0.0, 1.0, 1e-3)
    assert panels[0] == 1
    assert max(panels) == 2 ** (measure._MAX_SUBDIVISIONS + 1) == 2**13

    # a polynomial is exact on one panel, so the first comparison settles
    val, n = measure._refine(lambda x: x * x, 0.0, 3.0, 1e-12)
    assert abs(val - 9.0) < 1e-12 and n == 2


@pytest.fixture
def rule_sizes(monkeypatch):
    """Radial node counts of the rules projectors build, in build order."""
    sizes = []
    engine = measure._integrate_radial

    def recording(*args, **kwargs):
        value = engine(*args, **kwargs)
        if kwargs.get("record") is not None:
            sizes.append(sum(n for _, _, n in kwargs["record"]) * measure._GAUSS_X.size)
        return value

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

    def counted(*args, **kwargs):
        builds.append(args)
        value = engine(*args, **kwargs)
        rule = sum(n for _, _, n in kwargs["record"]) * measure._GAUSS_X.size
        ring_sizes.append(rule * q.angular_nodes)
        return value

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
    assert len(builds) == 1
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
    for bad in (0.0, math.inf, math.nan, complex(1.0, math.inf)):
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


def test_projector_value_does_not_depend_on_batch():
    # a direction's value is its own sum: the other directions of a call,
    # and so the call's size, must not move its bits
    p = FiberMeasureParams(a=1.0, m=0)
    points = 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False))
    batched = project_m(measure._bump, p, DEFAULT)(points)
    single = project_m(measure._bump, p, DEFAULT)
    alone = np.array([single(complex(z)) for z in points])
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

    def recording(*args, **kwargs):
        value = engine(*args, **kwargs)
        if kwargs.get("record") is not None:
            rules.append(kwargs["record"])
        return value

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
    reason = f"ROADMAP item 2: 32 angular nodes alias P_m(bump) at m={m} ({error} relative)"
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
