"""Fiber measure on the model cylinder and the weight-m projector.

The measure interpolates between Lebesgue mass near the zero section and a
power-law tail r^(-4a-2) that makes exactly the fiberwise monomials r^(2m)
with m < 2a integrable:

    rho(r) = [phi1(r^2) + phi2(r^2) * 4 a^2 r^(-4a-2)] * r,

where phi1 is 1 on [0, 1] and 0 from 2 on (a hard step switches at 1
instead), and phi2 = 1 - phi1.  lambda_m is the total mass of r^(2m) against
2 pi rho, and dv_m = (2 pi / lambda_m) rho normalizes that moment to one.
A single radius, as scipy's quad asks for one at a time, is evaluated in
Python floats with the same IEEE operations as an array of radii, so both
give the same bits; only the tail power stays a numpy ufunc, because
numpy's float64 power and libm's pow, which Python's ** calls, can differ
in the last bit.

The projector onto fiberwise weight m averages a function over the orbit
s e^(i g) w of a point w of the punctured plane against the m-th character
of the scaling action.  Written in the radius t = s|w| of the orbit point,

    (P_m u)(w) = |w|^m * Int_0^inf Int_0^2pi u(t e^(i g) w/|w|) e^(-i m g)
                 t^m (2 pi / lambda_m) rho(t) dt dg / 2pi,

its radial weight does not depend on w, so one quadrature rule serves every
point, and the integral depends on w only through |w|^m and the direction
w/|w|.  Each projector keeps the value of every direction it has
evaluated, keyed on the computed w/|w| bit for bit, so it evaluates u once
per bitwise-distinct direction over its whole life, not once per call; u
must therefore be a pure function.  Points on one ray share that value only
when their w/|w| round to the same bits, which along a ray they often do
not, so a projector also takes its argument as rays: on_rays(c, t) gives
the value at every t * c from the one direction c/|c|.  When u is itself a
projector, the outer one hands it the rays of its ring that way, and the
inner u runs once per ray, not once per rounded direction.  The directions
a call has not seen reach u in blocks of about _RING_BLOCK = 2**14 ring
points, sized so that the complex temporaries of u and of the character sum
stay in a 2 MiB L2 cache, and each direction's value is a sum over its own
ring alone, so it does not depend on the block or on which other directions
share its call.  Everything a calculus identity
promises about the projector (idempotency, equivariance, killing other
monomials, unit total mass of the pulled-back measure) is rechecked here
numerically rather than assumed.

Quadrature is composite Gauss-Legendre with seams at the cutoff breakpoints
and geometrically growing tail windows.  On each segment the panel count
doubles from one 12-point panel until two successive estimates agree within
the segment's share of the tolerance, so that error estimate, not a fixed
minimum panel count, sets how many nodes a rule has.  Divergent parameter
choices (a <= m/2) are refused only by lambda_m, which every consumer calls
first, empirically from the window ratios, not by a formula, so the
integrability dichotomy is itself under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad as _scipy_quad
from scipy.special import expit

__all__ = [
    "DivergenceDetected",
    "QuadratureError",
    "Cutoff",
    "FiberMeasureParams",
    "QuadratureConfig",
    "radial_density",
    "lambda_m",
    "unity_check",
    "pullback_measure_total",
    "project_m",
    "ProjectorAxiomsReport",
    "projector_axioms_check",
]

_SQRT2 = math.sqrt(2.0)
_MAX_SUBDIVISIONS = 12
_MIN_REL_TOLERANCE = 1000 * np.finfo(float).eps
_BAD_RADIUS = "radius must be finite and nonnegative"


class DivergenceDetected(ArithmeticError):
    """Tail windows of a radial integral refuse to decay."""


class QuadratureError(ArithmeticError):
    """A radial integral failed to converge within the subdivision budget."""


class Cutoff(str, Enum):
    SMOOTH_BUMP = "smooth"
    HARD_STEP = "hard"


@dataclass(frozen=True)
class FiberMeasureParams:
    """Tail exponent a, fiber weight m, and the cutoff profile.

    The moment r^(2m) is integrable against the measure exactly when
    a > m/2.  Divergent combinations are accepted here and refused by
    lambda_m's tail-window detector (module docstring).  The cutoff may be
    given as a Cutoff or as its value string.
    """

    a: float
    m: int
    cutoff: Cutoff = Cutoff.SMOOTH_BUMP

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError(f"m must be an integer >= 0, got {self.m!r}")
        a = float(self.a)
        if not math.isfinite(a) or a <= 0:
            raise ValueError(f"tail exponent a must be positive, got {self.a!r}")
        object.__setattr__(self, "a", a)
        if not isinstance(self.cutoff, Cutoff):
            object.__setattr__(self, "cutoff", Cutoff(self.cutoff))


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tolerance: float = 1e-6
    angular_nodes: int = 32

    def __post_init__(self) -> None:
        # unity_check hands 0.05 * rel_tolerance to scipy's quad, which
        # refuses a relative tolerance below 50 machine epsilons
        if not (_MIN_REL_TOLERANCE < self.rel_tolerance <= 0.1):
            raise ValueError(f"rel_tolerance must lie in ({_MIN_REL_TOLERANCE:.3g}, 0.1]")
        if not isinstance(self.angular_nodes, int) or self.angular_nodes < 8:
            raise ValueError("angular_nodes must be an integer >= 8")


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def _phi1(x: np.ndarray, cutoff: Cutoff) -> np.ndarray:
    """Cutoff profile on the squared radius: 1 near 0, 0 far out."""
    if cutoff is Cutoff.HARD_STEP:
        return np.where(x <= 1.0, 1.0, 0.0)
    out = np.empty_like(x)
    out[x <= 1.0] = 1.0
    out[x >= 2.0] = 0.0
    mid = (x > 1.0) & (x < 2.0)
    if np.any(mid):
        t = x[mid] - 1.0
        # quotient step exp(-1/t) / (exp(-1/t) + exp(-1/(1-t))), written
        # through the logistic function for stability at both ends
        out[mid] = expit(1.0 / t - 1.0 / (1.0 - t))
    return out


def _density_at(r: float, params: FiberMeasureParams) -> float:
    """radial_density at one radius, in Python floats.

    Each step is the IEEE operation the array path performs on that entry,
    so the two paths agree bit for bit.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(_BAD_RADIUS)
    x = r * r
    if x <= 1.0:
        return r
    p1 = 0.0
    if params.cutoff is Cutoff.SMOOTH_BUMP and x < 2.0:
        t = x - 1.0
        try:
            # expit's own formula; where exp overflows, expit returns 0
            p1 = 1.0 / (1.0 + math.exp(-(1.0 / t - 1.0 / (1.0 - t))))
        except OverflowError:
            pass
    p2 = 1.0 - p1
    tail = 0.0
    if p2 > 0.0:
        a = params.a
        # not Python's **: it calls libm pow, which differs in the last bit
        # from numpy's float64 power (SIMD where the CPU has it) for some r
        tail = 4.0 * a * a * float((np.array([r]) ** (-4.0 * a - 2.0))[0])
    return (p1 + p2 * tail) * r


def radial_density(r, params: FiberMeasureParams):
    """Density rho(r) of the fiber measure against dr, vectorized in r.

    A 0-d radius (a Python or numpy scalar, or a 0-d array) is evaluated in
    Python floats, without numpy's per-call overhead, and returned as a
    float equal bit for bit to the array path's entry; the tail power stays
    numpy's, since libm's pow can differ from it in the last bit.  An array
    returns an array.  Radii must be finite and nonnegative.
    """
    arr = np.asarray(r, dtype=float)
    if arr.ndim == 0:
        return _density_at(float(arr), params)
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValueError(_BAD_RADIUS)
    x = arr * arr
    p1 = _phi1(x, params.cutoff)
    p2 = 1.0 - p1
    a = params.a
    tail = np.zeros_like(arr)
    mask = p2 > 0.0  # implies r > 1, so the negative power is safe
    if np.any(mask):
        tail[mask] = 4.0 * a * a * arr[mask] ** (-4.0 * a - 2.0)
    return (p1 + p2 * tail) * arr


# ---------------------------------------------------------------------------
# Radial quadrature engine
# ---------------------------------------------------------------------------

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)

_TAIL_WINDOW_BUDGET = 256
_FLAT_RATIO = 0.99  # a window this close to the previous one is not decaying


def _panel_points(lo: float, hi: float, n_panels: int):
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    pts = (mids[:, None] + half * _GAUSS_X[None, :]).ravel()
    wts = np.tile(_GAUSS_W * half, n_panels)
    return pts, wts


def _panel_integral(f, lo: float, hi: float, n_panels: int) -> complex:
    pts, wts = _panel_points(lo, hi, n_panels)
    vals = np.asarray(f(pts))
    return complex(np.dot(vals, wts))


def _refine(f, lo: float, hi: float, tol_abs: float):
    """Panel-doubling Gauss quadrature on [lo, hi]; returns (value, panels).

    The doubling starts from a single panel and stops at the first pair of
    successive estimates within tol_abs, returning the finer one, so the
    error estimate alone sets the size of the rule: there is no floor on
    the panel count.  The finest rule tried has 2**(_MAX_SUBDIVISIONS + 1)
    panels.
    """
    n = 1
    prev = _panel_integral(f, lo, hi, n)
    for _ in range(_MAX_SUBDIVISIONS + 1):
        n *= 2
        cur = _panel_integral(f, lo, hi, n)
        if abs(cur - prev) <= tol_abs:
            return cur, n
        prev = cur
    raise QuadratureError(f"no convergence on [{lo:g}, {hi:g}] with up to {n} panels")


def _integrate_radial(
    f,
    seams: Sequence[float],
    quad: QuadratureConfig,
    record=None,
    scale_floor: float = 0.0,
) -> complex:
    """Integral of f over (0, inf) with seams and a geometric tail.

    f must accept a vector of radii and may return complex values.  The tail
    is summed over doubling windows; decay ratios both terminate the sum
    (with a geometric remainder bound) and flag divergence when consecutive
    windows stop shrinking while still above tolerance.

    scale_floor anchors the tolerance budget when the integrand itself
    nearly cancels (an angular average of an off-weight function, say), so
    that a relative tolerance is never applied to a value that is zero by
    symmetry.
    """
    cuts = sorted({float(s) for s in seams if s > 0})
    if not cuts:
        raise ValueError("at least one positive seam is required")
    edges = [0.0] + cuts
    segments = list(zip(edges[:-1], edges[1:]))

    # rough scale pass to convert the relative tolerance into a budget
    scale = sum(abs(_panel_integral(f, lo, hi, 4)) for lo, hi in segments)
    scale += abs(_panel_integral(f, edges[-1], 2 * edges[-1], 4))
    scale = max(scale, scale_floor, 1e-300)
    budget = quad.rel_tolerance * scale
    seg_tol = 0.1 * budget / (len(segments) + 1)

    total = 0j
    for lo, hi in segments:
        val, n = _refine(f, lo, hi, seg_tol)
        total += val
        if record is not None:
            record.append((lo, hi, n))

    tail_tol = 0.25 * budget
    lo = edges[-1]
    prev_mag = None
    strikes = 0
    for _ in range(_TAIL_WINDOW_BUDGET):
        val, n = _refine(f, lo, 2 * lo, seg_tol)
        total += val
        if record is not None:
            record.append((lo, 2 * lo, n))
        mag = abs(val)
        if mag <= 1e-300:
            return total
        if prev_mag is not None and prev_mag > 0:
            ratio = mag / prev_mag
            if ratio >= _FLAT_RATIO:
                if mag > tail_tol:
                    strikes += 1
                    if strikes >= 3:
                        raise DivergenceDetected(
                            f"tail windows stopped decaying (ratio {ratio:.3f} "
                            f"at window [{lo:g}, {2 * lo:g}])"
                        )
            else:
                strikes = 0
                # remaining tail is below mag * ratio / (1 - ratio)
                if mag <= tail_tol * (1.0 - ratio):
                    return total
        prev_mag = mag
        lo *= 2
    raise QuadratureError("tail did not settle within the window budget")


# ---------------------------------------------------------------------------
# Moments and normalization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def lambda_m(params: FiberMeasureParams, quad: QuadratureConfig) -> float:
    """Normalizing mass lambda_m = 2 pi * Int r^(2m) rho(r) dr.

    Divergent parameters are not special-cased: they surface as
    DivergenceDetected from the tail-ratio test.
    """
    m2 = 2 * params.m

    def integrand(rr):
        return rr**m2 * radial_density(rr, params)

    val = _integrate_radial(integrand, (1.0, _SQRT2), quad)
    return 2.0 * math.pi * val.real


def unity_check(params: FiberMeasureParams, quad: QuadratureConfig) -> float:
    """Total mass of r^(2m) dv_m by an independent route; should be 1.

    The numerator uses library adaptive quadrature on the two bounded
    pieces plus the analytic power-law tail from sqrt(2) on, where the
    cutoff has fully handed over; only the denominator comes from the
    in-house engine, so agreement with 1 cross-validates both.
    """
    lam = lambda_m(params, quad)
    a, m = params.a, params.m
    if 4 * a - 2 * m <= 0:
        raise DivergenceDetected(
            f"moment m={m} has a non-integrable tail for a={a}"
        )
    m2 = 2 * m

    def integrand(rr: float) -> float:
        return rr**m2 * radial_density(rr, params)

    eps = 0.05 * quad.rel_tolerance
    i1, _ = _scipy_quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=eps, limit=200)
    i2, _ = _scipy_quad(integrand, 1.0, _SQRT2, epsabs=0.0, epsrel=eps, limit=200)
    tail = 4.0 * a * a * _SQRT2 ** (m2 - 4.0 * a) / (4.0 * a - m2)
    return 2.0 * math.pi * (i1 + i2 + tail) / lam


def pullback_measure_total(
    params: FiberMeasureParams, quad: QuadratureConfig, w: complex
) -> float:
    """Mass of the weight-m measure pulled back through the orbit of w.

    Parametrizing the group direction by xi = s e^(i g), the fiber point is
    w / xi, and the claim is that the density of the pullback integrates to
    exactly 1 for every nonzero w.  This is the normalization that makes the
    projector reproduce weight-m functions pointwise.
    """
    r0 = abs(w)
    if r0 == 0:
        raise ValueError("w must be a nonzero point of the punctured plane")
    lam = lambda_m(params, quad)
    m2 = 2 * params.m

    def integrand(s):
        t = r0 / s
        return t**m2 * radial_density(t, params) * (r0 / (s * s))

    val = _integrate_radial(integrand, (r0 / _SQRT2, r0), quad)
    return 2.0 * math.pi * val.real / lam


# ---------------------------------------------------------------------------
# Weight projector
# ---------------------------------------------------------------------------

# ring points handed to u per call: a complex temporary of 2**14 points is
# 256 KiB, so the few that u and the character sum make stay in a 2 MiB L2
_RING_BLOCK = 2**14


def project_m(
    u: Callable[[np.ndarray], np.ndarray],
    params: FiberMeasureParams,
    quad: QuadratureConfig,
) -> Callable:
    """Projector onto fiberwise weight m, returned as a callable closure.

    u must accept complex numpy arrays.  In the orbit radius t the radial
    weight W(t) = t^m rho(t) 2 pi / lambda_m does not depend on the point
    (module docstring), so one rule with seams at 1 and sqrt(2) serves every
    point.  It is built here, once, adaptively along the direction
    w/|w| = 1, with the tolerance anchored to the magnitude envelope of the
    integrand.  The returned function accepts a complex scalar or array of
    finite nonzero points.  Its value at w is |w|^m times the character sum
    of u on the ring of radial times angular nodes turned to the direction
    w/|w| (exact on trigonometric polynomials of degree below the node
    count).  The projector keeps that sum for every direction it has seen,
    keyed on the computed w/|w| bit for bit, and evaluates u only on
    directions no earlier call asked for: u runs once per bitwise-distinct
    direction over the projector's whole life.  So u must be a pure
    function, and the memory a projector holds grows with the number of
    distinct directions queried (two complex numbers each).  Nothing is
    shared between projectors.  The closure's on_rays(c, t) is the value
    at every point t * c (radii t > 0, shaped t.shape + c.shape): |t c|^m
    times the kept sum of the one direction c/|c|, where the points t * c
    themselves would round to many directions along each ray.  When u has
    that hook, as a projector does, the rule build and the rings pass it
    the rays d * xi_g and the radial nodes apart, so the nested P(P u)
    runs the inner u once per ray of the outer rings (one direction and
    its angular nodes), not once per rounded direction; any other u is
    called on the ring points d * (t xi_g).  The directions no earlier
    call asked for go to u in blocks of about _RING_BLOCK = 2**14 ring
    points (one direction's ring where that is larger), so the complex
    temporaries of u and of the character sum stay in a 2 MiB L2 cache,
    and composing the projector with itself never holds all its inner
    values at once.  A direction's value is the character sum of its own
    ring, summed over its radial nodes alone, so it is a function of that
    direction only, bit for bit: neither the block size nor the other
    directions of a call can change it.
    """
    lam = lambda_m(params, quad)
    m = params.m
    n_ang = quad.angular_nodes
    gammas = 2.0 * math.pi * np.arange(n_ang) / n_ang
    xi_phases = np.exp(1j * gammas)
    character = np.exp(-1j * m * gammas) / n_ang
    norm = 2.0 * math.pi / lam
    u_on_rays = getattr(u, "on_rays", None)

    def _weight(t: np.ndarray) -> np.ndarray:
        return t**m * radial_density(t, params) * norm

    def _u_on_rays(c: np.ndarray, t: np.ndarray) -> np.ndarray:
        # u at every point t * c, shaped t.shape + c.shape
        if u_on_rays is not None:
            return u_on_rays(c, t)
        return np.asarray(u(np.multiply.outer(t, c)))

    def _profile(t: np.ndarray) -> np.ndarray:
        return (_u_on_rays(xi_phases, t) @ character) * _weight(t)

    def _envelope(t: np.ndarray) -> np.ndarray:
        # magnitude profile of the same integrand with no phase cancellation
        mags = np.abs(_u_on_rays(xi_phases, t))
        return (mags @ np.full(n_ang, 1.0 / n_ang)) * _weight(t)

    edges = (0.0, 1.0, _SQRT2, 2 * _SQRT2)
    floor = abs(sum(_panel_integral(_envelope, lo, hi, 4) for lo, hi in zip(edges, edges[1:])))
    rec: list[tuple[float, float, int]] = []
    _integrate_radial(_profile, edges[1:3], quad, record=rec, scale_floor=floor)
    panels = [_panel_points(lo, hi, n) for lo, hi, n in rec]
    nodes = np.concatenate([pts for pts, _ in panels])
    weights = np.concatenate([wts for _, wts in panels]) * _weight(nodes)
    ring = np.multiply.outer(nodes, xi_phases)
    block = max(1, _RING_BLOCK // ring.size)
    # every direction evaluated so far, sorted, and its ring value
    memo_dirs = np.empty(0, dtype=complex)
    memo_vals = np.empty(0, dtype=complex)

    def _ring_block(d: np.ndarray) -> np.ndarray:
        # u on the rings of the directions d, shaped (d, radial, angular)
        if u_on_rays is None:
            return np.asarray(u(d[:, None, None] * ring))
        # the rays d * xi_g go to u whole, so it never rederives a direction
        return np.moveaxis(u_on_rays(np.multiply.outer(d, xi_phases), nodes), 0, 1)

    def _direction_values(dirs: np.ndarray) -> np.ndarray:
        # ring value of each direction, evaluating u only on unseen ones
        nonlocal memo_dirs, memo_vals
        dirs, inverse = np.unique(dirs, return_inverse=True)
        at = np.searchsorted(memo_dirs, dirs)
        known = at < memo_dirs.size
        known[known] = memo_dirs[at[known]] == dirs[known]
        missing = dirs[~known]
        if missing.size:
            vals = np.empty(missing.shape, dtype=complex)
            for i in range(0, missing.size, block):
                # a sum per direction, not a matrix product over the block,
                # so no block size changes the bits of a direction's value
                ring_u = _ring_block(missing[i : i + block])
                vals[i : i + block] = ((ring_u @ character) * weights).sum(axis=-1)
            memo_dirs = np.insert(memo_dirs, at[~known], missing)
            memo_vals = np.insert(memo_vals, at[~known], vals)
            at = np.searchsorted(memo_dirs, dirs)
        return memo_vals[at][inverse]

    def _check(moduli: np.ndarray) -> None:
        if not np.all(np.isfinite(moduli) & (moduli > 0)):
            raise ValueError("projector arguments must be nonzero and finite")

    def projected(w):
        arr = np.asarray(w, dtype=complex)
        flat = arr.ravel()
        moduli = np.abs(flat)
        _check(moduli)
        out = _direction_values(flat / moduli) * moduli**m
        if arr.ndim == 0:
            return complex(out[0])
        return out.reshape(arr.shape)

    def on_rays(c, t):
        """The projection at every point t * c, shaped t.shape + c.shape.

        Equals projected(np.multiply.outer(t, c)) up to rounding, but every
        point of a ray takes the ring value of the one direction c/|c|.
        """
        c = np.asarray(c, dtype=complex)
        moduli = np.abs(c)
        radii = np.multiply.outer(np.asarray(t, dtype=float), moduli)
        _check(moduli)
        _check(radii)
        vals = _direction_values((c / moduli).ravel()).reshape(c.shape)
        return vals * radii**m

    projected.on_rays = on_rays
    return projected


@dataclass(frozen=True)
class ProjectorAxiomsReport:
    """Worst-case defects of the projector axioms at one quadrature setting."""

    monomial_defect: float
    idempotency_defect: float
    equivariance_defect: float
    measure_total_defect: float
    rel_tolerance: float


_PROBE_POINTS = (
    0.7 * np.exp(0.4j),
    1.0 * np.exp(2.5j),
    1.4 * np.exp(-1.1j),
)
_EQUIVARIANCE_FACTORS = (
    1.2 * np.exp(0.8j),
    0.55 * np.exp(-1.9j),
)


def _bump(w: np.ndarray) -> np.ndarray:
    # generic smooth test function with all weights present
    return np.exp(-np.abs(w - 1.2) ** 2 / 0.4)


def projector_axioms_check(
    params: FiberMeasureParams, quad: QuadratureConfig
) -> ProjectorAxiomsReport:
    """Measure how well P_m satisfies its defining identities.

    Checks, on a fixed probe set: P_m kills the monomials w^k for k != m
    near m and fixes w^m (monomial_defect); P_m(P_m u) = P_m u for a smooth
    bump u with every weight present (idempotency_defect); P_m u transforms
    with the m-th character under scaling of the argument
    (equivariance_defect); and the pulled-back fiber measure has unit mass
    (measure_total_defect).  The monomials probed are the w^k with
    m-3 <= k <= m+3 that P_m can integrate: the radial integrand of w^k
    decays like t^(k+m-4a-1), so only k < 4a - m are kept.  For the others
    the character sum cancels a non-integrable tail, and any verdict on them
    would be rounding noise.
    """
    m = params.m

    monomial = 0.0
    for k in range(m - 3, m + 4):
        if k >= 4 * params.a - m:
            break  # neither w^k nor any higher probe is integrable
        proj = project_m(lambda w, k=k: w**k, params, quad)
        for p in _PROBE_POINTS:
            got = proj(complex(p))
            want = complex(p) ** m if k == m else 0.0
            monomial = max(monomial, abs(got - want))

    idem = 0.0
    equiv = 0.0
    pu = project_m(_bump, params, quad)
    ppu = project_m(pu, params, quad)
    for p in _PROBE_POINTS:
        first = pu(complex(p))
        idem = max(idem, abs(ppu(complex(p)) - first))
        for xi in _EQUIVARIANCE_FACTORS:
            xi = complex(xi)
            equiv = max(equiv, abs(pu(xi * complex(p)) - xi**m * first))

    mass = 0.0
    for p in _PROBE_POINTS:
        mass = max(mass, abs(pullback_measure_total(params, quad, complex(p)) - 1.0))

    return ProjectorAxiomsReport(
        monomial_defect=monomial,
        idempotency_defect=idem,
        equivariance_defect=equiv,
        measure_total_defect=mass,
        rel_tolerance=quad.rel_tolerance,
    )
