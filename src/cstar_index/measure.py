"""Fiber measure on the model cylinder and the weight-m projector.

The measure interpolates between Lebesgue mass near the zero section and a
power-law tail r^(-4a-2) that makes exactly the fiberwise monomials r^(2m)
with m < 2a integrable:

    rho(r) = [phi1(r^2) + phi2(r^2) * 4 a^2 r^(-4a-2)] * r,

where phi1 is 1 on [0, 1] and 0 from 2 on (a hard step switches at 1
instead), and phi2 = 1 - phi1.  lambda_m is the total mass of r^(2m) against
2 pi rho, and dv_m = (2 pi / lambda_m) rho normalizes that moment to one.
An array of radii is evaluated piece by piece, each piece on its own radii:
rho = r where phi1 = 1, the pure tail where phi1 = 0, and the logistic
blend only in the band between.  A lone radius is a batch of one, so every
radius takes that one path.  lambda_m and unity_check are memoized on
(parameters, quadrature config).

unity_check recomputes the mass of r^(2m) dv_m by a route that shares only
the density with lambda_m's walk (below).  Its numerator has three parts
plus the analytic tail from sqrt(2) on: 1/(2m+2) exactly on [0, 1], where
rho = r for both cutoffs; on [1, sqrt(2)] the hard cutoff's closed form, as
rho is pure tail there; and for the smooth cutoff a tanh-sinh rule on
[1, sqrt(2)] (Takahasi and Mori 1974; Mori and Sugihara 2001) whose step
halves until two levels agree within 0.05 rel_tolerance relative.  The
rule's nodes depend on the interval alone, so each level's are built once
per process and evaluated in one radial_density call.  Its family differs
from the walk's Gauss-Legendre panels on purpose, so that the two share no
systematic error; were the walk made double-exponential, the check would
move to another family, such as Gauss-Kronrod.

The projector onto fiberwise weight m averages a function over the orbit
s e^(i g) w of a point w of the punctured plane against the m-th character
of the scaling action.  Written in the radius t = s|w| of the orbit point,

    (P_m u)(w) = |w|^m * Int_0^inf Int_0^2pi u(t e^(i g) w/|w|) e^(-i m g)
                 t^m (2 pi / lambda_m) rho(t) dt dg / 2pi,

its radial weight does not depend on w, so one quadrature rule serves every
point, and the integral depends on w only through |w|^m and the direction
w/|w|.  One ring evaluator gives u on the rings d * (t xi_g) of directions
d, radial nodes t and angular nodes xi_g, for the rule build and for every
direction alike.  Each projector keeps a dict from direction to ring value,
which matches w/|w| by value (==), so u runs once per distinct direction
over the projector's whole life; u must therefore be a pure function.
Points on one ray share that value only when their w/|w| round to the same
value, which along a ray they often do not, so a projector also takes its
argument as rays: on_rays(c, t) gives the value at every t * c from the one
direction c/|c|.  The ring evaluator hands a u with that hook, such as an
inner projector, the rays d * xi_g and the radial nodes apart, so the inner
u runs once per ray, not once per rounded direction.  Unseen directions
reach u in blocks of about _RING_BLOCK = 2**14 ring points, sized so that
the complex temporaries of u and of the character sum stay in a 2 MiB L2
cache, and each direction's value is a sum over its own ring alone, so it
does not depend on the block or on which other directions share its call.
Everything a calculus identity promises about the projector (idempotency,
equivariance, killing other monomials, unit total mass of the pulled-back
measure) is rechecked here numerically rather than assumed.

Quadrature is composite Gauss-Legendre with seams at the cutoff breakpoints
and geometrically growing tail windows.  On each segment the panel count
doubles from one 12-point panel until two successive estimates agree within
the segment's share of the tolerance, so that error estimate, not a fixed
minimum panel count, sets how many nodes a rule has.  A walk calls its
integrand once per doubling level on the panel sets it is sure to need and
never looks ahead to a segment or window it has not reached, so the
integrand sees each point of the one-call-per-panel-set walk once, and no
other.  The walk returns, with its value, the panel sets it stopped on: the
rule a projector then evaluates every direction with.  Divergent choices
(a <= m/2) are refused only by lambda_m, which every consumer calls first,
empirically from the window ratios, not by a formula, so the integrability
dichotomy is itself under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

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
MAX_SUBDIVISIONS = 12  # the radial walk's doubling budget, which the CLI prints
_BAND_LEVELS = 6  # unity_check's tanh-sinh budget: steps 1/8 down to 1/256
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
        # the exact type, so that bool, an int subclass, is refused
        if type(self.m) is not int or self.m < 0:
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
        # unity_check's band rule stops at 0.05 * rel_tolerance relative; the
        # floor keeps that at 50 machine epsilons, above the rounding noise
        # of its level sums (near 1e-15 a level-to-level change never settles)
        if not (_MIN_REL_TOLERANCE < self.rel_tolerance <= 0.1):
            raise ValueError(f"rel_tolerance must lie in ({_MIN_REL_TOLERANCE:.3g}, 0.1]")
        if type(self.angular_nodes) is not int or self.angular_nodes < 8:
            raise ValueError("angular_nodes must be an integer >= 8")


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def radial_density(r, params: FiberMeasureParams):
    """Density rho(r) of the fiber measure against dr, vectorized in r.

    An array returns a new array, evaluated piece by piece (module
    docstring).  A 0-d radius (a Python or numpy scalar, or a 0-d array) is
    evaluated as a batch of one and returned as a float, so it equals the
    batch entry bit for bit.  Radii must be finite and nonnegative.
    """
    arr = np.asarray(r, dtype=float)
    if arr.ndim == 0:
        return float(radial_density(arr.reshape(1), params)[0])
    if not ((arr >= 0.0) & (arr < np.inf)).all():
        raise ValueError(_BAD_RADIUS)
    x = arr * arr
    a = params.a
    # each piece only on its own radii, with (p1 + p2 * tail) * r's bits:
    # the copy is r where phi1 = 1, and tail * r where phi1 = 0
    out = arr.copy()
    # where phi1 = 0; r > 1 there, so the negative power is safe
    tail = x >= 2.0 if params.cutoff is Cutoff.SMOOTH_BUMP else x > 1.0
    rt = arr[tail]
    if rt.size:
        out[tail] = 4.0 * a * a * rt ** (-4.0 * a - 2.0) * rt
    band = (x > 1.0) & ~tail
    rb = arr[band]
    if rb.size:
        from scipy.special import expit

        t = x[band] - 1.0
        # quotient step exp(-1/t) / (exp(-1/t) + exp(-1/(1-t))), written
        # through the logistic function for stability at both ends
        p1 = expit(1.0 / t - 1.0 / (1.0 - t))
        out[band] = (p1 + (1.0 - p1) * (4.0 * a * a * rb ** (-4.0 * a - 2.0))) * rb
    return out


# ---------------------------------------------------------------------------
# Radial quadrature engine
# ---------------------------------------------------------------------------

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)

_TAIL_WINDOW_BUDGET = 256
_FLAT_RATIO = 0.99  # a window this close to the previous one is not decaying


@lru_cache(maxsize=1024)
def _panel_points(lo: float, hi: float, n_panels: int):
    # shared, so read-only; bounded, as pullback_measure_total's seams follow |w|
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    pts = (mids[:, None] + half * _GAUSS_X[None, :]).ravel()
    wts = np.tile(_GAUSS_W * half, n_panels)
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def _panel_integrals(f, keys, vals: dict) -> dict:
    """Add to vals f's integral on each panel set (lo, hi, n); return vals.

    One call of f covers the keys vals lacks, on their nodes in key order.
    """
    keys = [key for key in keys if key not in vals]
    if keys:
        values = f(np.concatenate([_panel_points(*key)[0] for key in keys]))
        _panel_sums(keys, np.asarray(values), vals)
    return vals


def _panel_sums(keys, values: np.ndarray, vals: dict) -> dict:
    """Add to vals the estimate of each panel set (lo, hi, n) in keys from
    values, an integrand's values on their nodes in key order; return vals.

    Each estimate is the dot product of its own slice of values, so no
    other panel set moves its bits.
    """
    start = 0
    for key in keys:
        pts, wts = _panel_points(*key)
        vals[key] = complex(np.dot(values[start : start + pts.size], wts))
        start += pts.size
    return vals


def _refine(f, lo: float, hi: float, tol_abs: float, vals: dict):
    """Panel-doubling Gauss quadrature on [lo, hi]; returns (value, panels).

    The doubling starts from a single panel and stops at the first pair of
    successive estimates within tol_abs, returning the finer one, so the
    error estimate alone sets the size of the rule: there is no floor on
    the panel count.  The finest rule tried has 2**(MAX_SUBDIVISIONS + 1)
    panels.  vals maps (lo, hi, n) to the n-panel estimate; a level it
    lacks costs one call of f, which 1 and 2 panels share.
    """
    _panel_integrals(f, [(lo, hi, 1), (lo, hi, 2)], vals)
    n = 1
    prev = vals[lo, hi, n]
    for _ in range(MAX_SUBDIVISIONS + 1):
        n *= 2
        cur = _panel_integrals(f, [(lo, hi, n)], vals)[lo, hi, n]
        if abs(cur - prev) <= tol_abs:
            return cur, n
        prev = cur
    raise QuadratureError(f"no convergence on [{lo:g}, {hi:g}] with up to {n} panels")


def _integrate_radial(f, seams, rel_tolerance: float, scale_floor: float = 0.0, vals=None):
    """Integral of f over (0, inf) with seams and a geometric tail: (value, rule).

    f must accept a vector of radii, act on each radius alone, and may
    return complex values.  seams are the ascending positive radii that end
    the bounded segments.  The tail is summed over doubling windows; decay
    ratios both terminate the sum (with a geometric remainder bound) and
    flag divergence when consecutive windows stop shrinking while still
    above tolerance.  rule lists the panel set (lo, hi, n) each segment and
    window stopped on, in walk order, and value is their estimates summed
    in that order from 0j.

    The stopping rule reads one dict of estimates keyed (lo, hi, n).  The
    first call of f takes the scale pass's 4-panel sets and the first
    segment's 1 and 2 panels; a later segment or window gets its 1 and 2
    panels in one call once the walk reaches it, each finer level in one
    more, so nothing past the window where the walk stops is evaluated.
    vals, if given, seeds that dict with estimates the caller took from f's
    own values, and the walk evaluates f on no panel set it holds.

    scale_floor anchors the tolerance budget when the integrand itself
    nearly cancels (an angular average of an off-weight function, say), so
    that a relative tolerance is never applied to a value that is zero by
    symmetry.
    """
    edges = [0.0, *seams]
    segments = list(zip(edges[:-1], edges[1:]))

    # rough scale pass to convert the relative tolerance into a budget
    tail = (edges[-1], 2 * edges[-1])
    first = [(*segments[0], 1), (*segments[0], 2)]
    scale_keys = [(lo, hi, 4) for lo, hi in segments + [tail]]
    vals = _panel_integrals(f, scale_keys + first, {} if vals is None else vals)
    scale = sum(abs(vals[key]) for key in scale_keys)
    scale = max(scale, scale_floor, 1e-300)
    budget = rel_tolerance * scale
    seg_tol = 0.1 * budget / (len(segments) + 1)

    total = 0j
    rule = []
    for lo, hi in segments:
        val, n = _refine(f, lo, hi, seg_tol, vals)
        total += val
        rule.append((lo, hi, n))

    tail_tol = 0.25 * budget
    lo = edges[-1]
    prev_mag = None
    strikes = 0
    for _ in range(_TAIL_WINDOW_BUDGET):
        val, n = _refine(f, lo, 2 * lo, seg_tol, vals)
        total += val
        rule.append((lo, 2 * lo, n))
        mag = abs(val)
        if mag <= 1e-300:
            return total, rule
        if prev_mag is not None:
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
                    return total, rule
        prev_mag = mag
        lo *= 2
    raise QuadratureError("tail did not settle within the window budget")


# ---------------------------------------------------------------------------
# Moments and normalization
# ---------------------------------------------------------------------------


def _moment_density(r, params: FiberMeasureParams):
    """The moment integrand r^(2m) rho(r), vectorized in r."""
    return r ** (2 * params.m) * radial_density(r, params)


@lru_cache(maxsize=1024)
def lambda_m(params: FiberMeasureParams, quad: QuadratureConfig) -> float:
    """Normalizing mass lambda_m = 2 pi * Int r^(2m) rho(r) dr.

    Divergent parameters are not special-cased: they surface as
    DivergenceDetected from the tail-ratio test.  Memoized on (params, quad).
    """
    val, _ = _integrate_radial(lambda r: _moment_density(r, params), (1.0, _SQRT2), quad.rel_tolerance)
    return 2.0 * math.pi * val.real


# the tanh-sinh rule on [1, sqrt(2)]: level 0 steps by _TS_STEP in t, each
# later level halves it, and |t| stays within _TS_SPAN, past which every node
# rounds to an end of the band and weighs below 1e-17
_TS_STEP = 0.125
_TS_SPAN = 3.25


@lru_cache(maxsize=None)  # one entry per level, below _BAND_LEVELS
def _tanh_sinh_level(level: int):
    """The nodes and weights that a tanh-sinh level adds on [1, sqrt(2)].

    Level 0 has every multiple of its step h in t, and a later level the
    odd multiples of its own, so each level's estimate is half the one
    before plus its own weighted sum.  A node is 1 + d (1 + tanh(pi/2 sinh t))
    for the band's half-width d.  Shared, so read-only.
    """
    h = _TS_STEP / 2**level
    k = np.arange(-int(_TS_SPAN / h), int(_TS_SPAN / h) + 1)
    t = h * (k if level == 0 else k[k % 2 == 1])
    u = 0.5 * math.pi * np.sinh(t)
    half = 0.5 * (_SQRT2 - 1.0)
    nodes = 1.0 + half * (1.0 + np.tanh(u))  # within [1, sqrt(2)], as 1 + 2 half = sqrt(2)
    weights = h * half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _band_mass(params: FiberMeasureParams, rel_tolerance: float) -> float:
    """Int_1^sqrt(2) r^(2m) rho(r) dr: in closed form for the hard cutoff,
    by tanh-sinh step halving for the smooth one.

    The rule returns the first level within rel_tolerance of the level
    before, relative, and raises QuadratureError past _BAND_LEVELS levels.
    """
    a, m2 = params.a, 2 * params.m
    if params.cutoff is Cutoff.HARD_STEP:
        # the pure tail 4 a^2 r^(2m-4a-1); unity_check refuses 2m = 4a
        e = m2 - 4.0 * a
        return 4.0 * a * a * math.expm1(e * math.log(_SQRT2)) / e
    value = 0.0
    for level in range(_BAND_LEVELS):
        r, w = _tanh_sinh_level(level)
        part = float(np.dot(r**m2 * radial_density(r, params), w))
        prev, value = value, (part if level == 0 else 0.5 * value + part)
        if level and abs(value - prev) <= rel_tolerance * abs(value):
            return value
    raise QuadratureError(f"tanh-sinh rule on [1, sqrt(2)] did not settle within {_BAND_LEVELS} levels")


@lru_cache(maxsize=1024)
def unity_check(params: FiberMeasureParams, quad: QuadratureConfig) -> float:
    """Total mass of r^(2m) dv_m by an independent route; should be 1.

    The numerator is 1/(2m+2) on [0, 1], the band [1, sqrt(2)] in closed
    form (hard cutoff) or by a tanh-sinh rule to 0.05 rel_tolerance
    (smooth), and the analytic power-law tail from sqrt(2) on, where the
    cutoff has fully handed over (module docstring).  Only the denominator
    comes from lambda_m's walk, and the density is all the two share, so
    agreement with 1 cross-validates both.  Memoized, like lambda_m, on
    (params, quad).
    """
    lam = lambda_m(params, quad)
    a, m = params.a, params.m
    if 4 * a - 2 * m <= 0:
        raise DivergenceDetected(
            f"moment m={m} has a non-integrable tail for a={a}"
        )
    m2 = 2 * m
    band = _band_mass(params, 0.05 * quad.rel_tolerance)
    tail = 4.0 * a * a * _SQRT2 ** (m2 - 4.0 * a) / (4.0 * a - m2)
    return 2.0 * math.pi * (1.0 / (m2 + 2) + band + tail) / lam


def pullback_measure_total(
    params: FiberMeasureParams, quad: QuadratureConfig, w: complex
) -> float:
    """Mass of the weight-m measure pulled back through the orbit of w.

    Parametrizing the group direction by xi = s e^(i g), the fiber point is
    w / xi, and the claim is that the density of the pullback integrates to
    exactly 1 for every nonzero w.  This is the normalization that makes the
    projector reproduce weight-m functions pointwise.  In the orbit radius
    t = |w| / s the integrand is t^(2m) rho(t) times the Jacobian t / s,
    whose factors stay in the float range for 1e-300 <= |w| <= 1e300; a
    modulus outside that range is refused with ValueError.
    """
    r0 = abs(w)
    if not 0 < r0 < math.inf:
        raise ValueError("w must be a finite nonzero point of the punctured plane")
    if not 1e-300 <= r0 <= 1e300:
        raise ValueError("w must have a modulus between 1e-300 and 1e300")
    lam = lambda_m(params, quad)

    def integrand(s):
        t = r0 / s
        return _moment_density(t, params) * (t / s)

    val, _ = _integrate_radial(integrand, (r0 / _SQRT2, r0), quad.rel_tolerance)
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

    u must accept complex numpy arrays.  One radial rule with seams at 1 and
    sqrt(2) serves every point (module docstring).  It is built here, once,
    adaptively along the direction 1, with the tolerance anchored to the
    magnitude envelope of the integrand; the envelope and the walk's first
    call share one evaluation of u, so u sees each node of the walk once.
    The returned function accepts a complex scalar or array of finite
    nonzero points; a scalar is a batch of one, so a point's value has the
    same bits alone as in any batch.  Its value at w is |w|^m times the
    character sum of u on the ring of the direction w/|w| (exact on
    trigonometric polynomials of degree below the node count), taken from
    the projector's dict where an earlier call computed it.
    The dict holds one entry per distinct direction queried and nothing is
    shared between projectors.  The closure's on_rays(c, t) is the value at
    every point t * c (radii t > 0, shaped t.shape + c.shape): |t c|^m times
    the ring value of the one direction c/|c|.  Unseen directions go to u in
    blocks of about _RING_BLOCK ring points (one direction's ring where that
    is larger), so composing the projector with itself never holds all its
    inner values at once.
    """
    lam = lambda_m(params, quad)
    m = params.m
    n_ang = quad.angular_nodes
    gammas = 2.0 * math.pi * np.arange(n_ang) / n_ang
    xi_phases = np.exp(1j * gammas)
    character = np.exp(-1j * m * gammas) / n_ang
    norm = 2.0 * math.pi / lam
    u_on_rays = getattr(u, "on_rays", None)
    one = np.ones(1, dtype=complex)

    def _weight(t: np.ndarray) -> np.ndarray:
        return t**m * radial_density(t, params) * norm

    def _rings(d: np.ndarray, t: np.ndarray) -> np.ndarray:
        # u on the rings d * (t xi_g), shaped (directions, radial, angular)
        if u_on_rays is None:
            return np.asarray(u(d[:, None, None] * np.multiply.outer(t, xi_phases)))
        # the rays d * xi_g go to u whole, so it never rederives a direction
        return np.moveaxis(u_on_rays(np.multiply.outer(d, xi_phases), t), 0, 1)

    def _profile(t: np.ndarray) -> np.ndarray:
        return (_rings(one, t)[0] @ character) * _weight(t)

    # u on the nodes of the walk's first call, in its order: the scale
    # pass's 4-panel sets, then 1 and 2 panels of [0, 1]; the floor reads
    # the 4-panel sets, and the walk takes that call's estimates as given
    edges = (0.0, 1.0, _SQRT2, 2 * _SQRT2)
    scale_keys = [(lo, hi, 4) for lo, hi in zip(edges, edges[1:])]
    first = scale_keys + [(0.0, 1.0, 1), (0.0, 1.0, 2)]
    t = np.concatenate([_panel_points(*key)[0] for key in first])
    rings, weight = _rings(one, t)[0], _weight(t)
    # magnitude profile of the same integrand with no phase cancellation
    n_scale = len(scale_keys) * 4 * _GAUSS_X.size
    envelope = (np.abs(rings[:n_scale]) @ np.full(n_ang, 1.0 / n_ang)) * weight[:n_scale]
    floor = abs(sum(_panel_sums(scale_keys, envelope, {}).values()))
    vals = _panel_sums(first, (rings @ character) * weight, {})
    _, rule = _integrate_radial(_profile, edges[1:3], quad.rel_tolerance, floor, vals=vals)
    panels = [_panel_points(lo, hi, n) for lo, hi, n in rule]
    nodes = np.concatenate([pts for pts, _ in panels])
    weights = np.concatenate([wts for _, wts in panels]) * _weight(nodes)
    block = max(1, _RING_BLOCK // (nodes.size * n_ang))
    memo: dict[complex, complex] = {}  # direction w/|w| -> its ring value

    def _direction_values(dirs: np.ndarray) -> np.ndarray:
        # ring value of each direction, evaluating u only on unseen ones
        keys = dirs.tolist()
        missing = [d for d in dict.fromkeys(keys) if d not in memo]
        for i in range(0, len(missing), block):
            chunk = missing[i : i + block]
            # a sum per direction, not a matrix product over the block,
            # so no block size changes the bits of a direction's value
            vals = ((_rings(np.array(chunk), nodes) @ character) * weights).sum(axis=-1)
            memo.update(zip(chunk, vals.tolist()))
        return np.array([memo[d] for d in keys], dtype=complex)

    def _check(moduli: np.ndarray) -> None:
        # c / |c| overflows to nan below the smallest normal modulus
        if not np.all(np.isfinite(moduli) & (moduli >= np.finfo(float).tiny)):
            raise ValueError("projector arguments must be finite, with a normal nonzero modulus")

    def projected(w):
        # the one ray of each point w, at radius 1: 1.0 * |w| is exact; a
        # lone point is a batch of one, so |w|**m takes the array power
        out = on_rays(np.atleast_1d(w), 1.0)
        return complex(out[0]) if np.ndim(w) == 0 else out

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


def defect_gates(quad: QuadratureConfig) -> dict[str, float]:
    """The most each defect that `measure` reports may be, by the name the CLI
    prints it under: 1e-6 on each projector axiom, a fixed bound, and ten
    relative tolerances on the unity check and the pulled-back mass."""
    mass = 10 * quad.rel_tolerance
    return {
        "unity_defect": mass,
        "monomial_defect": 1e-6,
        "idempotency_defect": 1e-6,
        "equivariance_defect": 1e-6,
        "measure_total_defect": mass,
    }


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
