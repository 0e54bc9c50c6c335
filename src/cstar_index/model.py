"""Data model for orbifold curves with isolated cyclic singular points.

The objects here are plain records: a fixed point with its isotropy data, the
one-parameter family of weighted projective lines we test against, and the
Kawasaki-style decomposition of a topological index into a smooth term plus
per-point correction data.  Evaluation of the corrections lives elsewhere;
this module only builds, validates, and (de)serializes the records.

Serialized rationals are decimal-free "p/q" strings so that round-tripping
through JSON never touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Any

from .analytic import _check_family_args
from .exact import Rational, format_rational, parse_rational

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "ValidationError",
    "FixedPointDatum",
    "ExampleFamilySpec",
    "KawasakiCurveSpec",
    "IndexReport",
    "example_to_kawasaki",
    "kawasaki_to_json_dict",
    "kawasaki_from_json_dict",
]


class ValidationError(ValueError):
    """Raised when a serialized spec fails validation.

    The message always names the offending field path, e.g. "points[2].a".
    """


@dataclass(frozen=True)
class FixedPointDatum:
    """An isolated fixed point of the circle action on an orbifold curve.

    isotropy_order: order N >= 2 of the cyclic isotropy group.
    normal_weight:  rotation weight a of the isotropy action on the normal
                    (tangent) direction, a unit modulo N.
    bundle_weight:  weight b of the isotropy action on the line bundle fiber,
                    stored modulo N since only its class matters.
    """

    isotropy_order: int
    normal_weight: int
    bundle_weight: int

    def __post_init__(self) -> None:
        n = self.isotropy_order
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"isotropy_order must be an integer >= 2, got {n!r}")
        if not isinstance(self.normal_weight, int):
            raise ValueError("normal_weight must be an integer")
        if not isinstance(self.bundle_weight, int):
            raise ValueError("bundle_weight must be an integer")
        a = self.normal_weight % n
        if gcd(a, n) != 1:
            raise ValueError(
                f"normal_weight {self.normal_weight} is not a unit modulo {n}"
            )
        object.__setattr__(self, "normal_weight", a)
        object.__setattr__(self, "bundle_weight", self.bundle_weight % n)


@dataclass(frozen=True)
class ExampleFamilySpec:
    """The test family: a degree-m bundle over a curve with one order-l point.

    The curve is the quotient of the projective line by the cyclic group of
    order l acting on a chart by z -> zeta_l * z, and the bundle is the one
    whose invariant sections are spanned by monomials of exponent congruent
    to m modulo l.  Both orbifold points of the quotient have isotropy of
    order l.
    """

    l: int
    m: int

    def __post_init__(self) -> None:
        _check_family_args(self.l, self.m)


@dataclass(frozen=True)
class KawasakiCurveSpec:
    """Topological index data: a smooth Riemann-Roch term plus point data."""

    smooth_term: Rational
    points: tuple[FixedPointDatum, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "smooth_term", Fraction(self.smooth_term))
        object.__setattr__(self, "points", tuple(self.points))
        for p in self.points:
            if not isinstance(p, FixedPointDatum):
                raise ValueError("points must contain FixedPointDatum entries")


@dataclass(frozen=True)
class IndexReport:
    """Side-by-side result of the analytic and topological index routes."""

    analytic_index: int
    topological_smooth: Rational
    topological_points: tuple[Rational, ...]
    topological_total: Rational
    agree: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "analytic_index": self.analytic_index,
            "topological_smooth": format_rational(self.topological_smooth),
            "topological_points": [
                format_rational(q) for q in self.topological_points
            ],
            "topological_total": format_rational(self.topological_total),
            "agree": self.agree,
        }


def example_to_kawasaki(spec: ExampleFamilySpec) -> KawasakiCurveSpec:
    """Kawasaki data for the test family.

    The smooth term is the degree-plus-genus Riemann-Roch contribution
    (2m + 1)/l of the quotient, and each of the two orbifold points carries
    isotropy of order l, normal weight 1, and bundle weight m mod l.  The
    two points enter symmetrically because inverting the chart coordinate
    conjugates the isotropy character, which permutes the summation range.
    """
    l, m = spec.l, spec.m
    point = FixedPointDatum(isotropy_order=l, normal_weight=1, bundle_weight=m % l)
    return KawasakiCurveSpec(
        smooth_term=Fraction(2 * m + 1, l),
        points=(point, point),
    )


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def kawasaki_to_json_dict(spec: KawasakiCurveSpec) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "smooth_term": format_rational(spec.smooth_term),
        "points": [
            {
                "N": p.isotropy_order,
                "a": p.normal_weight,
                "b": p.bundle_weight,
            }
            for p in spec.points
        ],
    }


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {message}")


def kawasaki_from_json_dict(obj: Any) -> KawasakiCurveSpec:
    """Validate a parsed JSON document and build the curve data it describes.

    Unknown keys are rejected to keep the format unambiguous; every error
    message names the field path that failed.
    """
    _require(isinstance(obj, dict), "$", "document must be a JSON object")
    allowed = {"schema_version", "smooth_term", "points"}
    for key in obj:
        _require(key in allowed, key, "unknown field")
    _require("schema_version" in obj, "schema_version", "missing required field")
    _require(
        obj["schema_version"] == SCHEMA_VERSION,
        "schema_version",
        f"unsupported version {obj['schema_version']!r}, expected {SCHEMA_VERSION}",
    )
    _require("smooth_term" in obj, "smooth_term", "missing required field")
    _require(
        isinstance(obj["smooth_term"], str),
        "smooth_term",
        "must be a decimal-free rational string",
    )
    try:
        smooth = parse_rational(obj["smooth_term"])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"smooth_term: {exc}") from None
    _require("points" in obj, "points", "missing required field")
    _require(isinstance(obj["points"], list), "points", "must be a list")
    points = []
    for i, entry in enumerate(obj["points"]):
        path = f"points[{i}]"
        _require(isinstance(entry, dict), path, "must be an object")
        for key in entry:
            _require(key in {"N", "a", "b"}, f"{path}.{key}", "unknown field")
        for key in ("N", "a", "b"):
            _require(key in entry, f"{path}.{key}", "missing required field")
            _require(
                isinstance(entry[key], int) and not isinstance(entry[key], bool),
                f"{path}.{key}",
                "must be an integer",
            )
        try:
            points.append(
                FixedPointDatum(
                    isotropy_order=entry["N"],
                    normal_weight=entry["a"],
                    bundle_weight=entry["b"],
                )
            )
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    return KawasakiCurveSpec(smooth_term=smooth, points=tuple(points))
