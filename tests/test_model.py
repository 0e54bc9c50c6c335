"""Tests for the orbifold data model and its JSON round-trip."""

import json
from fractions import Fraction

import pytest

from cstar_index.model import (
    FixedPointDatum,
    IndexReport,
    KawasakiCurveSpec,
    ValidationError,
    example_to_kawasaki,
    kawasaki_from_json_dict,
    kawasaki_to_json_dict,
)


def test_fixed_point_datum_normalizes_weights():
    p = FixedPointDatum(isotropy_order=5, normal_weight=7, bundle_weight=-1)
    assert p.normal_weight == 2
    assert p.bundle_weight == 4


def test_fixed_point_datum_validation():
    with pytest.raises(ValueError):
        FixedPointDatum(isotropy_order=1, normal_weight=1, bundle_weight=0)
    with pytest.raises(ValueError):
        FixedPointDatum(isotropy_order=6, normal_weight=4, bundle_weight=0)
    with pytest.raises(ValueError):
        FixedPointDatum(isotropy_order=4, normal_weight=2, bundle_weight=1)


def test_fixed_point_datum_refuses_bool():
    # bool is an int subclass: True would otherwise pass as weight 1 (and
    # False as 0), so FixedPointDatum(5, True, False) built a point
    with pytest.raises(ValueError, match="normal_weight must be an integer"):
        FixedPointDatum(5, True, False)
    with pytest.raises(ValueError, match="bundle_weight must be an integer"):
        FixedPointDatum(5, 1, False)
    with pytest.raises(ValueError, match="isotropy_order must be an integer"):
        FixedPointDatum(True, 1, 0)


def test_example_to_kawasaki_validation():
    with pytest.raises(ValueError):
        example_to_kawasaki(1, 0)
    with pytest.raises(ValueError):
        example_to_kawasaki(3, -1)
    k = example_to_kawasaki(3, 0)
    assert k.points[0].isotropy_order == 3


def test_example_to_kawasaki_structure():
    k = example_to_kawasaki(3, 4)
    assert k.smooth_term == Fraction(9, 3) == 3
    assert len(k.points) == 2
    for p in k.points:
        assert p.isotropy_order == 3
        assert p.normal_weight == 1
        assert p.bundle_weight == 1  # 4 mod 3


def test_json_roundtrip():
    k = example_to_kawasaki(4, 5)
    doc = kawasaki_to_json_dict(k)
    assert doc["schema_version"] == 1
    assert doc["smooth_term"] == "11/4"
    # must survive an actual serialize/parse cycle, not just dict identity
    back = kawasaki_from_json_dict(json.loads(json.dumps(doc)))
    assert back == k


def test_json_rationals_are_decimal_free():
    for l, m in [(2, 0), (3, 7), (20, 60)]:
        doc = kawasaki_to_json_dict(example_to_kawasaki(l, m))
        assert "." not in doc["smooth_term"]


def test_json_validation_error_paths():
    good = kawasaki_to_json_dict(example_to_kawasaki(3, 1))

    bad = dict(good)
    bad["schema_version"] = 2
    with pytest.raises(ValidationError, match="schema_version"):
        kawasaki_from_json_dict(bad)

    bad = dict(good)
    bad["smooth_term"] = "0.5"
    with pytest.raises(ValidationError, match="smooth_term"):
        kawasaki_from_json_dict(bad)

    bad = dict(good)
    bad["points"] = [{"N": 3, "a": 1, "b": 0}, {"N": 6, "a": 3, "b": 0}]
    with pytest.raises(ValidationError, match=r"points\[1\]"):
        kawasaki_from_json_dict(bad)

    bad = dict(good)
    bad["points"] = [{"N": 3, "a": 1}]
    with pytest.raises(ValidationError, match=r"points\[0\]\.b"):
        kawasaki_from_json_dict(bad)

    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        kawasaki_from_json_dict(bad)

    with pytest.raises(ValidationError, match=r"\$"):
        kawasaki_from_json_dict([1, 2, 3])


def test_json_rejects_boolean_masquerading_as_int():
    good = kawasaki_to_json_dict(example_to_kawasaki(3, 1))
    good["points"][0]["N"] = True
    with pytest.raises(ValidationError, match=r"points\[0\]\.N"):
        kawasaki_from_json_dict(good)


def test_index_report_json_dict():
    r = IndexReport(
        analytic_index=3,
        topological_smooth=Fraction(9, 4),
        topological_points=(Fraction(3, 8), Fraction(3, 8)),
        topological_total=Fraction(3),
        agree=True,
    )
    doc = r.to_json_dict()
    assert doc["topological_smooth"] == "9/4"
    assert doc["topological_points"] == ["3/8", "3/8"]
    assert doc["topological_total"] == "3"
    assert doc["agree"] is True
    assert "." not in json.dumps(doc)


def test_kawasaki_spec_accepts_general_points():
    spec = KawasakiCurveSpec(
        smooth_term=Fraction(7, 5),
        points=(
            FixedPointDatum(isotropy_order=5, normal_weight=2, bundle_weight=3),
            FixedPointDatum(isotropy_order=7, normal_weight=3, bundle_weight=1),
        ),
    )
    doc = kawasaki_to_json_dict(spec)
    assert kawasaki_from_json_dict(doc) == spec
