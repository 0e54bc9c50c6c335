"""The package root exports exactly what it lists."""

import dataclasses

import cstar_index
from cstar_index import analytic, exact, galerkin, measure, model, topological

# the root surface: every module's public names, plus the package version
ROOT_NAMES = {
    "Rational", "NotRationalError", "OrderTooLargeError", "parse_rational", "format_rational",
    "cyclotomic_polynomial", "lefschetz_point_sum", "unit_root_reciprocal_sum",
    "SCHEMA_VERSION", "ValidationError", "FixedPointDatum", "KawasakiCurveSpec",
    "IndexReport", "example_to_kawasaki",
    "kawasaki_to_json_dict", "kawasaki_from_json_dict",
    "invariant_monomial_count", "kappa", "h1_equivariant", "analytic_index",
    "hrr_term", "mu_closed", "mu_bruteforce", "kawasaki_index", "verify_identity",
    "EquivariantRestriction", "GalerkinProblem", "NumericalBreakdown", "SpectralReport",
    "exact_index", "supertrace", "equivariant_block_index",
    "DivergenceDetected", "QuadratureError", "Cutoff", "FiberMeasureParams",
    "QuadratureConfig", "radial_density", "lambda_m", "unity_check",
    "pullback_measure_total", "project_m", "ProjectorAxiomsReport",
    "projector_axioms_check",
    "__version__",
}


def test_every_exported_name_resolves():
    missing = [name for name in cstar_index.__all__ if not hasattr(cstar_index, name)]
    assert missing == []


def test_root_names_are_the_module_lists():
    names = cstar_index.__all__
    assert len(names) == len(set(names))
    modules = (exact, model, analytic, topological, galerkin, measure)
    assert names == [n for mod in modules for n in mod.__all__] + ["__version__"]
    assert set(names) == ROOT_NAMES
    assert len(ROOT_NAMES) == 45


def test_settable_fields():
    # every field is one more setting the tests must cover; pin the list
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(measure.FiberMeasureParams) == ("a", "m", "cutoff")
    assert names(measure.QuadratureConfig) == ("rel_tolerance", "angular_nodes")
