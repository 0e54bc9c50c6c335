"""Exact and desk-scale numerical checks for the index of circle-equivariant
line bundles over orbifold curves.

The package plays three independent computations of the same integer against
each other: a lattice-point count of invariant sections, a smooth
Riemann-Roch term corrected by exact cyclotomic fixed-point sums, and the
kernel/cokernel (or heat supertrace) of a truncated dbar complex.  A fourth
strand checks the fiber measure and weight projector that justify reading
the count as an equivariant index in the first place.
"""

from .exact import (
    CyclotomicElement,
    NotRationalError,
    Rational,
    assert_rational,
    cyclotomic_polynomial,
    format_rational,
    lefschetz_point_sum,
    parse_rational,
    root_of_unity,
    unit_root_reciprocal_sum,
)
from .model import (
    ExampleFamilySpec,
    FixedPointDatum,
    IndexReport,
    KawasakiCurveSpec,
    ValidationError,
    example_to_kawasaki,
    kawasaki_from_json_dict,
    kawasaki_to_json_dict,
)
from .analytic import analytic_index, h1_equivariant, invariant_monomial_count, kappa
from .topological import hrr_term, kawasaki_index, mu_bruteforce, mu_closed, verify_identity
from .galerkin import (
    BasisElementV,
    BasisElementW,
    BlockLeakError,
    EquivariantRestriction,
    GalerkinProblem,
    NumericalBreakdown,
    SpectralReport,
    build_dbar_matrix,
    equivariant_block_index,
    exact_index,
    gram_matrices,
    heat_spectra,
    laplacian_pairing_defect,
    supertrace,
)
from .measure import (
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

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "NotRationalError",
    "parse_rational",
    "format_rational",
    "cyclotomic_polynomial",
    "CyclotomicElement",
    "root_of_unity",
    "assert_rational",
    "lefschetz_point_sum",
    "unit_root_reciprocal_sum",
    "ValidationError",
    "FixedPointDatum",
    "ExampleFamilySpec",
    "KawasakiCurveSpec",
    "IndexReport",
    "example_to_kawasaki",
    "kawasaki_to_json_dict",
    "kawasaki_from_json_dict",
    "invariant_monomial_count",
    "kappa",
    "h1_equivariant",
    "analytic_index",
    "hrr_term",
    "mu_closed",
    "mu_bruteforce",
    "kawasaki_index",
    "verify_identity",
    "BlockLeakError",
    "BasisElementV",
    "BasisElementW",
    "EquivariantRestriction",
    "GalerkinProblem",
    "NumericalBreakdown",
    "SpectralReport",
    "build_dbar_matrix",
    "gram_matrices",
    "exact_index",
    "heat_spectra",
    "laplacian_pairing_defect",
    "supertrace",
    "equivariant_block_index",
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
    "__version__",
]
