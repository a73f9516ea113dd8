"""Exact desk-scale computation in non-archimedean analysis over Q_p.

Subpackages by concern:

- padic      — field arithmetic, norms, van der Put order, balls
- measure    — Haar measure, coset grids, densities, approximate limits,
               the indicator-series decomposition of step functions
- funcs      — exact symbolic functions (polynomials, ball indicators) and
               the expression mini-language
- quotients  — difference quotients, Taylor evaluation, combinatorial
               identities, Hölder scans, approximate derivatives
- extension  — Chebyshev radius, nearest-point Lipschitz/Hölder extension,
               packing bounds, Hölder-regime decomposition
- whitney    — distance fields, disjoint clopen families, partitions of
               unity, jets, glued extensions and their verification
- cli        — command-line front end over all of the above
"""

from .padic import (  # noqa: F401
    Ball,
    Order,
    PAdicNumber,
    PAdicVector,
    PadicError,
    PPow,
    PrecisionZeroDivision,
    arith,
    norm,
    parse_literal,
    sup_norm,
    vdp_compare,
    vdp_dense_sequence,
)
from .measure import (  # noqa: F401
    DensityEstimate,
    GridFunction,
    ResourceCapExceeded,
    ap_limit,
    ball_measure,
    coset_key,
    decompose_default_ys,
    decompose_series,
    density_at,
    enumerate_cosets,
    set_measure,
    sphere_measure,
)
from .funcs import (  # noqa: F401
    ExprSyntaxError,
    LinearMap,
    MultiPoly,
    SymbolicFunction,
    as_polynomials,
    parse_expr,
)
from .quotients import (  # noqa: F401
    HolderScan,
    QuotientPoint,
    StepanoffScan,
    TaylorExpansion,
    ap_derivative,
    chain_rule_check,
    holder_scan,
    phi1,
    phin,
    phin_exact_zero,
    phin_limit,
    phin_poly,
    product_rule_check,
    stepanoff_scan,
    taylor_eval,
    telescope_check,
)
from .extension import (  # noqa: F401
    CertifyReport,
    ChebyshevResult,
    EjDecomposition,
    PackingResult,
    SampleSet,
    WeightedSiteSet,
    chebyshev_feasible,
    chebyshev_radius,
    decompose_Ej,
    extend_batch,
    extend_lipschitz,
    extend_to_grid,
    nearest_point,
    packing_check,
    packing_check_many,
    verify_Ej,
)
from .whitney import (  # noqa: F401
    JetField,
    PartitionFamily,
    RadiusFunction,
    WhitneyExtension,
    build_h,
    disjoint_ball_family,
    dist_to_set,
    family_packing_reports,
    jet_compat_modulus,
    jet_field_from_function,
    jet_from_function,
    lipschitz_gauge_check,
    sample_quotient_points,
    validate_constants,
    verify_whitney,
    whitney_extend,
)
