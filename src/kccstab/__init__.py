"""Symbolic-numeric Jacobi stability analysis for systems of second-order ODEs.

The package derives the five curvature invariants of a system written as
x'' + 2G(x, x') = 0 over exact rational arithmetic, locates fixed points,
classifies them by Routh-Hurwitz conditions on the deviation curvature
tensor, and cross-checks the verdicts with trajectory-level focusing
profiles.
"""

from .expr import (
    BudgetExceededError,
    CanonicalRational,
    Constant,
    Expr,
    ExprError,
    ParseError,
    Symbol,
    UnboundSymbolError,
    ZeroDenominatorError,
    add,
    canonicalize,
    compile_callable,
    differentiate,
    div,
    evaluate,
    mul,
    neg,
    parse,
    pow_,
    semantic_equal,
    sub,
    substitute,
    symbols,
)
from .kcc import (
    DeviationSystem,
    KccInvariants,
    Model,
    ModelError,
    invariants,
    kcc_deviation,
    standard_form_residual,
    to_standard_form,
)
from .models import (
    BUILTIN_NAMES,
    TRACTOR_SEAT_CASES,
    TRACTOR_SEAT_REFERENCE_PARAMS,
    builtin,
    dumps,
    load,
    loads,
)
from .numerics import (
    FocusingProfile,
    IntegrationError,
    Trace,
    dominant_deviation_direction,
    focusing_profile,
    integrate,
    integrate_deviation,
    jacobi_focusing,
    matrix_exp,
    matrix_exp_solution,
    perturbation_oracle,
    write_profile_csv,
    write_trace_csv,
)
from .stability import (
    INDETERMINATE,
    STABLE,
    UNSTABLE,
    Classifier,
    FixedPoint,
    RegionReport,
    SemiAlgebraicSystem,
    StabilityReport,
    airfoil_region_conditions,
    assemble_semialgebraic,
    char_poly,
    classify,
    classify_all,
    classify_matrix,
    classify_matrices,
    count_stable,
    find_fixed_points,
    hurwitz_determinants,
    hurwitz_matrix,
)

__version__ = "0.1.0"
