"""Symbolic mechanics for Lagrangians of any finite order on a base with
even and odd coordinates, plus Grassmann-valued numerical integration.

The central objects are exact polynomial expressions in jet coordinates
(``SuperExpr``), graded differential forms on higher tangent charts
(``GradedForm``), and the derived data of a Lagrangian: momentum and
symplectic forms, energy, field equations, dynamics, and the two-way
correspondence between symmetries and conserved charges.

The numeric layer (``GrassmannValue``, ``integrate``, ``evaluate``, ...)
and numpy load on first use of one of its names, so the symbolic layers
import without numpy.
"""

from .algebra import (
    AlgebraError,
    CoefficientTooLarge,
    ExponentTooLarge,
    GeneratorSymbol,
    MixedParity,
    Parity,
    ParityMismatch,
    SuperExpr,
    UndeclaredGenerator,
    ZeroExpression,
    has_parity,
    left_partial,
    normalize,
    parity_of,
    parity_product,
    partials,
    substitute,
)
from .jets import (
    Chart,
    DomainMismatch,
    JetError,
    OrderExceeded,
    VectorFieldAlong,
    iterated_total_derivative,
    lift_vector_field,
    liouville_field,
    total_derivative,
    total_derivative_field,
    vertical_endomorphism,
    vertical_lift_field,
)
from .forms import (
    CheckForm,
    FormError,
    GradedForm,
    NotSemibasic,
    cartan_operator,
    differential_of_function,
    exterior_d,
    interior,
    semibasic_check,
    transpose_vertical,
)
from .forms import total_derivative as form_total_derivative
from .lagrangian import (
    CartanData,
    Dynamics,
    LagrangianError,
    NoWitness,
    NoetherCertificate,
    NotProjectable,
    NotRegular,
    NotSymmetry,
    Regularity,
    RegularityReport,
    SingularSystem,
    SuperLagrangian,
    cartan_data,
    cartan_one_form,
    certify_symmetry,
    check_constant_of_motion,
    check_symmetry,
    conservation_witness,
    is_sode,
    noether_charge,
    noether_inverse,
    regularity,
    solve_dynamics,
    variational_derivative,
)
from .problems import (
    IndexOutOfRange,
    ProblemError,
    ProblemFile,
    ProblemSyntaxError,
    SimulationSpec,
    UnknownCoordinate,
    format_problem,
    parse_expression,
    parse_problem,
)

__version__ = "0.1.0"

_NUMERIC = (
    "ConstraintViolation",
    "GrassmannValue",
    "IntegrationError",
    "MissingValue",
    "NumericError",
    "NumericState",
    "ParityViolation",
    "Trajectory",
    "conservation_report",
    "evaluate",
    "integrate",
)


def __getattr__(name: str):
    """Load the numeric layer on first use of ``numeric`` or one of its
    names, then bind them all here so later lookups are plain."""
    if name != "numeric" and name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    numeric = importlib.import_module(".numeric", __name__)
    globals().update((each, getattr(numeric, each)) for each in _NUMERIC)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "numeric"})


__all__ = [
    "AlgebraError",
    "CartanData",
    "Chart",
    "CheckForm",
    "CoefficientTooLarge",
    "ConstraintViolation",
    "DomainMismatch",
    "Dynamics",
    "ExponentTooLarge",
    "FormError",
    "GeneratorSymbol",
    "GradedForm",
    "GrassmannValue",
    "IndexOutOfRange",
    "IntegrationError",
    "JetError",
    "LagrangianError",
    "MissingValue",
    "MixedParity",
    "NoWitness",
    "NoetherCertificate",
    "NotProjectable",
    "NotRegular",
    "NotSemibasic",
    "NotSymmetry",
    "NumericError",
    "NumericState",
    "OrderExceeded",
    "Parity",
    "ParityMismatch",
    "ParityViolation",
    "ProblemError",
    "ProblemFile",
    "ProblemSyntaxError",
    "Regularity",
    "RegularityReport",
    "SimulationSpec",
    "SingularSystem",
    "SuperExpr",
    "SuperLagrangian",
    "Trajectory",
    "UndeclaredGenerator",
    "UnknownCoordinate",
    "VectorFieldAlong",
    "ZeroExpression",
    "cartan_data",
    "cartan_one_form",
    "cartan_operator",
    "certify_symmetry",
    "check_constant_of_motion",
    "check_symmetry",
    "conservation_report",
    "conservation_witness",
    "differential_of_function",
    "evaluate",
    "exterior_d",
    "form_total_derivative",
    "format_problem",
    "has_parity",
    "integrate",
    "interior",
    "is_sode",
    "iterated_total_derivative",
    "left_partial",
    "lift_vector_field",
    "liouville_field",
    "noether_charge",
    "noether_inverse",
    "normalize",
    "parity_of",
    "parity_product",
    "partials",
    "parse_expression",
    "parse_problem",
    "regularity",
    "semibasic_check",
    "solve_dynamics",
    "substitute",
    "total_derivative",
    "total_derivative_field",
    "transpose_vertical",
    "variational_derivative",
    "vertical_endomorphism",
    "vertical_lift_field",
]
