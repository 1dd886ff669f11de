"""Computation on Carnot groups of arbitrary step: exact stratified
algebra and group operations, derivative-word rewriting with termination
certificates, and grid experiments for the interior estimates."""

from .algebra import (
    AlgebraElement,
    AlgebraSpec,
    BasisSizeExceeded,
    GradingViolation,
    JacobiViolation,
    StratificationViolation,
    bracket,
    build_free_nilpotent,
    build_from_table,
    spec_from_json,
    spec_to_json,
    verify_stratification,
)
from .catalog import engel, heisenberg, resolve_group
from .fields import (
    SystemCoefficients,
    VectorFieldOperator,
    commutator_check,
    left_invariant_field,
    system_residual,
)
from .group import (
    Point,
    ball_volume_estimate,
    bch_product,
    dilate,
    gauge_distance,
    gauge_norm,
    inverse,
)
from .poly import PolyFunction
from .rewrite import (
    ClassificationFailure,
    LayerProfile,
    Letter,
    ReductionTrace,
    SymbolicTerm,
    classify_successor,
    expand_f,
    expand_fi,
    naive_order_obstruction,
    reduce_to_base,
    termination_sweep,
    verify_rewrite_identity,
)

__version__ = "0.8.0"
