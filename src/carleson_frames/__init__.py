"""Numerical toolkit for operator-orbit frames on the unit disc.

Builds frames of the form {T^k phi}_{k>=0} for a diagonal contraction T whose
eigenvalues approach the unit circle, certifies the classical Carleson
interpolation condition, estimates frame bounds of subsampled / shifted /
truncated orbit subfamilies at finite truncation with controlled error,
locates weaving indices, and constructs adversarial non-frame subsequences
of arbitrary frames.
"""

__version__ = "0.1.0"

from .adversarial import (
    AdversarialCertificate,
    AdversarialStep,
    FrameOracle,
    OrbitFrameOracle,
    OrthonormalBasisOracle,
    SearchBudgetExceededError,
    build_adversarial_subsequence,
    estimate_subsequence_lower_bound,
    reverify_certificate,
)
from .carleson import (
    CarlesonReport,
    ProductEntry,
    Verdict,
    carleson_inf_estimate,
)
from .numerics import (
    EigensolverError,
    ExtremalEigenvalues,
    NonHermitianError,
    compensated_sum,
    complex_pow,
    extremal_eigenvalues,
    one_minus_pow,
)
from .orbit import (
    FrameBoundEstimate,
    OrbitSystem,
    SubsampleScheme,
    frame_bounds,
    frame_operator_matrix,
    phi_norm_squared,
    retilde_weights,
)
from .sequences import (
    ConstantWeights,
    ExplicitSequence,
    ExplicitWeights,
    GeometricApproach,
    InvariantViolation,
    LambdaSequence,
    PowerSequence,
    TwoPointAugmented,
    ValidationReport,
    Weights,
    validate,
)
from .weaving import (
    ConstantPattern,
    DefectPoint,
    ExplicitPattern,
    PeriodicPattern,
    SeededPattern,
    WeavePattern,
    WeavingResult,
    WeavingSearchError,
    defect_points,
    defect_upper_bound,
    find_weaving_index,
    woven_frame_operator,
)
