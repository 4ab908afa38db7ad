"""Numerical toolkit for operator-orbit frames on the unit disc.

Builds frames of the form {T^k phi}_{k>=0} for a diagonal contraction T whose
eigenvalues approach the unit circle, certifies the classical Carleson
interpolation condition, estimates frame bounds of subsampled / shifted /
truncated orbit subfamilies at finite truncation with controlled error,
locates weaving indices, and constructs adversarial non-frame subsequences
of arbitrary frames.

Importing the package loads none of its submodules: each public name, and
each submodule as an attribute, is imported on first access (PEP 562), so
a CLI subcommand loads only the analyses it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names the package exports from it
_EXPORTS = {
    "adversarial": (
        "AdversarialCertificate", "AdversarialStep", "FrameOracle", "OrbitFrameOracle", "OrthonormalBasisOracle",
        "SearchBudgetExceededError", "build_adversarial_subsequence", "estimate_subsequence_lower_bound",
        "reverify_certificate",
    ),
    "carleson": ("CarlesonReport", "ProductEntry", "Verdict", "carleson_inf_estimate"),
    "numerics": (
        "EigensolverError", "ExtremalEigenvalues", "NonHermitianError", "compensated_sum", "complex_pow",
        "extremal_eigenvalues", "one_minus_pow",
    ),
    "orbit": (
        "FrameBoundEstimate", "OrbitSystem", "SubsampleScheme", "frame_bounds", "frame_operator_matrix",
        "phi_norm_squared", "retilde_weights",
    ),
    "sequences": (
        "ConstantWeights", "ExplicitSequence", "ExplicitWeights", "GeometricApproach", "InvariantViolation",
        "LambdaSequence", "PowerSequence", "TwoPointAugmented", "ValidationReport", "Weights", "validate",
    ),
    "weaving": (
        "ConstantPattern", "DefectPoint", "ExplicitPattern", "PeriodicPattern", "SeededPattern", "WeavePattern",
        "WeavingResult", "WeavingSearchError", "defect_points", "defect_upper_bound", "find_weaving_index",
        "woven_frame_operator",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "reporting"}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:  # importing binds it here, so this runs once per submodule
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:  # read each time, so a patched submodule name is seen here too
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
