"""Public entry points reject an out-of-range argument, each with its own
exception type."""

import numpy as np
import pytest

from carleson_frames import (
    ConstantPattern,
    ConstantWeights,
    ExplicitSequence,
    GeometricApproach,
    InvariantViolation,
    NonHermitianError,
    OrbitSystem,
    OrthonormalBasisOracle,
    PowerSequence,
    carleson_inf_estimate,
    estimate_subsequence_lower_bound,
    extremal_eigenvalues,
    one_minus_pow,
    retilde_weights,
    woven_frame_operator,
)

SEQUENCE = GeometricApproach(2.0)
SYSTEM = OrbitSystem(SEQUENCE, ConstantWeights(1.0))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: estimate_subsequence_lower_bound(OrthonormalBasisOracle(), [0], 0), ValueError, "dimension"),
        (lambda: carleson_inf_estimate(SEQUENCE, 0, 10), ValueError, "n_max"),
        (lambda: one_minus_pow(0.5, -1), ValueError, "exponent"),
        (lambda: retilde_weights(SYSTEM, 0, 5), ValueError, "stride"),
        (lambda: ExplicitSequence(()), InvariantViolation, "empty"),
        (lambda: PowerSequence(SEQUENCE, 0), InvariantViolation, "exponent"),
        (lambda: ConstantPattern(0, 0), InvariantViolation, "stride"),
        (lambda: woven_frame_operator(SYSTEM, ConstantPattern(2, 1), -1), ValueError, "start index"),
        (lambda: extremal_eigenvalues(np.zeros((0, 0))), NonHermitianError,
         r"^expected a nonempty square matrix, got shape \(0, 0\)$"),
    ],
    ids=[
        "estimate-dimension", "inf-estimate-n-max", "one-minus-pow-exponent", "retilde-stride",
        "explicit-empty", "power-exponent", "pattern-stride", "woven-start",
        "eigenvalues-empty",
    ],
)
def test_input_guard(call, error, message):
    with pytest.raises(error, match=message):
        call()
