import itertools
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from carleson_frames import (
    ConstantWeights,
    EigensolverError,
    ExplicitSequence,
    ExplicitWeights,
    GeometricApproach,
    InvariantViolation,
    OrbitFrameOracle,
    OrbitSystem,
    PowerSequence,
    SubsampleScheme,
    TwoPointAugmented,
    frame_bounds,
    frame_operator_matrix,
    phi_norm_squared,
    retilde_weights,
)
from carleson_frames import numerics, orbit
from carleson_frames.numerics import complex_pow, one_minus_pow
from carleson_frames.reporting import canonical_json
from carleson_frames.orbit import system_arrays
from oracles import (
    brute_frame_operator,
    frame_operator_bruteforce,
    jacobi_extremal_eigenvalues,
    mpmath_frame_bounds,
    mpmath_frame_lower_bound,
    phi_coefficients,
)

SYSTEM = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))

# regression values for the full-orbit operator at M = 40, pinned after an
# eigh run that agrees with the independent Jacobi oracle to 3e-14
A_EST_FULL_M40 = 2.5623096045692228e-05
B_EST_FULL_M40 = 8.636872214227688


def test_phi_coefficients_small():
    assert phi_coefficients(SYSTEM, 1)[0] == pytest.approx(math.sqrt(0.75), rel=1e-15)
    coeffs = phi_coefficients(SYSTEM, 2)
    assert coeffs[1] == pytest.approx(math.sqrt(1.0 - 0.75**2), rel=1e-15)


def test_phi_norm_squared_partial_sum():
    # sum_k (2*2^-k - 4^-k) = 2 - 1/3 up to the truncation remainder
    assert phi_norm_squared(SYSTEM, 40) == pytest.approx(5.0 / 3.0, abs=1e-10)
    oracle = sum(2.0 * 2.0**-k - 4.0**-k for k in range(1, 41))
    assert phi_norm_squared(SYSTEM, 40) == pytest.approx(oracle, rel=1e-14)


def test_orbit_coefficient_closed_form():
    oracle = OrbitFrameOracle(SYSTEM)
    assert oracle.coefficient(1, 0) == pytest.approx(math.sqrt(0.75), rel=1e-15)
    assert oracle.coefficient(1, 2) == pytest.approx(0.25 * math.sqrt(0.75), rel=1e-14)
    assert oracle.coefficient(2, 3) == pytest.approx(
        0.75**3 * math.sqrt(1.0 - 0.75**2), rel=1e-14
    )


def test_invalid_system_rejected():
    bad = OrbitSystem(ExplicitSequence((1.2,)), ConstantWeights(1.0))
    with pytest.raises(InvariantViolation):
        phi_coefficients(bad, 1)
    duplicated = OrbitSystem(ExplicitSequence((0.5, 0.5)), ConstantWeights(1.0))
    with pytest.raises(InvariantViolation):
        frame_operator_matrix(duplicated, SubsampleScheme(1), 2)


def test_full_family_diagonal_is_weight_squared():
    s = frame_operator_matrix(SYSTEM, SubsampleScheme(1, 0, 0), 30)
    np.testing.assert_allclose(np.diag(s).real, np.ones(30), rtol=1e-13)
    assert np.max(np.abs(np.diag(s).imag)) == 0.0


def test_entry_closed_form_value():
    s = frame_operator_matrix(SYSTEM, SubsampleScheme(1, 0, 0), 2)
    expected = math.sqrt(0.75) * math.sqrt(1.0 - 0.75**2) / (1.0 - 0.5 * 0.75)
    assert s[0, 1] == pytest.approx(expected, rel=1e-14)
    assert s[0, 1] == pytest.approx(0.9165151389911680, rel=1e-12)


def test_single_point_system_is_orthonormal_sanity():
    system = OrbitSystem(ExplicitSequence((0.0,)), ConstantWeights(1.0))
    estimate = frame_bounds(system, SubsampleScheme(1, 0, 0), 1)
    assert estimate.a_est == pytest.approx(1.0, abs=1e-14)
    assert estimate.b_est == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("stride,offset,start", [
    (1, 0, 0), (2, 0, 0), (2, 1, 0), (3, 0, 2), (5, 1, 2),
])
def test_closed_form_matches_brute_oracle(stride, offset, start):
    # the deepest coordinate decays like (1 - 2^-8)^(2k), so 4000 terms push
    # the omitted tail below 1e-11
    dim, terms = 8, 4000
    closed = frame_operator_matrix(SYSTEM, SubsampleScheme(stride, offset, start), dim)
    oracle = brute_frame_operator(2.0, lambda n: 1.0, dim, stride, offset, start, terms)
    assert np.max(np.abs(closed - oracle)) < 1e-10


@pytest.mark.parametrize("stride", [1, 2, 3, 5])
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("start", [0, 2])
def test_bruteforce_deviation_within_reported_tail(stride, offset, start):
    if offset >= stride:
        pytest.skip("offset must stay below the stride")
    scheme = SubsampleScheme(stride, offset, start)
    closed = frame_operator_matrix(SYSTEM, scheme, 20)
    brute = frame_operator_bruteforce(SYSTEM, scheme, 20, 512)
    deviation = np.abs(closed - brute.matrix)
    assert np.all(deviation <= brute.tail_bound + 1e-12)


def test_bruteforce_single_term_is_rank_one():
    brute = frame_operator_bruteforce(SYSTEM, SubsampleScheme(1, 0, 0), 8, 1)
    c = phi_coefficients(SYSTEM, 8)
    np.testing.assert_allclose(brute.matrix, np.outer(c, c.conj()), rtol=1e-15)


def test_power_system_cross_check_identity():
    # {T^(Nk) phi} is the orbit of T^N with the reweighted coefficients:
    # the scheme-(N,0,0) operator equals the full-orbit operator of the
    # powered system carrying mtilde
    stride, dim = 3, 25
    mtilde, _ = retilde_weights(SYSTEM, stride, dim)
    powered = OrbitSystem(
        PowerSequence(GeometricApproach(2.0), stride),
        ExplicitWeights(tuple(mtilde), SYSTEM.weights.c1 / math.sqrt(2 * stride), 1.0),
    )
    lhs = frame_operator_matrix(SYSTEM, SubsampleScheme(stride, 0, 0), dim)
    rhs = frame_operator_matrix(powered, SubsampleScheme(1, 0, 0), dim)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_frame_operator_deep_truncation_stays_finite():
    # beyond k ~ 53 the raw values round to 1.0; the gap-based assembly must
    # still produce the exact unit diagonal instead of 0/0
    s = frame_operator_matrix(SYSTEM, SubsampleScheme(1, 0, 0), 80)
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(np.diag(s).real, np.ones(80), rtol=1e-12)


def test_frame_bounds_regression_and_oracle():
    estimate = frame_bounds(SYSTEM, SubsampleScheme(1, 0, 0), 40)
    assert estimate.a_est == pytest.approx(A_EST_FULL_M40, rel=1e-9)
    assert estimate.b_est == pytest.approx(B_EST_FULL_M40, rel=1e-12)
    assert estimate.eig_residual <= 1e-10
    j_lo, j_hi = jacobi_extremal_eigenvalues(
        frame_operator_matrix(SYSTEM, SubsampleScheme(1, 0, 0), 40)
    )
    assert estimate.a_est == pytest.approx(j_lo, abs=1e-10)
    assert estimate.b_est == pytest.approx(j_hi, rel=1e-10)


def test_subfamily_upper_bound_monotonicity():
    full = frame_bounds(SYSTEM, SubsampleScheme(1, 0, 0), 40)
    sub = frame_bounds(SYSTEM, SubsampleScheme(3, 0, 0), 40)
    assert sub.a_est > 0.0
    assert sub.b_est <= full.b_est + 1e-12


@pytest.mark.parametrize("stride,offset,start", [(1, 0, 0), (2, 1, 0), (3, 2, 3), (5, 0, 3)])
def test_interlacing_in_dimension(stride, offset, start):
    previous = None
    for dim in (10, 20, 40, 80):
        estimate = frame_bounds(SYSTEM, SubsampleScheme(stride, offset, start), dim)
        if previous is not None:
            assert estimate.a_est <= previous.a_est * (1 + 1e-6)
            assert estimate.b_est >= previous.b_est * (1 - 1e-6)
        previous = estimate


@pytest.mark.parametrize(
    "stride,offset", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]
)
def test_deep_scheme_lower_bound_matches_mpmath(stride, offset):
    # the eight K = 3 schemes whose A_est lies far below 1e-6 (down to 7e-15)
    # must still come out with relative accuracy
    pytest.importorskip("mpmath")
    estimate = frame_bounds(SYSTEM, SubsampleScheme(stride, offset, 3), 40)
    reference = mpmath_frame_lower_bound(2.0, 40, stride, offset, 3)
    assert estimate.a_est == pytest.approx(reference, rel=1e-6, abs=0.0)


@pytest.mark.parametrize(
    "stride,offset,start,dim,reference,rel",
    [
        (1, 0, 0, 40, 2.5623096045062615e-05, 1e-11),
        (5, 4, 3, 20, 7.23633386451466e-15, 2e-8),
    ],
)
def test_lower_bound_relative_accuracy_against_mpmath(stride, offset, start, dim, reference, rel):
    pytest.importorskip("mpmath")
    exact = mpmath_frame_lower_bound(2.0, dim, stride, offset, start, dps=100)
    assert exact == pytest.approx(reference, rel=1e-15, abs=0.0)
    estimate = frame_bounds(SYSTEM, SubsampleScheme(stride, offset, start), dim)
    assert estimate.a_est == pytest.approx(exact, rel=rel, abs=0.0)


@pytest.mark.parametrize("dim", [30, 40, 50])
def test_two_point_bounds_match_mpmath(dim):
    # the mixed-sign pairs of q, -q and lambda_k = 1 - 2^-k: 1 - w is 2 - x
    # from the gap x = 1 - |w|, where the old 1 - q (-lambda_k) rounded and
    # the pairs near the circle lost up to -log10(2^-k) digits
    pytest.importorskip("mpmath")
    system = OrbitSystem(TwoPointAugmented(0.3, GeometricApproach(2.0)), ConstantWeights(1.0))
    estimate = frame_bounds(system, SubsampleScheme(1), dim)
    a, b = mpmath_frame_bounds([0.3, -0.3] + [1.0 - 2.0**-k for k in range(1, dim - 1)], 1)
    assert estimate.a_est == pytest.approx(a, rel=1e-10, abs=0.0)
    assert estimate.b_est == pytest.approx(b, rel=1e-13, abs=0.0)


SPIRAL_POINTS = tuple((1 - 1.7**-k) * complex(math.cos(k), math.sin(k)) for k in range(1, 61))


@pytest.mark.parametrize("stride,dim,rel", [(1, 20, 1e-12), (1, 40, 1e-12), (2, 30, 1e-11), (3, 20, 1e-11)])
def test_spiral_bounds_match_mpmath(stride, dim, rel):
    # complex points near the circle: the turned gap x + (1 - x)(2 sin^2 - i sin)
    # keeps each entry's digits and the operator exactly Hermitian
    pytest.importorskip("mpmath")
    system = OrbitSystem(ExplicitSequence(SPIRAL_POINTS), ConstantWeights(1.0))
    estimate = frame_bounds(system, SubsampleScheme(stride), dim)
    a, _ = mpmath_frame_bounds(SPIRAL_POINTS[:dim], stride)
    assert estimate.a_est == pytest.approx(a, rel=rel, abs=0.0)


@pytest.mark.parametrize("stride", [1, 2, 5])
@pytest.mark.parametrize("dim", [20, 40, 60])
def test_spiral_bounds_certify(dim, stride):
    system = OrbitSystem(ExplicitSequence(SPIRAL_POINTS), ConstantWeights(1.0))
    estimate = frame_bounds(system, SubsampleScheme(stride), dim)
    assert 0.0 < estimate.a_est <= estimate.b_est


def test_frame_operator_dtype_follows_data():
    scheme = SubsampleScheme(2, 1, 0)
    assert frame_operator_matrix(SYSTEM, scheme, 6).dtype == np.float64
    complex_weights = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1j))
    assert frame_operator_matrix(complex_weights, scheme, 6).dtype == np.complex128
    spiral = OrbitSystem(
        ExplicitSequence(tuple(0.5 * (1 - 2.0**-k) * (1 + 1j) for k in range(1, 7))),
        ConstantWeights(1.0),
    )
    assert frame_operator_matrix(spiral, scheme, 6).dtype == np.complex128


@pytest.mark.parametrize("stride", [2, 3, 4])
def test_union_decomposition(stride):
    dim = 20
    full = frame_operator_matrix(SYSTEM, SubsampleScheme(1, 0, 0), dim)
    union = sum(
        frame_operator_matrix(SYSTEM, SubsampleScheme(stride, offset, 0), dim)
        for offset in range(stride)
    )
    assert np.max(np.abs(union - full)) <= 1e-12


@pytest.mark.parametrize("stride,start", [(2, 1), (3, 2), (5, 1)])
def test_shift_conjugation_identity(stride, start):
    # S_(N,0,K) = D S_(N,0,0) D* with D = diag(lambda_n^(N K))
    dim = 20
    lam = np.array([1.0 - 2.0 ** (-n) for n in range(1, dim + 1)], dtype=complex)
    d = lam ** (stride * start)
    base = frame_operator_matrix(SYSTEM, SubsampleScheme(stride, 0, 0), dim)
    shifted = frame_operator_matrix(SYSTEM, SubsampleScheme(stride, 0, start), dim)
    conjugated = base * np.outer(d, d.conj())
    assert np.max(np.abs(shifted - conjugated)) <= 1e-12


def test_psd_across_scheme_grid():
    for stride in (1, 2, 3, 5):
        for start in (0, 2):
            for offset in (0, min(1, stride - 1)):
                s = frame_operator_matrix(SYSTEM, SubsampleScheme(stride, offset, start), 24)
                eigs = np.linalg.eigvalsh(s)
                assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])


def test_bounds_rejects_a_negative_eigenvalue():
    with pytest.raises(EigensolverError, match="frame operator not PSD"):
        orbit._bounds(np.diag([-1.0, 1.0]))


def test_scheme_validation():
    with pytest.raises(InvariantViolation):
        SubsampleScheme(0)
    with pytest.raises(InvariantViolation):
        SubsampleScheme(2, 2, 0)
    with pytest.raises(InvariantViolation):
        SubsampleScheme(2, 0, -1)


def test_retilde_identity_case():
    mtilde, ok = retilde_weights(SYSTEM, 1, 50)
    assert ok
    np.testing.assert_array_equal(mtilde, np.ones(50, dtype=complex))


def test_retilde_first_value():
    mtilde, ok = retilde_weights(SYSTEM, 2, 1)
    assert ok
    assert abs(mtilde[0]) == pytest.approx(math.sqrt(0.8), rel=1e-14)


@pytest.mark.parametrize("stride", [2, 3, 5])
def test_retilde_bounds_depth_200(stride):
    mtilde, ok = retilde_weights(SYSTEM, stride, 200)
    assert ok
    magnitudes = np.abs(mtilde)
    assert np.all(magnitudes >= 1.0 / math.sqrt(2.0 * stride))
    assert np.all(magnitudes <= 1.0 + 4e-16)


def test_retilde_regenerates_phi_to_4_ulps():
    for stride in (2, 3, 5):
        mtilde, _ = retilde_weights(SYSTEM, stride, 200)
        gaps = np.array([2.0 ** (-k) for k in range(1, 201)])
        regenerated = mtilde * np.sqrt(-np.expm1(2 * stride * np.log1p(-gaps)))
        phi = phi_coefficients(SYSTEM, 200)
        assert np.all(np.abs(regenerated - phi) <= 4.0 * np.spacing(np.abs(phi)))


def test_estimate_serialization():
    estimate = frame_bounds(SYSTEM, SubsampleScheme(2, 1, 0), 10)
    data = json.loads(canonical_json(estimate))
    assert data["scheme"] == {"stride": 2, "offset": 1, "start": 0}
    assert data["dimension"] == 10
    assert 0.0 < data["a_est"] <= data["b_est"]


def _old_progression_matrix(arrays, first_exponent, step):
    """The operator of {T^(first_exponent + step*t) phi}_t as it was assembled
    before the congruence: whole-matrix outer products and the M x M power
    w^first_exponent of w = lambda_m conj(lambda_n); gaps for a real positive
    window, 1 - w^step by subtraction for any other."""
    if not np.any(arrays.lam.imag) and np.all(arrays.lam.real > 0.0):
        phi = arrays.phi if np.any(arrays.phi.imag) else arrays.phi.real
        coeffs = np.outer(phi, phi.conj())
        w = np.outer(arrays.lam.real, arrays.lam.real)
        h = np.add.outer(arrays.gaps, arrays.gaps) - np.outer(arrays.gaps, arrays.gaps)
        with np.errstate(over="ignore", invalid="ignore"):
            return coeffs * (complex_pow(w, first_exponent) / one_minus_pow(h, step))
    coeffs = np.outer(arrays.phi, arrays.phi.conj())
    w = np.outer(arrays.lam, arrays.lam.conj())
    return coeffs * complex_pow(w, first_exponent) / (1.0 - complex_pow(w, step))


def _unblocked_progression_matrix(arrays, step):
    """The stride base S_(N,0,0) from whole-matrix outer products: 1 - w^step
    is x = 1 - |w|^step from the gaps, 2 - x on a real window's mixed-sign
    pairs at odd step, x + (1 - x)(2 sin^2(step D/2) - i sin(step D)) on a
    complex window."""
    lam = arrays.lam
    h = np.add.outer(arrays.gaps, arrays.gaps) - np.outer(arrays.gaps, arrays.gaps)
    x = one_minus_pow(h, step)
    if np.any(lam.imag):
        coeffs = np.outer(arrays.phi, arrays.phi.conj())
        turn = step * np.subtract.outer(np.angle(lam), np.angle(lam))
        x = x + (1.0 - x) * (2.0 * np.sin(0.5 * turn) ** 2 - 1j * np.sin(turn))
    else:
        phi = arrays.phi if np.any(arrays.phi.imag) else arrays.phi.real
        coeffs = np.outer(phi, phi.conj())
        if step % 2:
            x = np.where(np.not_equal.outer(lam.real < 0.0, lam.real < 0.0), 2.0 - x, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return coeffs * (1.0 / x)


def _unblocked_conjugation(operator, arrays, exponent):
    """D S D* with D = diag(lambda_n^exponent) as one whole-matrix product."""
    d = complex_pow(arrays.lam if np.any(arrays.lam.imag) else arrays.lam.real, exponent)
    return operator * np.outer(d, d.conj())


BLOCK_SYSTEMS = {
    "real": OrbitSystem(GeometricApproach(1.6), ConstantWeights(1.0)),
    "complex_weights": OrbitSystem(GeometricApproach(2.0), ConstantWeights(0.6 + 0.8j)),
    "spiral": OrbitSystem(
        ExplicitSequence(tuple((1 - 1.7**-k) * complex(math.cos(k), math.sin(k)) for k in range(1, 31))),
        ConstantWeights(1.0),
    ),
    "two_point": OrbitSystem(TwoPointAugmented(0.3, GeometricApproach(1.6)), ConstantWeights(1.0)),
}


@pytest.mark.parametrize("kind", sorted(BLOCK_SYSTEMS))
@pytest.mark.parametrize("rows_per_block", [None, 1, 4])
def test_blocked_assembly_matches_unblocked_bit_for_bit(monkeypatch, kind, rows_per_block):
    # one block, one-row blocks and ragged four-row blocks (30 = 7 * 4 + 2),
    # for the base and for its congruence
    dim = 30
    if rows_per_block is not None:
        monkeypatch.setattr(numerics, "_CHUNK_TERMS", rows_per_block * dim + dim - 1)
    arrays = system_arrays(BLOCK_SYSTEMS[kind], dim)
    for exponent, step in ((0, 1), (1, 2), (11, 3), (0, 5)):
        base = orbit._progression_matrix(arrays, step)
        reference = _unblocked_progression_matrix(arrays, step)
        assert base.dtype == reference.dtype
        assert base.tobytes() == reference.tobytes()
        conjugated = orbit.conjugate_by_powers(base, arrays, exponent)
        assert conjugated is base
        assert conjugated.tobytes() == _unblocked_conjugation(reference, arrays, exponent).tobytes()


@pytest.mark.parametrize("kind", sorted(BLOCK_SYSTEMS))
def test_congruence_against_the_old_formula(kind):
    # A real positive window's (N, 0, 0) keeps the old formula's doubles; for
    # p = j + N K > 0 the powers lambda_m^p conj(lambda_n)^p replace
    # (lambda_m conj(lambda_n))^p, and both forms carry a relative rounding
    # error of about p eps / 2. Measured on these systems: at most 2.24 p
    # ulps of the old entry. On any other window the old 1 - w^N by
    # subtraction loses about eps / x relative, x = 1 - |w|^N <= |1 - w^N|:
    # measured, the new entries lie within 1.03 (p + N + 1) eps |old| / x of
    # the old ones (spiral; 0.69 for the two-point window), and the stated
    # relative tolerance is twice that.
    dim = 30
    arrays = system_arrays(BLOCK_SYSTEMS[kind], dim)
    positive = not np.any(arrays.lam.imag) and np.all(arrays.lam.real > 0.0)
    h = np.add.outer(arrays.gaps, arrays.gaps) - np.outer(arrays.gaps, arrays.gaps)
    for stride in (1, 2, 3, 5):
        base = orbit._progression_matrix(arrays, stride)
        tolerance = 2.0 * np.finfo(np.float64).eps / one_minus_pow(h, stride)
        for offset, start in itertools.product(range(stride), (0, 1, 3, 20)):
            p = offset + stride * start
            old = _old_progression_matrix(arrays, p, stride)
            if positive and p == 0:
                assert base.tobytes() == old.tobytes()
                continue
            new = orbit.conjugate_by_powers(base.copy(), arrays, p)
            if positive:
                assert np.all(np.abs(new - old) <= 4 * p * np.spacing(np.abs(old)))
            else:
                assert np.all(np.abs(new - old) <= (p + stride + 1) * tolerance * np.abs(old))


@pytest.mark.parametrize("kind", sorted(BLOCK_SYSTEMS))
def test_scheme_operator_is_the_stride_base_conjugated(kind):
    # the exact form of test_shift_conjugation_identity: S_(N,j,K) is
    # D S_(N,0,0) D* with D = diag(lambda_n^(j+NK)), byte for byte
    dim = 30
    system = BLOCK_SYSTEMS[kind]
    arrays = system_arrays(system, dim)
    for stride, offset, start in ((1, 0, 3), (2, 1, 0), (3, 2, 3), (5, 4, 1)):
        base = frame_operator_matrix(system, SubsampleScheme(stride), dim)
        scheme = frame_operator_matrix(system, SubsampleScheme(stride, offset, start), dim)
        exponent = offset + stride * start
        assert scheme.tobytes() == orbit.conjugate_by_powers(base.copy(), arrays, exponent).tobytes()
    assert orbit.conjugate_by_powers(base, arrays, 0) is base
    with pytest.raises(ValueError, match="exponent"):
        orbit.conjugate_by_powers(base, arrays, -1)


def test_sweep_equals_frame_bounds_bit_for_bit():
    # each stride's base is built once and each scheme conjugates a copy,
    # so every estimate is the one frame_bounds gives for its scheme
    for system in (BLOCK_SYSTEMS["real"], BLOCK_SYSTEMS["complex_weights"]):
        estimates = orbit.sweep_bounds(system, (1, 2, 3, 5), (0, 3), 40)
        schemes = [
            SubsampleScheme(stride, offset, start)
            for stride in (1, 2, 3, 5)
            for start in (0, 3)
            for offset in range(stride)
        ]
        assert [e.scheme for e in estimates] == schemes
        for estimate, scheme in zip(estimates, schemes):
            assert estimate == frame_bounds(system, scheme, 40)


def _estimate_bits(estimate):
    floats = np.array([estimate.a_est, estimate.b_est, estimate.eig_residual])
    return estimate.scheme, estimate.dimension, floats.tobytes()


def _sweep_schemes(strides, starts):
    return [SubsampleScheme(stride, offset, start) for stride in strides for start in starts for offset in range(stride)]


LARGE_SWEEP_WEIGHTS = {"unit": 1.0, "2^-10": 2.0**-10, "complex": 0.6 + 0.8j}


@pytest.mark.parametrize("weight", sorted(LARGE_SWEEP_WEIGHTS))
@pytest.mark.parametrize("dim", [260, 400])
def test_large_sweep_equals_frame_bounds_bit_for_bit(dim, weight):
    # at the sizes of the benchmark's sweep, every row, residual included, is
    # frame_bounds for its scheme: the work buffer holds each scheme's
    # operator as frame_operator_matrix builds it
    system = OrbitSystem(GeometricApproach(1.9), ConstantWeights(LARGE_SWEEP_WEIGHTS[weight]))
    estimates = orbit.sweep_bounds(system, (1, 3), (0, 3), dim)
    schemes = _sweep_schemes((1, 3), (0, 3))
    assert [_estimate_bits(e) for e in estimates] == [_estimate_bits(frame_bounds(system, s, dim)) for s in schemes]


@pytest.mark.parametrize("dim", [20, 260])
def test_sweep_raises_what_its_schemes_one_after_another_raise_first(dim):
    # points of modulus at most 0.9: K = 10^6 underflows every power
    # lambda_n^K, so that scheme's operator is 0, the sweep's second or its
    # first; at weight 1e154 the K = 0 operators overflow
    points = ExplicitSequence(tuple(0.9 * n / dim for n in range(1, dim + 1)))
    messages = set()
    for weight in (1.0, 1e154):
        system = OrbitSystem(points, ConstantWeights(weight))
        for starts in ((0, 10**6), (10**6, 0)):
            with pytest.raises(EigensolverError) as serial:
                for scheme in _sweep_schemes((1, 2), starts):
                    frame_bounds(system, scheme, dim)
            with pytest.raises(EigensolverError) as swept:
                orbit.sweep_bounds(system, (1, 2), starts, dim)
            assert str(swept.value) == str(serial.value)
            messages.add(str(serial.value))
    assert len(messages) == 2 and f"the frame operator underflows to 0 at M={dim}" in messages


def test_a_sweep_of_complex_and_real_valued_operators_solves_each_as_frame_bounds():
    # at K = 10^4 every power of the complex points underflows and the real
    # points' powers stay, so that operator's imaginary part is exactly 0
    # beside complex K = 0 operators: frame_bounds solves it as real
    points = ExplicitSequence((0.9999, 0.9998, 0.9997, 0.9996, 0.5j, -0.4j, 0.3 + 0.2j))
    system = OrbitSystem(points, ConstantWeights(1.0))
    deep = frame_operator_matrix(system, SubsampleScheme(2, 1, 10**4), 7)
    assert not np.any(deep.imag) and np.any(frame_operator_matrix(system, SubsampleScheme(2), 7).imag)
    estimates = orbit.sweep_bounds(system, (2,), (0, 10**4), 7)
    schemes = _sweep_schemes((2,), (0, 10**4))
    assert [_estimate_bits(e) for e in estimates] == [_estimate_bits(frame_bounds(system, s, 7)) for s in schemes]


def test_a_sweep_with_two_usable_cpus_starts_no_thread(monkeypatch):
    # the eigen stage runs on the calling thread; any threads are the BLAS's own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    thread = threading.Thread
    monkeypatch.setattr(threading, "Thread", lambda *args, **kwargs: started.append(1) or thread(*args, **kwargs))
    system = BLOCK_SYSTEMS["real"]
    estimates = orbit.sweep_bounds(system, (1, 2, 3), (0,), 400)
    assert not started
    schemes = _sweep_schemes((1, 2, 3), (0,))
    assert [_estimate_bits(e) for e in estimates] == [_estimate_bits(frame_bounds(system, s, 400)) for s in schemes]


@pytest.mark.parametrize("rows_per_block", [None, 1, 2])
def test_a_point_on_the_circle_in_the_last_block_is_a_non_finite_operator(monkeypatch, rows_per_block):
    # a hand-built window with a point on the circle, which validation
    # would reject: its diagonal denominator 1 - |i|^2 is exactly zero, and
    # the eigen stage rejects the entry that quotient leaves
    if rows_per_block is not None:
        monkeypatch.setattr(numerics, "_CHUNK_TERMS", rows_per_block * 5)
    lam = np.array([0.5, 0.25j, -0.5, 0.125, 1j])
    arrays = orbit.SystemArrays(lam, 1.0 - np.abs(lam), np.ones(5, complex), np.full(5, 0.5 + 0j))
    with np.errstate(divide="ignore"), pytest.raises(numerics.EigensolverError, match="non-finite"):
        orbit._bounds(orbit._progression_matrix(arrays, 2))


def test_assembly_memory_is_one_operator_plus_blocks():
    # the result is the only matrix-sized array; every temporary is a block
    # of at most _CHUNK_TERMS entries
    dim = 800
    spiral = ExplicitSequence(tuple((1 - 1.01**-k) * complex(math.cos(k), math.sin(k)) for k in range(1, dim + 1)))
    for seq, weights in (
        (GeometricApproach(1.6), ConstantWeights(1.0)),
        (GeometricApproach(1.6), ConstantWeights(0.6 + 0.8j)),
        (spiral, ConstantWeights(1.0)),
    ):
        system = OrbitSystem(seq, weights)
        system_arrays(system, dim)
        tracemalloc.start()
        try:
            operator = frame_operator_matrix(system, SubsampleScheme(2, 1, 0), dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = numerics._CHUNK_TERMS * operator.itemsize
        assert peak <= operator.nbytes + 8 * block


def _read_only(matrix):
    matrix = matrix.copy()
    matrix.setflags(write=False)
    return matrix


CALLER_LAYOUTS = {
    "c_order": np.copy,
    "fortran_order": np.asfortranarray,
    "read_only": _read_only,
    "complex_zero_imaginary": lambda matrix: matrix.astype(np.complex128),
}
PUBLIC_EIGEN_ENTRIES = {"extremal_eigenvalues": numerics.extremal_eigenvalues}


def _bits(result):
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    return repr(result)  # floats print round-trip exact


@pytest.mark.parametrize("entry", PUBLIC_EIGEN_ENTRIES)
@pytest.mark.parametrize("layout", CALLER_LAYOUTS)
def test_public_eigen_entries_never_write_the_callers_matrix(layout, entry):
    s = frame_operator_matrix(SYSTEM, SubsampleScheme(2, 1, 0), 40)
    given = CALLER_LAYOUTS[layout](s)
    before = (given.dtype, given.flags.writeable, given.tobytes(order="A"))
    result = PUBLIC_EIGEN_ENTRIES[entry](given)
    assert (given.dtype, given.flags.writeable, given.tobytes(order="A")) == before
    fresh = np.array(s, dtype=np.float64, order="C")
    assert _bits(result) == _bits(PUBLIC_EIGEN_ENTRIES[entry](fresh))


def test_public_eigen_entries_hold_one_copy_of_the_operator():
    # tracemalloc sees the package's arrays, not LAPACK's working copies:
    # the one private copy plus vectors and blocks, no second operator
    system = OrbitSystem(GeometricApproach(1.6), ConstantWeights(1.0))
    s = frame_operator_matrix(system, SubsampleScheme(2, 1, 0), 800)
    for entry in PUBLIC_EIGEN_ENTRIES.values():
        tracemalloc.start()
        try:
            entry(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * s.nbytes, entry.__name__


@pytest.mark.parametrize("weights,dim", [(1e-160, 1), (1e150, 40)])
def test_frame_bounds_at_extreme_scales(weights, dim):
    # a subnormal 1 x 1 operator and one whose entries reach 1e300: the
    # certificate runs on a power-of-two rescaled copy, so neither the shift
    # underflows nor the solve overflows into a NaN residual
    system = OrbitSystem(GeometricApproach(2.0), ConstantWeights(weights))
    estimate = frame_bounds(system, SubsampleScheme(1, 0, 0), dim)
    assert math.isfinite(estimate.eig_residual) and estimate.eig_residual <= 1e-10
    if dim == 1:
        assert estimate.a_est == estimate.b_est == 1e-320
    else:
        assert estimate.b_est == pytest.approx(B_EST_FULL_M40 * weights**2, rel=1e-12)


def test_an_underflowed_operator_is_no_frame():
    # at weight 1e-162 every |c_n|^2 is below the smallest subnormal, so the
    # stride base is zero; at K = 10^6 every power lambda_n^K underflows, so
    # the congruence is; zero eigenvalues are no frame bounds
    for seq in (GeometricApproach(2.0), ExplicitSequence((0.5j, 0.3, 0.1, 0.2, 0.4))):
        system = OrbitSystem(seq, ConstantWeights(1e-162))
        with pytest.raises(numerics.EigensolverError, match=r"underflows to 0 at M=5$"):
            frame_bounds(system, SubsampleScheme(1), 5)
        with pytest.raises(numerics.EigensolverError, match=r"underflows to 0 at M=5$"):
            orbit.sweep_bounds(system, (2,), (0, 3), 5)
        with pytest.raises(numerics.EigensolverError, match=r"underflows to 0 at M=5$"):
            frame_bounds(OrbitSystem(seq, ConstantWeights(1.0)), SubsampleScheme(1, 0, 10**6), 5)


def test_frame_bounds_when_the_first_shift_is_singular():
    # lambda_min sits about 10 eps * ||S|| above zero, so the first shifted
    # solve at it can meet an exactly zero pivot (it does with OpenBLAS);
    # the certificate then widens the shift instead of failing
    system = OrbitSystem(GeometricApproach(1.05), ConstantWeights(1.0))
    estimate = frame_bounds(system, SubsampleScheme(1, 0, 0), 7)
    assert estimate.b_est == pytest.approx(6.9521304458588675, rel=1e-13)
    assert 0.0 <= estimate.a_est <= 1e-13
    assert estimate.eig_residual <= 1e-10
