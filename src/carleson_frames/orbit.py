"""Orbit systems of a diagonal contraction: generator coefficients, closed-form
frame operators of subsampled orbit subfamilies, truncated frame-bound
estimates, and the stride-N reweighting identity.

Model space: the infinite-dimensional coordinate space is truncated to its
first M coordinates. The frame operator of {T^(Nk+j) phi}_{k>=K} restricted to
those coordinates has the exact closed form

    S[m, n] = c_m conj(c_n) w^(j + N K) / (1 - w^N),   w = lambda_m conj(lambda_n),

with c_n = m_n sqrt(1 - |lambda_n|^2), obtained by summing the geometric
series over k, and assembled as the stride base S_(N,0,0) conjugated by
D = diag(lambda_n^(j+NK)). By Cauchy interlacing the reported A_est
*over*-estimates the true lower frame bound while B_est *under*-estimates the
upper bound; that one-sided orientation is part of every estimate's meaning.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import (
    DEFAULT_EIG_TOL,
    EigensolverError,
    _extremes,
    _private_copy,
    _row_blocks,
    complex_pow,
    compensated_sum,
    extremal_eigenvalues,  # orbit's name for it, which bench/test_bench.py reads
    one_minus_pow,
)
from .sequences import InvariantViolation, LambdaSequence, Weights, _outside_disc, validate

DEFAULT_DIMENSION = 40


class SingularDenominatorError(ArithmeticError):
    """(lambda_m conj(lambda_n))^N hit 1 exactly - impossible strictly inside
    the open disc, so this flags invalid input."""


@dataclass(frozen=True)
class OrbitSystem:
    """Eigenvalue sequence plus weights; induces phi = sum c_n e_n and the
    diagonal operator T e_n = lambda_n e_n. Keeps the largest validated
    coordinate window it has built; every truncation M reads a prefix of it
    (see `system_arrays`)."""

    lambdas: LambdaSequence
    weights: Weights
    _window: "SystemArrays | None" = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SubsampleScheme:
    """Selects the orbit subfamily with exponents {stride*k + offset : k >= start},
    i.e. the triple (N, j, K) with 0 <= j < N and K >= 0."""

    stride: int
    offset: int = 0
    start: int = 0

    def __post_init__(self):
        n, j, k = int(self.stride), int(self.offset), int(self.start)
        if n < 1:
            raise InvariantViolation("stride N must be >= 1")
        if not 0 <= j < n:
            raise InvariantViolation("offset j must lie in [0, N)")
        if k < 0:
            raise InvariantViolation("start K must be >= 0")
        object.__setattr__(self, "stride", n)
        object.__setattr__(self, "offset", j)
        object.__setattr__(self, "start", k)

    def exponent(self, k: int) -> int:
        return self.stride * k + self.offset


@dataclass(frozen=True)
class FrameBoundEstimate:
    """Extremal-eigenvalue estimates of a truncated frame operator.

    a_est is nonincreasing and b_est nondecreasing in the truncation
    dimension (Cauchy interlacing); scheme is None for families that are not
    plain subsample schemes (e.g. woven families).
    """

    a_est: float
    b_est: float
    dimension: int
    eig_residual: float
    scheme: SubsampleScheme | None


class SystemArrays(NamedTuple):
    lam: np.ndarray
    gaps: np.ndarray
    weights: np.ndarray
    phi: np.ndarray
    real_positive: bool


def system_arrays(system: OrbitSystem, dimension: int) -> SystemArrays:
    """Validated, read-only coordinate data for the first `dimension` indices,
    a prefix view of the largest window the system holds.

    A dimension beyond that window grows it to max(dimension, 2 x held)
    points (capped at a finite sequence or weight length), so queries at
    growing indices up to d build O(log d) windows. Where the grown window
    raises, the window of exactly `dimension` points is built, so a bad
    point at index i still raises only for dimension >= i.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    held = system._window
    if held is None or held.lam.size < dimension:
        lengths = (m for m in (system.lambdas.length, system.weights.length) if m is not None)
        size = max(dimension, min((0 if held is None else 2 * held.lam.size, *lengths)))
        try:
            held = _window(system, size)
        except (ValueError, IndexError):
            if size == dimension:
                raise
            held = _window(system, dimension)
        object.__setattr__(system, "_window", held)
    if held.lam.size == dimension:
        return held
    return SystemArrays(*(array[:dimension] for array in held[:4]), held.real_positive)


def _window(system: OrbitSystem, dimension: int) -> SystemArrays:
    """The validated window of exactly the first `dimension` coordinates."""
    seq, weights = system.lambdas, system.weights
    report = validate(seq, dimension)
    if not report.in_disc:
        raise _outside_disc(report.first_out_of_disc)
    if not report.distinct:
        raise InvariantViolation(f"repeated eigenvalue at indices {report.first_duplicate}")
    if weights.length is not None and weights.length < dimension:
        raise IndexError(f"weights provide {weights.length} < {dimension} entries")
    if seq.length is not None and seq.length < dimension:
        raise IndexError(f"sequence provides {seq.length} < {dimension} entries")
    m = weights._checked(np.arange(1, dimension + 1))
    phi = m * np.sqrt(one_minus_pow(report.gaps, 2))
    m.setflags(write=False)
    phi.setflags(write=False)
    return SystemArrays(report.values, report.gaps, m, phi, seq.real_positive)


def phi_norm_squared(system: OrbitSystem, dimension: int) -> float:
    """||phi_M||^2 = sum_{n<=M} |m_n|^2 (1 - |lambda_n|^2), summed in index order."""
    arrays = system_arrays(system, dimension)
    terms = (np.abs(arrays.weights) ** 2) * one_minus_pow(arrays.gaps, 2)
    return compensated_sum(terms.tolist())


def _progression_matrix(arrays: SystemArrays, step: int) -> np.ndarray:
    """Frame operator of {T^(step*t) phi}_{t>=0}, the stride base S_(N,0,0),
    summed in closed form: S[m, n] = c_m conj(c_n) / (1 - w^step).

    Real positive systems route the denominator 1 - w^step through modulus
    gaps, which keeps it exact when the eigenvalues crowd the circle, and
    with real weights the whole matrix is assembled in float64. Rows are
    filled in blocks of at most _CHUNK_TERMS entries, so the only
    matrix-sized array is the result.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    if arrays.real_positive:
        phi = arrays.phi if np.any(arrays.phi.imag) else arrays.phi.real
    else:
        phi, lam, conj_lam = arrays.phi, arrays.lam, arrays.lam.conj()
    gaps = arrays.gaps
    out = np.empty((phi.size, phi.size), dtype=phi.dtype)
    for rows in _row_blocks(phi.size, phi.size):
        coeffs = np.outer(phi[rows], phi.conj())
        if arrays.real_positive:
            # 1 - w = g_m + g_n - g_m g_n exactly, hence 1 - w^step via gap powers
            h = np.add.outer(gaps[rows], gaps) - np.outer(gaps[rows], gaps)
            denominator = one_minus_pow(h, step)
            # subnormal gaps can overflow the quotient; the eigen stage rejects
            # the inf or NaN entries that result
            with np.errstate(over="ignore", invalid="ignore"):
                out[rows] = coeffs * (1.0 / denominator)
        else:
            denominator = 1.0 - complex_pow(np.outer(lam[rows], conj_lam), step)
            if np.any(denominator == 0.0):
                raise SingularDenominatorError("(lambda_m conj(lambda_n))^N == 1")
            out[rows] = coeffs / denominator
    return out


def conjugate_by_powers(operator: np.ndarray, arrays: SystemArrays, exponent: int) -> np.ndarray:
    """D S D* with D = diag(lambda_n^exponent), computed in place on S and returned.

    This takes the frame operator of {T^p phi}_p to that of
    {T^(p + exponent) phi}_p; exponent 0 leaves S untouched. The powers are
    taken once on the M-vector, and rows are scaled in blocks of at most
    _CHUNK_TERMS entries.
    """
    if exponent == 0:
        return operator
    d = complex_pow(arrays.lam.real if arrays.real_positive else arrays.lam, exponent)
    conj_d = d.conj()
    # an inf entry from an overflowed base times an underflowed power is NaN,
    # which the eigen stage rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(d.size, d.size):
            operator[rows] *= np.outer(d[rows], conj_d)
    return operator


def frame_operator_matrix(
    system: OrbitSystem, scheme: SubsampleScheme, dimension: int
) -> np.ndarray:
    """Closed-form M x M frame operator of {T^(Nk+j) phi}_{k>=K}; Hermitian PSD.

    It is the stride base S_(N,0,0) conjugated by D = diag(lambda_n^(j+NK)).
    float64 (real symmetric) for real positive eigenvalues with real weights,
    complex128 otherwise."""
    arrays = system_arrays(system, dimension)
    base = _progression_matrix(arrays, scheme.stride)
    return conjugate_by_powers(base, arrays, scheme.exponent(scheme.start))


def bounds_from_matrix(
    matrix: np.ndarray,
    tol: float = DEFAULT_EIG_TOL,
    scheme: SubsampleScheme | None = None,
) -> FrameBoundEstimate:
    """Extremal eigenvalues of an assembled M x M frame operator, PSD-checked.

    Eigenvalues within -tol * ||S|| of zero are clamped to 0; anything more
    negative means the matrix is not a frame operator and raises. The work
    runs on one private copy; the caller's matrix is never written."""
    return _bounds(_private_copy(matrix), tol, scheme)


def _bounds(operator: np.ndarray, tol=DEFAULT_EIG_TOL, scheme=None) -> FrameBoundEstimate:
    """`bounds_from_matrix` of an operator the package just assembled, in its
    own buffer, which `_extremes` checks, solves and certifies in place."""
    extremes = _extremes(operator, tol)
    scale = max(abs(extremes.lambda_min), abs(extremes.lambda_max))
    if extremes.lambda_min < -tol * scale:
        raise EigensolverError(
            f"frame operator not PSD: lambda_min = {extremes.lambda_min:.3e}"
        )
    return FrameBoundEstimate(
        a_est=max(0.0, extremes.lambda_min),
        b_est=extremes.lambda_max,
        dimension=operator.shape[0],
        eig_residual=extremes.residual,
        scheme=scheme,
    )


def frame_bounds(
    system: OrbitSystem,
    scheme: SubsampleScheme,
    dimension: int = DEFAULT_DIMENSION,
    tol: float = DEFAULT_EIG_TOL,
) -> FrameBoundEstimate:
    """Truncated frame-bound estimates (A_est, B_est) for one subsample scheme."""
    return _bounds(frame_operator_matrix(system, scheme, dimension), tol, scheme)


def sweep_bounds(
    system: OrbitSystem,
    strides,
    starts,
    dimension: int = DEFAULT_DIMENSION,
    tol: float = DEFAULT_EIG_TOL,
) -> list:
    """`frame_bounds` of every scheme (N, j, K) with N in `strides`, K in
    `starts` and 0 <= j < N, in that order.

    Each stride's base S_(N,0,0) is assembled once; every scheme of that
    stride conjugates a copy of it, exactly as `frame_operator_matrix` does,
    so each estimate equals `frame_bounds` for its scheme bit for bit.
    """
    arrays = system_arrays(system, dimension)
    estimates = []
    for stride in strides:
        base = _progression_matrix(arrays, stride)
        for start in starts:
            for offset in range(stride):
                scheme = SubsampleScheme(stride, offset, start)
                estimates.append(_bounds(
                    conjugate_by_powers(base.copy(), arrays, scheme.exponent(start)), tol, scheme
                ))
    return estimates


def retilde_weights(system: OrbitSystem, stride: int, count: int):
    """Reweighting that exhibits {T^(Nk) phi} as the orbit of T^N:

        mtilde_k = m_k sqrt((1 - |lambda_k|^2) / (1 - |lambda_k^N|^2)),

    so that mtilde_k sqrt(1 - |lambda_k^N|^2) = c_k, i.e. the regenerated
    vector is phi itself. Returns (mtilde[0..count-1], bound_check) where
    bound_check asserts C1 (2N)^(-1/2) <= |mtilde_k| <= C2 for every computed
    k. The defining identity is verified to 4 ulps and raises on failure.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    arrays = system_arrays(system, count)
    numerator = one_minus_pow(arrays.gaps, 2)
    denominator = one_minus_pow(arrays.gaps, 2 * stride)
    mtilde = arrays.weights * np.sqrt(numerator / denominator)

    regenerated = mtilde * np.sqrt(denominator)
    deviation = np.abs(regenerated - arrays.phi)
    allowance = 4.0 * np.spacing(np.abs(arrays.phi))
    if np.any(deviation > allowance):
        raise ArithmeticError("reweighting identity drifted beyond 4 ulps")

    magnitudes = np.abs(mtilde)
    lower = system.weights.c1 / math.sqrt(2.0 * stride)
    upper = system.weights.c2
    slack = 4.0 * np.finfo(np.float64).eps
    bound_check = bool(
        np.all(magnitudes >= lower * (1.0 - slack)) and np.all(magnitudes <= upper * (1.0 + slack))
    )
    return mtilde, bound_check
