"""Orbit systems of a diagonal contraction: generator coefficients, closed-form
frame operators of subsampled orbit subfamilies, truncated frame-bound
estimates, and the stride-N reweighting identity.

Model space: the infinite-dimensional coordinate space is truncated to its
first M coordinates. There the frame operator of {T^(Nk+j) phi}_{k>=K} is the
stride base S_(N,0,0) conjugated by D = diag(lambda_n^(j+NK)), and the base is
the orbit operator of T^N (the paper's reduction to N = 1), whose eigenvalues
are mu_n = lambda_n^N: S[m, n] = c_m conj(c_n) / (1 - mu_m conj(mu_n)) with
c_n = m_n sqrt(1 - |lambda_n|^2), summed over k in closed form without
cancellation. By Cauchy interlacing the reported A_est *over*-estimates the
true lower frame bound while B_est *under*-estimates the upper bound; that
one-sided orientation is part of every estimate's meaning.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics
from .numerics import (
    DEFAULT_DIMENSION,
    EigensolverError,
    _extremes,
    _row_blocks,
    complex_pow,
    compensated_sum,
    extremal_eigenvalues,  # orbit's name for it, which bench/test_bench.py reads
    one_minus_pow,
    one_minus_products,
)
from .sequences import InvariantViolation, LambdaSequence, Weights, validate


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
    """The validated, read-only arrays of the first M coordinates. log_moduli is
    log|lambda_n| from |lambda_n| below 1/2, where g_n rounds, else log1p(-g_n),
    -inf at 0; taken with `math`, whose last bits the oracle's exact picks read."""

    lam: np.ndarray
    gaps: np.ndarray  # g_n = 1 - |lambda_n|
    weights: np.ndarray
    phi: np.ndarray
    moduli: np.ndarray  # |m_n|
    log_moduli: np.ndarray


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
    return SystemArrays(*(array[:dimension] for array in held))


def _window(system: OrbitSystem, dimension: int) -> SystemArrays:
    """The validated window of exactly the first `dimension` coordinates."""
    seq, weights = system.lambdas, system.weights
    report = validate(seq, dimension)
    if report.first_duplicate is not None:
        raise InvariantViolation(f"repeated eigenvalue at indices {report.first_duplicate}")
    if weights.length is not None and weights.length < dimension:
        raise IndexError(f"weights provide {weights.length} < {dimension} entries")
    if seq.length is not None and seq.length < dimension:
        raise IndexError(f"sequence provides {seq.length} < {dimension} entries")
    m, moduli = weights._checked(np.arange(1, dimension + 1))
    phi = m * np.sqrt(one_minus_pow(report.gaps, 2))
    logs = np.array([math.log(r) if 0.0 < r < 0.5 else math.log1p(-g) if g < 1.0 else -math.inf
                     for r, g in zip(np.abs(report.values).tolist(), report.gaps.tolist())])
    for array in (m, phi, moduli, logs):
        array.setflags(write=False)
    return SystemArrays(report.values, report.gaps, m, phi, moduli, logs)


def phi_norm_squared(system: OrbitSystem, dimension: int) -> float:
    """||phi_M||^2 = sum_{n<=M} |m_n|^2 (1 - |lambda_n|^2), summed in index order."""
    arrays = system_arrays(system, dimension)
    terms = arrays.moduli * arrays.moduli * one_minus_pow(arrays.gaps, 2)
    return compensated_sum(terms.tolist())


def _stride_window(arrays: SystemArrays, stride: int) -> SystemArrays:
    """The window of mu_n = lambda_n^N, T^N's eigenvalues, that carries phi (the
    window itself at N = 1): weights c_n / sqrt(1 - |mu_n|^2), logs N log|lambda_n|.
    Unvalidated, since mu may repeat (q^2 twice in a two-point system at even N)."""
    if stride == 1:
        return arrays
    gaps = one_minus_pow(arrays.gaps, stride)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero gap's inf, which the eigen stage rejects
        mtilde = arrays.phi / np.sqrt(one_minus_pow(gaps, 2))
    lam = complex_pow(arrays.lam, stride)
    return SystemArrays(lam, gaps, mtilde, arrays.phi, np.abs(mtilde), stride * arrays.log_moduli)


def _progression_matrix(arrays: SystemArrays) -> np.ndarray:
    """Frame operator of a window's orbit {T^t phi}_{t>=0} in closed form,
    S[m, n] = c_m conj(c_n) / (1 - w), w = lambda_m conj(lambda_n); a stride
    base S_(N,0,0) is that of `_stride_window(arrays, N)`. 1 - w is built from
    modulus gaps, no term cancelling: `one_minus_products` gives a real window's
    pair term and x = 1 - |w| on a complex one, then x + (1 - x)(2 sin^2(D/2) - i sin D),
    D = theta_m - theta_n. Rows go in blocks of at most _CHUNK_TERMS entries, the
    result the only matrix-sized array; a real block is built in its output rows
    by the operations of coeffs * (1 / one_minus_products(...))."""
    lam, gaps, phi = arrays.lam, arrays.gaps, arrays.phi
    angles = np.angle(lam) if np.iscomplexobj(lam) else None
    out, conj_phi = np.empty((phi.size, phi.size), dtype=np.result_type(phi, lam)), phi.conj()
    # huge weights overflow the coefficients and subnormal gaps the quotient;
    # the eigen stage rejects the inf or NaN entries that result
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(phi.size, phi.size):
            denominator = one_minus_products(lam, gaps, rows)
            if angles is not None:
                turn = np.subtract.outer(angles[rows], angles)
                half = np.sin(0.5 * turn)
                denominator = denominator + (1.0 - denominator) * (2.0 * half * half - 1j * np.sin(turn))
            np.divide(1.0, denominator, out=denominator)
            block = np.multiply.outer(phi[rows], conj_phi, out=out[rows])
            block *= denominator
    return out


def conjugate_by_powers(operator: np.ndarray, arrays: SystemArrays, exponent: int) -> np.ndarray:
    """D S D* with D = diag(lambda_n^exponent), computed in place on S and returned.

    This takes the frame operator of {T^p phi}_p to that of
    {T^(p + exponent) phi}_p; exponent 0 leaves S untouched. The powers are
    taken once on the M-vector, in the window's dtype, and rows are scaled
    in blocks of at most _CHUNK_TERMS entries.
    """
    if exponent == 0:
        return operator
    d = complex_pow(arrays.lam, exponent)
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
    Its dtype follows the window: float64 (real symmetric) for real
    eigenvalues with real weights, complex128 otherwise."""
    arrays = system_arrays(system, dimension)
    base = _progression_matrix(_stride_window(arrays, scheme.stride))
    return conjugate_by_powers(base, arrays, scheme.exponent(scheme.start))


def _bounds(operator: np.ndarray, scheme=None) -> FrameBoundEstimate:
    """Frame-bound estimates from an operator the package assembled, in its own buffer,
    which `_extremes` overwrites; a lambda_min within -DEFAULT_EIG_TOL ||S|| of 0 reads
    as 0, a lower one raises (no frame operator), as does a zero matrix with a scheme."""
    # tiny weights underflow every c_n, a deep scheme the powers in D S D*;
    # a PSD operator with a zero diagonal is zero, and its zero eigenvalues
    # would read as frame bounds
    if scheme is not None and not np.any(np.diagonal(operator)):
        raise EigensolverError(f"the frame operator underflows to 0 at M={operator.shape[0]}")
    extremes = _extremes(operator)
    scale = max(abs(extremes.lambda_min), abs(extremes.lambda_max))
    if extremes.lambda_min < -numerics.DEFAULT_EIG_TOL * scale:
        raise EigensolverError(f"frame operator not PSD: lambda_min = {extremes.lambda_min:.3e}")
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
) -> FrameBoundEstimate:
    """Truncated frame-bound estimates (A_est, B_est) for one subsample scheme."""
    return _bounds(frame_operator_matrix(system, scheme, dimension), scheme)


def sweep_bounds(system: OrbitSystem, strides, starts, dimension: int = DEFAULT_DIMENSION) -> list:
    """`frame_bounds` of every scheme (N, j, K) with N in `strides`, K in
    `starts` and 0 <= j < N, in that order.

    Each stride's base S_(N,0,0) is assembled once; every scheme of that
    stride copies it into one work buffer and conjugates it there, exactly as
    `frame_operator_matrix` does, so each estimate equals `frame_bounds` for
    its scheme bit for bit. The sweep holds the base, the work buffer and
    LAPACK's copy; `strides` and `starts` are sequences.
    """
    arrays = system_arrays(system, dimension)
    work, estimates = None, []
    for stride in strides:
        base = _progression_matrix(_stride_window(arrays, stride))
        work = np.empty_like(base) if work is None else work
        for start in starts:
            for offset in range(stride):
                scheme = SubsampleScheme(stride, offset, start)
                np.copyto(work, base)
                estimates.append(_bounds(conjugate_by_powers(work, arrays, scheme.exponent(start)), scheme))
    return estimates


def retilde_weights(system: OrbitSystem, stride: int, count: int):
    """Reweighting that exhibits {T^(Nk) phi} as the orbit of T^N (`_stride_window`):

        mtilde_k = c_k / sqrt(1 - |lambda_k^N|^2),

    so that mtilde_k sqrt(1 - |lambda_k^N|^2) = c_k, i.e. the regenerated
    vector is phi itself. Returns (mtilde[0..count-1], bound_check) where
    bound_check asserts C1 (2N)^(-1/2) <= |mtilde_k| <= C2 for every computed
    k. The defining identity is verified to 4 ulps and raises on failure.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    arrays = system_arrays(system, count)
    mtilde = _stride_window(arrays, stride).weights

    regenerated = mtilde * np.sqrt(one_minus_pow(arrays.gaps, 2 * stride))
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
