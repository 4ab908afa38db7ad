"""Dense Hermitian numerics: extremal eigenvalues with a residual certificate,
correctly rounded summation, and integer powers that stay accurate near the
unit circle.

The public functions never write their inputs and are safe to call
concurrently; sums are correctly rounded, so they do not depend on the order
of their terms.
"""

import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # start vector of the inverse-iteration certificate
_INVERSE_STEPS = 4  # solves per extreme in the eigenvalue certificate, at most
_CHUNK_TERMS = 1 << 16  # entries per block of a blocked array pass, which bounds its memory

DEFAULT_EIG_TOL = 1e-10  # residual bound of the eigenvalue certificate


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within the assembly tolerance."""


class EigensolverError(RuntimeError):
    """Eigenvalue computation failed to meet its residual contract."""


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense Hermitian matrix, validated at assembly: the stored array is a
    read-only `_private_copy` of the data that passed `_check_hermitian`."""

    data: np.ndarray

    def __post_init__(self):
        a = _check_hermitian(_private_copy(self.data))
        a.setflags(write=False)
        object.__setattr__(self, "data", a)


def _real_part_if_real(a: np.ndarray) -> np.ndarray:
    """`a.real`, a strided view, if `a` is complex with a zero imaginary part."""
    return a.real if np.iscomplexobj(a) and not np.any(a.imag) else a


def _private_copy(matrix) -> np.ndarray:
    """A C-contiguous copy, float64 if `matrix` is real or its imaginary part zero."""
    a = _real_part_if_real(np.asarray(matrix))
    return np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64, order="C")


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    """`a`, read in place; raises unless it is a square, finite Hermitian matrix.

    An infinite or NaN entry raises EigensolverError (no eigenvalue of such a
    matrix means anything); a deviation from conjugate symmetry beyond four
    ulps of the largest entry raises NonHermitianError. Both checks read `a`
    in blocks of at most _CHUNK_TERMS entries, the symmetry check only the
    upper strips, so they add no matrix-sized temporary.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        blocks = _row_blocks(a.shape[0], a.shape[0])
        # np.max propagates NaN, so a NaN anywhere makes the scale NaN
        scale = float(np.max([np.abs(a[rows]).max() for rows in blocks]))
        if not math.isfinite(scale):
            raise EigensolverError(f"matrix has a non-finite entry (largest modulus {scale!r})")
        deviation = _hermitian_deviation(a, blocks)
        if deviation > 4.0 * _EPS * max(scale, np.finfo(np.float64).tiny):
            raise NonHermitianError(
                f"hermitian deviation {deviation:.3e} exceeds 4 ulps of scale {scale:.3e}"
            )
    return a


def _row_blocks(count: int, width: int) -> list:
    """Slices of consecutive rows 0..count-1 of an array `width` entries wide,
    at most _CHUNK_TERMS entries each (one row at least)."""
    per_block = max(1, _CHUNK_TERMS // width)
    return [slice(low, low + per_block) for low in range(0, count, per_block)]


def _hermitian_deviation(a: np.ndarray, blocks) -> float:
    """max |a - a^H| over every entry, read one strip at a time: the rows of
    each block, from the diagonal on, against the mirrored columns.

    |a_mn - conj(a_nm)| and |a_nm - conj(a_mn)| are the same double, so the
    upper strips see every pair, and the mirrored reads stay short and
    contiguous where a whole column block would stride across the matrix.
    """
    return max(
        float(np.abs(a[rows, rows.start :] - a[rows.start :, rows].conj().T).max()) for rows in blocks
    )


class ExtremalEigenvalues(NamedTuple):
    lambda_min: float
    lambda_max: float
    residual: float


def extremal_eigenvalues(matrix, tol: float = DEFAULT_EIG_TOL) -> ExtremalEigenvalues:
    """Smallest and largest eigenvalue of a Hermitian matrix, certified.

    The certificate is ``residual = max ||S v - lambda v|| / ||S||`` over the
    two returned eigenvalues; if it exceeds ``tol`` (or is not a number) an
    EigensolverError is raised. The contract is the residual, not the
    algorithm behind it: the eigenvalues come from LAPACK without
    eigenvectors, and each v comes from inverse iteration, solves with S
    shifted just outside the spectrum at that extreme: one solve each, more
    only while the residual is above ``tol``; all on one private copy of `matrix`.
    """
    return _extremes(_private_copy(matrix.data if isinstance(matrix, HermitianMatrix) else matrix), tol)


def _extremes(s: np.ndarray, tol: float) -> ExtremalEigenvalues:
    """`extremal_eigenvalues` of an operator the package owns, checked, solved
    and certified in its own buffer, which is left overwritten. A complex `s`
    with a zero imaginary part gives way to a C-contiguous copy of its real part."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = _check_hermitian(np.asarray(_real_part_if_real(s), order="C"))
    try:
        eigvals = np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(str(exc)) from exc
    lo = float(eigvals[0])
    hi = float(eigvals[-1])
    norm = max(abs(lo), abs(hi))
    if norm == 0.0:
        return ExtremalEigenvalues(0.0, 0.0, 0.0)
    residual = _certificate(s, lo, hi, norm, tol)
    if not residual <= tol:  # a NaN residual fails too
        raise EigensolverError(f"residual {residual:.3e} exceeds tolerance {tol:.3e}")
    return ExtremalEigenvalues(lo, hi, residual)


def _certificate(s: np.ndarray, lo: float, hi: float, norm: float, tol: float) -> float:
    """max ||S v - lambda v|| / ||S|| over lambda in (lo, hi), v from inverse
    iteration at each extreme; the first residual above tol (NaN included),
    if there is one.

    Everything runs on S scaled by the power of two 2^e that brings ||S||
    into [1/2, 1), exactly, so the shift cannot underflow and the solve
    cannot overflow. Each extreme gets at most _INVERSE_STEPS solves with S
    shifted eps ||S|| outside the spectrum there, starting from the fixed
    vector frac(k g) - 1/2 (g the golden ratio conjugate), so the result is
    deterministic. One step meets the default tol; while the residual is
    above tol, the next step refines v, and a solve that meets an exactly
    zero pivot (the shift is an eigenvalue to working precision) is
    repeated with the shift doubled. `s`, C-contiguous, is scaled and shifted
    in place; each solve restores its diagonal.
    """
    e = -math.frexp(norm)[1]
    np.ldexp(s.view(np.float64), e, out=s.view(np.float64))
    diagonal = s.reshape(-1)[:: s.shape[0] + 1]  # a view into the buffer
    saved = diagonal.copy()
    norm = math.ldexp(norm, e)
    start = (np.arange(1, s.shape[0] + 1) * _GOLDEN) % 1.0 - 0.5
    worst = 0.0
    for lam, side in ((lo, -1.0), (hi, 1.0)):
        lam = math.ldexp(lam, e)
        gap, v, residual = _EPS * norm, start, None
        for _ in range(_INVERSE_STEPS):
            diagonal[:] = saved - (lam + side * gap)
            try:
                x = np.linalg.solve(s, v)
            except np.linalg.LinAlgError as exc:
                failure = exc
                gap *= 2.0
                continue
            finally:
                diagonal[:] = saved
            v = x / np.linalg.norm(x)
            residual = float(np.linalg.norm(s @ v - lam * v)) / norm
            if not residual > tol:  # met, or NaN
                break
        if residual is None:
            raise EigensolverError(f"shifted solve failed at every shift: {failure}")
        if not residual <= tol:  # also NaN, which max() would drop: max(0.0, nan) is 0.0
            return residual
        worst = max(worst, residual)
    return worst


def compensated_sum(terms: Iterable[float]) -> float:
    """Correctly rounded sum (``math.fsum``); independent of the term order."""
    return math.fsum(terms)


def complex_pow(z, p: int):
    """z**p for integer p >= 0 by binary exponentiation.

    Accepts scalars or numpy arrays; ``complex_pow(z, 0) == 1`` by
    convention, including z == 0.
    """
    p = operator.index(p)
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    if p == 0:
        return z ** 0
    base = z
    result = None
    while True:
        if p & 1:
            result = base if result is None else result * base
        p >>= 1
        if not p:
            return result
        base = base * base


def complex_pow_table(z, exponents) -> np.ndarray:
    """z**p for every integer p >= 0 in `exponents`, one row per exponent.

    The rows equal ``complex_pow(z, p)`` bit for bit: the squarings of z are
    the same, and each row multiplies them in the same order, starting from
    the first factor it needs; rows with exponent 0 are ones.
    """
    z = np.asarray(z)
    try:
        exponents = np.array(exponents, dtype=np.int64)
    except OverflowError:  # beyond int64: keep Python integers, as complex_pow does
        exponents = np.array(exponents, dtype=object)
    if np.any(exponents < 0):
        raise ValueError("exponent must be nonnegative")
    table = np.ones(exponents.shape + z.shape, dtype=z.dtype)
    started = np.zeros(exponents.shape, dtype=bool)
    base = z
    remaining = exponents
    while True:
        bit = (remaining & 1).astype(bool)
        table[bit & started] *= base
        table[bit & ~started] = base
        started |= bit
        remaining >>= 1
        if not remaining.any():
            return table
        base = base * base


def one_minus_pow(gap, p: int):
    """1 - (1 - gap)**p without cancellation, for gap in [0, 1], integer p >= 0.

    This is the workhorse for quantities like 1 - |lambda|^(2N) when lambda
    sits too close to the unit circle for 1 - lambda to survive rounding.
    Elementwise over an array; a scalar gap is taken as a 0-d array.
    """
    p = operator.index(p)
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    gap = np.asarray(gap, dtype=np.float64)
    if p == 0:
        return np.zeros_like(gap)
    if p == 1:
        return gap.copy()
    if p == 2:
        return gap * (2.0 - gap)
    with np.errstate(divide="ignore"):
        return -np.expm1(p * np.log1p(-gap))
