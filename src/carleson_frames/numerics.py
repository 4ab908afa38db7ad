"""Dense Hermitian numerics: extremal eigenvalues with a residual certificate,
correctly rounded summation, integer powers by binary exponentiation, and
1 - (1 - gap)^p and every window's pair term 1 - lambda_m lambda_n without
cancellation near the unit circle.

The public functions never write their inputs and are safe to call
concurrently. The eigen stage takes one operator per call, on the calling
thread, and leaves any use of threads inside LAPACK to the BLAS. Sums are
correctly rounded, so they do not depend on the order of their terms.
"""

import math
import operator
from typing import Iterable, NamedTuple

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # start vector of the inverse-iteration certificate
_INVERSE_STEPS = 4  # solves per extreme in the eigenvalue certificate, at most
_CHUNK_TERMS = 1 << 16  # entries per block of a blocked array pass, which bounds its memory

DEFAULT_EIG_TOL = 1e-10  # residual bound of the eigenvalue certificate, read at each call
DEFAULT_DIMENSION = 40  # truncation dimension M of the frame analyses
DEFAULT_J_MAX = 10_000  # last start index J a weaving search tries


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within the assembly tolerance."""


class EigensolverError(RuntimeError):
    """Eigenvalue computation failed to meet its residual contract."""


class SearchBudgetExceededError(RuntimeError):
    """No qualifying index in a search's range - a non-Bessel oracle, or witnesses
    past the cap; the construction itself can never fail mathematically."""


class WeavingSearchError(RuntimeError):
    """No start index within the search budget pushed the defect below the
    required fraction of the lower bound; carries the stride-N reference
    bounds (a FrameBoundEstimate) and the evaluated defect curve."""

    def __init__(self, message: str, reference_bounds, sweep: tuple):
        super().__init__(message)
        self.reference_bounds = reference_bounds
        self.sweep = sweep


def _real_part_if_real(a: np.ndarray) -> np.ndarray:
    """`a.real`, a strided view, if `a` is complex with a zero imaginary part."""
    return a.real if np.iscomplexobj(a) and not np.any(a.imag) else a


def _check_hermitian(a: np.ndarray) -> bool:
    """Whether `a`, read in place, is real and equal to its transpose bit for
    bit; raises unless it is a nonempty square, finite Hermitian matrix.

    An infinite or NaN entry raises EigensolverError (no eigenvalue of such a
    matrix means anything); a deviation from conjugate symmetry beyond four
    ulps of the largest entry raises NonHermitianError. One loop over square
    tiles on and above the diagonal, each of a quarter of _CHUNK_TERMS entries
    at most, takes both from each tile and its mirror below the diagonal: the
    scale from their moduli, the deviation from their difference, which sees
    every pair (m, n), (n, m) once. A real tile whose bits agree with its
    mirror's skips both for the mirror.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:  # no eigenvalue to bound
        raise NonHermitianError(f"expected a nonempty square matrix, got shape {a.shape}")
    real = not np.iscomplexobj(a)
    width = max(1, math.isqrt(_CHUNK_TERMS // 4))
    moduli, deviations = [], []
    with np.errstate(invalid="ignore"):  # inf - inf of a non-finite matrix, which raises below
        for low in range(0, a.shape[0], width):
            rows = slice(low, low + width)
            for high in range(low, a.shape[0], width):
                cols = slice(high, high + width)
                tile, mirror = a[rows, cols], a[cols, rows].T
                moduli.append(np.abs(tile).max())
                if real and np.array_equal(tile.view(np.int64), mirror.view(np.int64)):
                    continue  # the mirror holds the tile's moduli, and the pair deviates by 0
                moduli.append(np.abs(mirror).max())
                deviations.append(np.abs(tile - mirror.conj()).max())
    if moduli:
        # np.max propagates NaN, so a NaN anywhere makes the scale NaN
        scale = float(np.max(moduli))
        if not math.isfinite(scale):
            raise EigensolverError(f"matrix has a non-finite entry (largest modulus {scale!r})")
        deviation = float(np.max(deviations, initial=0.0))
        if deviation > 4.0 * _EPS * max(scale, np.finfo(np.float64).tiny):
            raise NonHermitianError(
                f"hermitian deviation {deviation:.3e} exceeds 4 ulps of scale {scale:.3e}"
            )
    return real and not deviations


def _row_blocks(count: int, width: int) -> list:
    """Slices of consecutive rows 0..count-1 of an array `width` entries wide,
    at most _CHUNK_TERMS entries each (one row at least)."""
    per_block = max(1, _CHUNK_TERMS // width)
    return [slice(low, low + per_block) for low in range(0, count, per_block)]


class ExtremalEigenvalues(NamedTuple):
    lambda_min: float
    lambda_max: float
    residual: float


def extremal_eigenvalues(matrix) -> ExtremalEigenvalues:
    """Smallest and largest eigenvalue of a Hermitian matrix, certified.

    The certificate is ``residual = max ||S v - lambda v|| / ||S||`` over the
    two returned eigenvalues; if it exceeds DEFAULT_EIG_TOL (or is not a
    number) an EigensolverError is raised. The contract is the residual, not
    the algorithm behind it: the eigenvalues come from LAPACK without
    eigenvectors, and each v comes from inverse iteration, solves with S
    shifted just outside the spectrum at that extreme: one solve each, more
    only while the residual is above the bound; all on a private copy of
    `matrix` (float64 if `matrix` is real or its imaginary part zero), once
    `_check_hermitian` has found it square, finite and Hermitian to 4 ulps.
    """
    copy = np.array(matrix, dtype=np.complex128 if np.iscomplexobj(matrix) else np.float64, order="C")
    return _extremes(copy)


def _extremes(s: np.ndarray) -> ExtremalEigenvalues:
    """`extremal_eigenvalues` of one operator the package owns, checked, solved and
    certified in its own buffer, which is left overwritten; a complex `s` with a
    zero imaginary part gives way to a C-contiguous copy of its real part."""
    s = np.asarray(_real_part_if_real(s), order="C")
    # an exactly symmetric s equals its transpose, an F-contiguous view, which
    # numpy's wrappers copy into LAPACK's column-major buffer without a stride
    lapack = s.T if _check_hermitian(s) else s
    try:
        eigvals = np.linalg.eigvalsh(lapack)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(str(exc)) from exc
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise EigensolverError(f"non-finite extreme eigenvalue: lambda_min {lo!r}, lambda_max {hi!r}")
    norm = max(abs(lo), abs(hi))
    if norm == 0.0:
        return ExtremalEigenvalues(0.0, 0.0, 0.0)
    return ExtremalEigenvalues(lo, hi, _certificate(s, lapack, lo, hi, norm))


def _certificate(s: np.ndarray, lapack: np.ndarray, lo: float, hi: float, norm: float) -> float:
    """max ||S v - lambda v|| / ||S|| over lambda in (lo, hi), v from inverse
    iteration at each extreme; raises EigensolverError at the first residual
    above DEFAULT_EIG_TOL (NaN included).

    Everything runs on S scaled by the power of two 2^e that brings ||S||
    into [1/2, 1), exactly, so the shift cannot underflow and the solve
    cannot overflow. Each extreme gets at most _INVERSE_STEPS solves with S
    shifted eps ||S|| outside the spectrum there, starting from the fixed
    vector frac(k g) - 1/2 (g the golden ratio conjugate), so the result is
    deterministic. One step meets DEFAULT_EIG_TOL; while the residual is
    above it, the next step refines v, and a solve that meets an exactly
    zero pivot (the shift is an eigenvalue to working precision) is
    repeated with the shift doubled. `s`, C-contiguous, is scaled and shifted
    in place; each solve reads it as `lapack`, `s` or its transpose (a view of
    the same buffer), and restores its diagonal.
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
                x = np.linalg.solve(lapack, v)
            except np.linalg.LinAlgError as exc:
                failure = exc
                gap *= 2.0
                continue
            finally:
                diagonal[:] = saved
            v = x / np.linalg.norm(x)
            residual = float(np.linalg.norm(s @ v - lam * v)) / norm
            if not residual > DEFAULT_EIG_TOL:  # met, or NaN
                break
        if residual is None:
            raise EigensolverError(f"shifted solve failed at every shift: {failure}")
        if not residual <= DEFAULT_EIG_TOL:  # also NaN, which max() would drop: max(0.0, nan) is 0.0
            raise EigensolverError(f"residual {residual:.3e} exceeds tolerance {DEFAULT_EIG_TOL:.3e}")
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


def one_minus_products(values, gaps, rows) -> np.ndarray:
    """1 - |lambda_m||lambda_n| as g_m + g_n - g_m g_n for the window points m in
    `rows` (a slice or indices) against all n, from the modulus gaps g, accurate
    where the product itself rounds to 1: on a real window 1 - lambda_m lambda_n,
    2 minus it where the signs differ; on a complex one sign-free."""
    out = np.add.outer(gaps[rows], gaps)
    out -= np.multiply.outer(gaps[rows], gaps)
    if not np.iscomplexobj(values) and values.min() < 0.0:  # lambda_m lambda_n = -|...|
        negative = values < 0.0
        np.subtract(2.0, out, out=out, where=np.not_equal.outer(negative[rows], negative))
    return out


def one_minus_pow(gap, p: int):
    """1 - (1 - gap)**p without cancellation, for gap in [0, 1], integer p >= 0.

    This is the workhorse for quantities like 1 - |lambda|^(2N) when lambda
    sits too close to the unit circle for 1 - lambda to survive rounding.
    Elementwise over an array; a scalar gap is taken as a 0-d array.
    """
    p = operator.index(p)
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    x = np.array(gap, dtype=np.float64)  # a copy, worked in place
    if p == 0:
        return np.zeros_like(x)
    if p == 2:
        x *= 2.0 - x
    elif p > 2:
        with np.errstate(divide="ignore"):
            np.log1p(np.negative(x, out=x), out=x)
            x *= p
            np.negative(np.expm1(x, out=x), out=x)
    return x
