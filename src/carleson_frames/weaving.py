"""Weaving of the stride-N orbit subfamilies {T^(Nk+j) phi}, j = 0..N-1.

The defect of swapping offsets j_k into the reference family {T^(Nk) phi} is

    D(J) = sum_{k>=J} ||T^(Nk) phi - T^(Nk+j_k) phi||^2
         = sum_{k>=J} sum_n |c_n|^2 lambda_n^(2Nk) (1 - lambda_n^(j_k))^2,

finite for real positive strictly increasing eigenvalues and bounded by
(C2/C1)^2 ||phi||^2. Once D(J) drops below the reference family's lower
frame bound, the woven family

    {T^(Nk) phi}_{k<J}  u  {T^(Nk+j_k) phi}_{k>=J}

is itself a frame with lower bound at least (sqrt(A) - sqrt(D))^2, by the
standard frame perturbation bound; the same inequality holds verbatim in the
M-truncated model, which is what this module verifies numerically.
"""

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .numerics import compensated_sum, complex_pow, one_minus_pow
from .orbit import (
    DEFAULT_DIMENSION,
    DEFAULT_EIG_TOL,
    FrameBoundEstimate,
    OrbitSystem,
    bounds_from_matrix,
    phi_norm_squared,
    system_arrays,
    _progression_matrix,
)
from .sequences import InvariantViolation

DEFAULT_SAFETY = 0.5
DEFAULT_J_MAX = 10_000

_MASK64 = (1 << 64) - 1
_FALLBACK_SEED = 0x9E3779B97F4A7C15  # xorshift state must be nonzero


def _xorshift64(state: int) -> int:
    """One step of the 64-bit xorshift generator with triplet (13, 7, 17)."""
    state ^= (state << 13) & _MASK64
    state ^= state >> 7
    state ^= (state << 17) & _MASK64
    return state


@dataclass(frozen=True)
class WeavePattern:
    """Choice of offsets k -> j_k in {0, .., N-1} for a fixed stride N.

    With a `period` the offsets cycle: j_k = offsets[k % period], and the
    period is len(offsets). With period None the pattern has finite support:
    j_k = offsets[k] for k < len(offsets) and 0 beyond. Build patterns with
    ConstantPattern, PeriodicPattern, ExplicitPattern or SeededPattern.
    """

    stride: int
    offsets: tuple
    period: int | None

    def __post_init__(self):
        if self.stride < 1:
            raise InvariantViolation("stride N must be >= 1")
        offsets = tuple(int(j) for j in self.offsets)
        for j in offsets:
            if not 0 <= j < self.stride:
                raise InvariantViolation(f"offset {j} outside [0, {self.stride})")
        if self.period is not None and (not offsets or self.period != len(offsets)):
            raise InvariantViolation("a periodic pattern needs a nonempty cycle of length period")
        object.__setattr__(self, "offsets", offsets)

    def offset_at(self, k: int) -> int:
        if k < 0:
            raise IndexError("pattern indices start at 0")
        if self.period is not None:
            return self.offsets[k % self.period]
        return self.offsets[k] if k < len(self.offsets) else 0

    @property
    def max_offset(self) -> int:
        return max(self.offsets, default=0)


def ConstantPattern(stride: int, offset: int) -> WeavePattern:
    """j_k = offset for every k."""
    return WeavePattern(stride, (offset,), 1)


def PeriodicPattern(stride: int, cycle) -> WeavePattern:
    """j_k cycles through a fixed finite list."""
    cycle = tuple(cycle)
    return WeavePattern(stride, cycle, len(cycle))


def ExplicitPattern(stride: int, values) -> WeavePattern:
    """Finitely many explicit swaps; j_k = 0 beyond the list."""
    return WeavePattern(stride, values, None)


def SeededPattern(stride: int, seed: int, length: int) -> WeavePattern:
    """`length` pseudo-random offsets, 0 beyond; bit-reproducible by construction.

    The stream is the 64-bit xorshift generator with shift triplet
    (13, 7, 17), seeded with `seed` (a zero seed is remapped to a fixed
    nonzero constant), each output reduced modulo the stride.
    """
    if stride < 1:
        raise InvariantViolation("stride N must be >= 1")
    if length < 0:
        raise InvariantViolation("length must be nonnegative")
    state = int(seed) & _MASK64
    if state == 0:
        state = _FALLBACK_SEED
    produced = []
    for _ in range(length):
        state = _xorshift64(state)
        produced.append(state % stride)
    return WeavePattern(stride, tuple(produced), None)


class DefectPoint(NamedTuple):
    start_index: int
    value: float
    truncation_bound: float

    def to_jsonable(self) -> dict:
        return {
            "start_index": self.start_index,
            "value": self.value,
            "truncation_bound": self.truncation_bound
            if math.isfinite(self.truncation_bound)
            else "inf",
        }


def _require_weavable(system: OrbitSystem) -> None:
    seq = system.lambdas
    if not (seq.real_positive and seq.strictly_increasing_moduli):
        raise InvariantViolation(
            "weaving defect requires a real positive, strictly increasing sequence"
        )


def _coordinate_tail_bound(system: OrbitSystem, pattern: WeavePattern, dimension: int) -> float:
    """Bound on the defect mass carried by coordinates n > M.

    Per n the k-sum is at most (1-l^N)^2/(1-l^2N) <= 1, so the tail is at most
    sum_{n>M} |c_n|^2 <= 2 C2^2 sum_{n>M} (1-|lambda_n|). Identity patterns
    contribute nothing at any coordinate.
    """
    if pattern.max_offset == 0:
        return 0.0
    seq = system.lambdas
    if seq.length is not None and seq.length <= dimension:
        return 0.0
    tail = seq.tail_modulus_gap_sum(dimension + 1)
    if tail is None:
        return math.inf
    return 2.0 * system.weights.c2 ** 2 * tail


def tail_defect(
    system: OrbitSystem,
    pattern: WeavePattern,
    start_index: int,
    dimension: int = DEFAULT_DIMENSION,
):
    """(value, truncation_bound) for D(J) = sum_{k>=J} ||T^(Nk)phi - T^(Nk+j_k)phi||^2
    over the first `dimension` coordinates.

    Periodic patterns (constant ones included) are summed in closed form per
    residue class, finite-support patterns term by term; either way the k-sum
    is exact and the truncation bound covers only the coordinates beyond
    `dimension`.
    """
    if start_index < 0:
        raise ValueError("start index must be nonnegative")
    _require_weavable(system)
    arrays = system_arrays(system, dimension)
    stride = pattern.stride
    lam = arrays.lam.real
    gaps = arrays.gaps
    energy = (np.abs(arrays.weights) ** 2) * one_minus_pow(gaps, 2)  # |c_n|^2

    terms: list[float] = []
    if pattern.period is not None:
        period = pattern.period
        denominator = one_minus_pow(gaps, 2 * stride * period)
        for residue in range(period):
            offset = pattern.offsets[residue]
            if offset == 0:
                continue
            k0 = start_index + ((residue - start_index) % period)
            swap = one_minus_pow(gaps, offset)
            contribution = (
                energy * swap * swap * complex_pow(lam, 2 * stride * k0) / denominator
            )
            terms.extend(contribution.tolist())
    else:
        for k in range(start_index, len(pattern.offsets)):
            offset = pattern.offsets[k]
            if offset == 0:
                continue
            swap = one_minus_pow(gaps, offset)
            contribution = energy * swap * swap * complex_pow(lam, 2 * stride * k)
            terms.extend(contribution.tolist())
    value = compensated_sum(terms)
    return value, _coordinate_tail_bound(system, pattern, dimension)


def defect_upper_bound(system: OrbitSystem, dimension: int = DEFAULT_DIMENSION) -> float:
    """(C2/C1)^2 ||phi_M||^2 - the universal defect bound at truncation M."""
    ratio = system.weights.c2 / system.weights.c1
    return ratio * ratio * phi_norm_squared(system, dimension)


def woven_frame_operator(
    system: OrbitSystem,
    pattern: WeavePattern,
    start_index: int,
    dimension: int = DEFAULT_DIMENSION,
) -> np.ndarray:
    """Frame operator of {T^(Nk) phi}_{k<J} u {T^(Nk+j_k) phi}_{k>=J} on the
    first M coordinates, assembled from exact geometric-progression blocks."""
    if start_index < 0:
        raise ValueError("start index must be nonnegative")
    _require_weavable(system)
    arrays = system_arrays(system, dimension)
    stride = pattern.stride
    total = _progression_matrix(arrays, 0, stride)
    if pattern.period is not None:
        period = pattern.period
        # swap the whole k >= J tail: remove offset-0 classes, re-add as chosen
        total = total - _progression_matrix(arrays, stride * start_index, stride)
        for residue in range(period):
            k0 = start_index + ((residue - start_index) % period)
            total = total + _progression_matrix(
                arrays, stride * k0 + pattern.offsets[residue], stride * period
            )
    else:
        for k in range(start_index, len(pattern.offsets)):
            offset = pattern.offsets[k]
            if offset == 0:
                continue
            kept = arrays.phi * complex_pow(arrays.lam, stride * k + offset)
            removed = arrays.phi * complex_pow(arrays.lam, stride * k)
            total = total + np.outer(kept, kept.conj()) - np.outer(removed, removed.conj())
    return total


class WeavingSearchError(RuntimeError):
    """No start index within the search budget pushed the defect below the
    required fraction of the lower bound; carries the evaluated defect curve."""

    def __init__(self, message: str, sweep: tuple):
        super().__init__(message)
        self.sweep = sweep


@dataclass(frozen=True)
class WeavingResult:
    """Smallest certified weaving index plus the verification record."""

    start_index: int
    defect: float
    a_est_used: float
    safety: float
    predicted_lower_bound: float
    verified_bounds: FrameBoundEstimate
    sweep: tuple

    def to_jsonable(self) -> dict:
        return dict(asdict(self), sweep=[point.to_jsonable() for point in self.sweep])


def find_weaving_index(
    system: OrbitSystem,
    pattern: WeavePattern,
    a_est: float,
    safety: float = DEFAULT_SAFETY,
    dimension: int = DEFAULT_DIMENSION,
    j_max: int = DEFAULT_J_MAX,
    tol: float = DEFAULT_EIG_TOL,
) -> WeavingResult:
    """Smallest J with defect(J) < safety * a_est, then a direct verification.
    It stops at J = 0 when the coordinate tail bound alone reaches the threshold.

    a_est comes from a truncated model and over-estimates the true lower
    bound, hence the safety factor and the follow-up verification: the woven
    family's operator is assembled in closed form and its smallest eigenvalue
    reported next to the predicted (sqrt(A) - sqrt(D))^2.
    """
    if a_est <= 0.0:
        raise ValueError("a_est must be positive")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    threshold = safety * a_est
    sweep = []
    found = None
    for j in range(j_max + 1):
        value, bound = tail_defect(system, pattern, j, dimension)
        sweep.append(DefectPoint(j, value, bound))
        if value + bound < threshold:
            found = j
            break
        if bound >= threshold:  # the coordinate tail bound is the same for every J
            raise WeavingSearchError(
                f"coordinate tail bound {bound:.3e} beyond M={dimension} is not below "
                f"{threshold:.3e}, so no J can succeed",
                tuple(sweep),
            )
    if found is None:
        raise WeavingSearchError(
            f"defect never fell below {threshold:.3e} for J <= {j_max}", tuple(sweep)
        )
    defect = sweep[-1].value + sweep[-1].truncation_bound
    predicted = (math.sqrt(a_est) - math.sqrt(defect)) ** 2
    matrix = woven_frame_operator(system, pattern, found, dimension)
    verified = bounds_from_matrix(matrix, dimension, tol, scheme=None)
    return WeavingResult(
        start_index=found,
        defect=defect,
        a_est_used=a_est,
        safety=safety,
        predicted_lower_bound=predicted,
        verified_bounds=verified,
        sweep=tuple(sweep),
    )
