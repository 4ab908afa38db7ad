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
import operator
from dataclasses import dataclass

import numpy as np

from .numerics import _row_blocks, compensated_sum, complex_pow_table, one_minus_pow
from .orbit import (
    DEFAULT_DIMENSION,
    FrameBoundEstimate,
    OrbitSystem,
    SubsampleScheme,
    _bounds,
    conjugate_by_powers,
    frame_bounds,
    phi_norm_squared,
    system_arrays,
    _progression_matrix,
)
from .sequences import InvariantViolation

DEFAULT_SAFETY = 0.5
DEFAULT_J_MAX = 10_000

_FIRST_BLOCK = 16  # J values in the first block of a curve walk
_UNITS_PER_ONE = 1 << 1074  # 2^-1074 units in 1.0
_FRACTION_MASK = (1 << 52) - 1

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


@dataclass(frozen=True)
class DefectPoint:
    start_index: int
    value: float
    truncation_bound: float


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


def _exact_row_sums(rows: np.ndarray) -> list:
    """The exact sum of each row of finite nonnegative floats, as an integer
    count of 2^-1074, the spacing of the subnormals; every double is a whole
    number of these units.

    Each entry, read from its bit fields, is a 53-bit integer shifted left by
    0 to 2045 bits; each row adds these as Python integers.
    """
    fields = rows.view(np.int64)  # the biased exponent and the fraction; -0.0 reads as 0
    biased = fields >> 52
    # a normal x is (2^52 + fraction) 2^(biased - 1) units, a subnormal fraction units
    units = (fields & _FRACTION_MASK) | ((biased > 0).astype(np.int64) << 52)
    shifts = np.maximum(biased - 1, 0)
    return [sum(map(operator.lshift, row, shift)) for row, shift in zip(units.tolist(), shifts.tolist())]


def defect_curve(
    system: OrbitSystem,
    pattern: WeavePattern,
    first: int,
    last: int,
    dimension: int = DEFAULT_DIMENSION,
):
    """([D(J) for J = first..last], truncation_bound), where
    D(J) = sum_{k>=J} ||T^(Nk)phi - T^(Nk+j_k)phi||^2 over the first
    `dimension` coordinates and the truncation bound, which does not depend
    on J, covers the coordinates beyond `dimension`.

    Each D(J) is the correctly rounded sum of its terms
    |c_n|^2 (1 - lambda_n^(j_k))^2 lambda_n^(2Nk), the k-sum being exact.
    A periodic pattern (constant ones included) sums each residue class in
    closed form, one row of P*M terms per J. A finite-support pattern
    computes one row of M terms per k once and takes exact suffix sums, so
    the whole curve costs O(len(offsets) * M).
    """
    if first < 0:
        raise ValueError("start index must be nonnegative")
    if last < first:
        raise ValueError("the curve needs last >= first")
    _require_weavable(system)
    arrays = system_arrays(system, dimension)
    two_n = 2 * pattern.stride
    lam = arrays.lam.real
    gaps = arrays.gaps
    energy = (np.abs(arrays.weights) ** 2) * one_minus_pow(gaps, 2)  # |c_n|^2
    count = last - first + 1
    bound = _coordinate_tail_bound(system, pattern, dimension)

    if pattern.period is not None:
        period = pattern.period
        denominator = one_minus_pow(gaps, two_n * period)
        residues = [r for r in range(period) if pattern.offsets[r]]
        terms = np.empty((count, len(residues), dimension))
        for column, residue in enumerate(residues):
            swap = one_minus_pow(gaps, pattern.offsets[residue])
            # k0 = the first k >= J in the residue class
            exponents = [two_n * (j + (residue - j) % period) for j in range(first, last + 1)]
            terms[:, column] = energy * swap * swap * complex_pow_table(lam, exponents) / denominator
        rows = terms.reshape(count, -1).tolist()
        return [compensated_sum(row) for row in rows], bound

    swapped = [k for k in range(first, len(pattern.offsets)) if pattern.offsets[k]]
    distinct, which = np.unique([pattern.offsets[k] for k in swapped], return_inverse=True)
    swaps = np.array([one_minus_pow(gaps, int(j)) for j in distinct]).reshape(len(distinct), dimension)
    row_sums = []
    for rows in _row_blocks(len(swapped), dimension):
        exponents = [two_n * k for k in swapped[rows]]
        swap = swaps[which[rows]]
        row_sums += _exact_row_sums(energy * swap * swap * complex_pow_table(lam, exponents))
    values = [0.0] * count  # D(J) = 0 from the end of the support on
    suffix, position = 0, len(swapped)
    for j in range(min(last, len(pattern.offsets) - 1), first - 1, -1):
        while position and swapped[position - 1] >= j:
            position -= 1
            suffix += row_sums[position]
        values[j - first] = suffix / _UNITS_PER_ONE
    return values, bound


def defect_points(
    system: OrbitSystem,
    pattern: WeavePattern,
    dimension: int = DEFAULT_DIMENSION,
    j_max: int = DEFAULT_J_MAX,
):
    """DefectPoint(J, D(J), truncation_bound) for J = 0, 1, .., j_max, read from
    `defect_curve` in blocks that double in length, so a caller that stops
    early pays for at most twice the points it read. A finite-support pattern
    is one block up to the end of its support, where D(J) reaches 0."""
    if pattern.period is None:
        rows, cap = len(pattern.offsets) + 1, math.inf
    else:
        cap = _row_blocks(1, pattern.period * dimension)[0].stop  # the rows of one block
        rows = min(_FIRST_BLOCK, cap)
    first = 0
    while first <= j_max:
        last = min(j_max, first + rows - 1)
        values, bound = defect_curve(system, pattern, first, last, dimension)
        for j, value in enumerate(values, start=first):
            yield DefectPoint(j, value, bound)
        first = last + 1
        rows = min(2 * rows, cap)


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
    total = _progression_matrix(arrays, stride)
    if pattern.period is not None:
        period = pattern.period
        # swap the whole k >= J tail: remove offset-0 classes, re-add as chosen;
        # every term is a congruence of the stride-N or the stride-NP base
        total -= conjugate_by_powers(total.copy(), arrays, stride * start_index)
        cycle = _progression_matrix(arrays, stride * period)
        for residue in range(period):
            k0 = start_index + ((residue - start_index) % period)
            total += conjugate_by_powers(cycle.copy(), arrays, stride * k0 + pattern.offsets[residue])
    else:
        # one row per swapped k: kept T^(Nk+j_k) phi, removed T^(Nk) phi
        swapped = [k for k in range(start_index, len(pattern.offsets)) if pattern.offsets[k]]
        phi = arrays.phi if np.any(arrays.phi.imag) else arrays.phi.real
        lam = arrays.lam.real
        for rows in _row_blocks(len(swapped), dimension):
            chunk = swapped[rows]
            kept = phi * complex_pow_table(lam, [stride * k + pattern.offsets[k] for k in chunk])
            removed = phi * complex_pow_table(lam, [stride * k for k in chunk])
            update = kept.T @ kept.conj()
            update -= removed.T @ removed.conj()
            total += update
    return total


class WeavingSearchError(RuntimeError):
    """No start index within the search budget pushed the defect below the
    required fraction of the lower bound; carries the stride-N reference
    bounds and the evaluated defect curve."""

    def __init__(self, message: str, reference_bounds: FrameBoundEstimate, sweep: tuple):
        super().__init__(message)
        self.reference_bounds = reference_bounds
        self.sweep = sweep


@dataclass(frozen=True)
class WeavingResult:
    """Smallest certified weaving index plus the verification record."""

    start_index: int
    defect: float
    a_est_used: float
    predicted_lower_bound: float
    verified_bounds: FrameBoundEstimate
    reference_bounds: FrameBoundEstimate
    sweep: tuple


def find_weaving_index(
    system: OrbitSystem,
    pattern: WeavePattern,
    dimension: int = DEFAULT_DIMENSION,
    j_max: int = DEFAULT_J_MAX,
) -> WeavingResult:
    """Smallest J with defect(J) < DEFAULT_SAFETY * A, then a direct verification.
    A is the `a_est` of the stride-N reference `frame_bounds(system,
    SubsampleScheme(N), dimension)`. The search ends before any J when A reads
    0, and at J = 0 when the coordinate tail bound alone reaches the threshold.

    A comes from a truncated model and over-estimates the true lower
    bound, hence the safety factor and the follow-up verification: the woven
    family's operator is assembled in closed form and its smallest eigenvalue
    reported next to the predicted (sqrt(A) - sqrt(D))^2.
    """
    reference = frame_bounds(system, SubsampleScheme(pattern.stride), dimension)
    a_est = reference.a_est
    if a_est <= 0.0:
        raise WeavingSearchError(
            f"reference A_est = {a_est!r} at M={dimension} is below the "
            "eigensolver's resolution, so no defect threshold can be set", reference, ()
        )
    threshold = DEFAULT_SAFETY * a_est
    sweep = []
    found = None
    for point in defect_points(system, pattern, dimension, j_max):
        sweep.append(point)
        if point.value + point.truncation_bound < threshold:
            found = point.start_index
            break
        if point.truncation_bound >= threshold:  # the same for every J
            raise WeavingSearchError(
                f"coordinate tail bound {point.truncation_bound:.3e} beyond M={dimension} is not "
                f"below {threshold:.3e}, so no J can succeed", reference, tuple(sweep)
            )
    if found is None:
        raise WeavingSearchError(
            f"defect never fell below {threshold:.3e} for J <= {j_max}", reference, tuple(sweep)
        )
    defect = sweep[-1].value + sweep[-1].truncation_bound
    predicted = (math.sqrt(a_est) - math.sqrt(defect)) ** 2
    verified = _bounds(woven_frame_operator(system, pattern, found, dimension))
    return WeavingResult(
        start_index=found,
        defect=defect,
        a_est_used=a_est,
        predicted_lower_bound=predicted,
        verified_bounds=verified,
        reference_bounds=reference,
        sweep=tuple(sweep),
    )
