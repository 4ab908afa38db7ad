"""Independent brute-force oracles used by the test suite.

Everything in here is written from the defining formulas with plain loops
and direct arithmetic - deliberately sharing no code path with the package,
so agreement between the two is meaningful evidence.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np


def rational_carleson_product(alpha: Fraction, n: int, k_trunc: int) -> float:
    """P_n for lambda_k = 1 - alpha^-k in exact rational arithmetic."""
    lam = [Fraction(0)] + [1 - alpha ** -k for k in range(1, k_trunc + 1)]
    product = Fraction(1)
    for k in range(1, k_trunc + 1):
        if k == n:
            continue
        product *= abs(lam[k] - lam[n]) / (1 - lam[k] * lam[n])
    return float(product)


def float_carleson_product(values, n: int) -> float:
    """Direct product over an explicit complex list (1-based index n)."""
    anchor = complex(values[n - 1])
    product = 1.0
    for k, value in enumerate(values, start=1):
        if k == n:
            continue
        value = complex(value)
        product *= abs(value - anchor) / abs(1.0 - value.conjugate() * anchor)
    return product


def mpmath_carleson_product(points, n: int, dps: int = 80) -> float:
    """P_n over a list of points (1-based index n), each factor
    |z_k - z_n| / |1 - conj(z_k) z_n| and their product in `dps`-digit
    arithmetic; points may be mpmath numbers or Python complex values."""
    import mpmath

    with mpmath.workdps(dps):
        z = [mpmath.mpmathify(p) for p in points]
        anchor = z[n - 1]
        product = mpmath.mpf(1)
        for k, value in enumerate(z, start=1):
            if k != n:
                product *= abs(value - anchor) / abs(1 - mpmath.conj(value) * anchor)
        return float(product)


def geometric_lambda(alpha: float, k: int) -> float:
    return 1.0 - alpha ** (-k)


def phi_coefficients(system, dimension: int) -> np.ndarray:
    """Generator coefficients c_n = m_n sqrt(1 - |lambda_n|^2), n = 1..dimension,
    as the package's validated window holds them."""
    from carleson_frames.orbit import system_arrays

    return system_arrays(system, dimension).phi.copy()


def brute_frame_operator(alpha, weights, dim, stride, offset, start, terms):
    """Sum of rank-one terms for {T^(stride*k+offset) phi}_{k>=start}, from the
    defining coefficient formula m_n lambda_n^p sqrt(1-lambda_n^2)."""
    lam = np.array([geometric_lambda(alpha, n) for n in range(1, dim + 1)])
    m = np.asarray([weights(n) for n in range(1, dim + 1)], dtype=complex)
    c = m * np.sqrt(1.0 - lam**2)
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(start, start + terms):
        p = stride * k + offset
        v = c * lam**p
        total += np.outer(v, v.conj())
    return total


class TruncatedFrameOperator(NamedTuple):
    """Brute-force partial sum plus an entrywise bound on the omitted tail."""

    matrix: np.ndarray
    tail_bound: np.ndarray


def frame_operator_bruteforce(system, scheme, dimension: int, terms: int) -> TruncatedFrameOperator:
    """Rank-one summation oracle for `frame_operator_matrix`, on the system's
    validated window.

    Sums k = K .. K+terms-1 and bounds the omitted entries by the geometric
    tail |c_m c_n| r^(j + N(K+terms)) / (1 - r^N) with r = |lambda_m lambda_n|.
    """
    from carleson_frames.numerics import complex_pow, one_minus_pow
    from carleson_frames.orbit import system_arrays

    if terms < 1:
        raise ValueError("terms must be >= 1")
    arrays = system_arrays(system, dimension)
    total = np.zeros((dimension, dimension), dtype=np.complex128)
    for k in range(scheme.start, scheme.start + terms):
        vector = arrays.phi * complex_pow(arrays.lam, scheme.exponent(k))
        total += np.outer(vector, vector.conj())
    moduli = np.abs(arrays.phi)
    r = np.abs(np.outer(arrays.lam, arrays.lam.conj()))
    h = np.add.outer(arrays.gaps, arrays.gaps) - np.outer(arrays.gaps, arrays.gaps)
    tail_exponent = scheme.exponent(scheme.start + terms)
    tail = np.outer(moduli, moduli) * complex_pow(r, tail_exponent) / one_minus_pow(h, scheme.stride)
    return TruncatedFrameOperator(total, tail)


def mpmath_frame_lower_bound(alpha, dim, stride, offset, start, dps=50):
    """Smallest eigenvalue of the M x M frame operator of
    {T^(stride*k+offset) phi}_{k>=start} with unit weights, in `dps`-digit
    arithmetic. Each entry is the geometric series
    sum_{k>=start} c_m c_n w^(stride*k+offset) = c_m c_n w^p / (1 - w^stride),
    w = lambda_m lambda_n, p = stride*start + offset, summed by hand."""
    import mpmath

    with mpmath.workdps(dps):
        lam = [1 - mpmath.mpf(alpha) ** (-n) for n in range(1, dim + 1)]
        c = [mpmath.sqrt(1 - v * v) for v in lam]
        first = stride * start + offset
        s = mpmath.matrix(dim, dim)
        for m in range(dim):
            for n in range(dim):
                w = lam[m] * lam[n]
                s[m, n] = c[m] * c[n] * w**first / (1 - w**stride)
        eigs = mpmath.eigsy(s, eigvals_only=True)
        return float(min(eigs))


def mpmath_frame_bounds(points, stride, dps=60):
    """(lambda_min, lambda_max) of the frame operator of {T^(stride*k) phi}_{k>=0}
    with unit weights over the listed float or complex points, each taken
    exactly, in `dps`-digit arithmetic: entries c_m conj(c_n) / (1 - w^stride),
    w = lambda_m conj(lambda_n), summed by hand."""
    import mpmath

    with mpmath.workdps(dps):
        lam = [mpmath.mpc(complex(z).real, complex(z).imag) for z in points]
        c = [mpmath.sqrt(1 - abs(v) ** 2) for v in lam]
        s = mpmath.matrix(len(lam), len(lam))
        for m, n in itertools.product(range(len(lam)), repeat=2):
            s[m, n] = c[m] * c[n] / (1 - (lam[m] * mpmath.conj(lam[n])) ** stride)
        if all(v.imag == 0 for v in lam):
            eigs = mpmath.eigsy(s.apply(mpmath.re), eigvals_only=True)
        else:
            eigs = mpmath.eighe(s, eigvals_only=True)
        return float(min(eigs)), float(max(eigs))


def offset_at(pattern, k: int) -> int:
    """The offset j_k of a weave pattern at k >= 0, from its definition:
    offsets[k % period] with a period, else offsets[k], and 0 past the list."""
    if pattern.period is not None:
        return pattern.offsets[k % pattern.period]
    return pattern.offsets[k] if k < len(pattern.offsets) else 0


def brute_defect_sum(alpha, dim, stride, offsets_at, start, k_terms):
    """Double sum sum_{k=start}^{start+k_terms-1} sum_{n<=dim} of the swap
    defect |c_n|^2 lambda_n^(2*stride*k) (1 - lambda_n^offset)^2."""
    lam = [geometric_lambda(alpha, n) for n in range(1, dim + 1)]
    c2 = [1.0 - v * v for v in lam]
    total = 0.0
    for k in range(start, start + k_terms):
        j = offsets_at(k)
        if j == 0:
            continue
        for n in range(dim):
            total += c2[n] * lam[n] ** (2 * stride * k) * (1.0 - lam[n] ** j) ** 2
    return total


def mpmath_tail_defect(point, dimension, weight, pattern, start, dps=60):
    """D(start) of constant weights `weight` over coordinates n = 1..dimension
    in `dps`-digit arithmetic, lambda_n = point(n) evaluated at that precision.
    The terms |c_n|^2 (1 - lambda_n^j)^2 lambda_n^(2Nk) are summed by hand over
    k >= start for a finite pattern, and per residue class in closed form, over
    1 - lambda_n^(2NP), for a periodic one."""
    import mpmath

    with mpmath.workdps(dps):
        two_n = 2 * pattern.stride
        total = mpmath.mpf(0)
        for n in range(1, dimension + 1):
            lam = point(n)
            energy = abs(mpmath.mpmathify(weight)) ** 2 * (1 - lam * lam)
            if pattern.period is None:
                for k in range(start, len(pattern.offsets)):
                    if pattern.offsets[k]:
                        total += energy * (1 - lam ** pattern.offsets[k]) ** 2 * lam ** (two_n * k)
                continue
            for residue, offset in enumerate(pattern.offsets):
                k0 = start + (residue - start) % pattern.period
                cycle = 1 - lam ** (two_n * pattern.period)
                total += energy * (1 - lam**offset) ** 2 * lam ** (two_n * k0) / cycle
        return total


def jacobi_extremal_eigenvalues(matrix, sweeps=40, tol=1e-14):
    """Cyclic complex Jacobi diagonalization; independent of LAPACK."""
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.max(np.abs(a - np.diag(np.diag(a)))) if n > 1 else 0.0
        scale = max(1.0, float(np.max(np.abs(np.diag(a).real))))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                phase = apq / abs(apq)
                app, aqq = a[p, p].real, a[q, q].real
                tau = (aqq - app) / (2.0 * abs(apq))
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                cos = 1.0 / math.hypot(1.0, t)
                sin = t * cos
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = cos * col_p - sin * np.conj(phase) * col_q
                a[:, q] = sin * col_p + cos * np.conj(phase) * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = cos * row_p - sin * phase * row_q
                a[q, :] = sin * row_p + cos * phase * row_q
    eigs = np.sort(np.diag(a).real)
    return float(eigs[0]), float(eigs[-1])


def xorshift64_reference(seed: int, count: int):
    """Reference implementation of the documented pattern generator stream."""
    mask = (1 << 64) - 1
    state = seed & mask
    if state == 0:
        state = 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        state ^= (state << 13) & mask
        state ^= state >> 7
        state ^= (state << 17) & mask
        out.append(state)
    return out


def log_rule_powers(arrays, exponents) -> np.ndarray:
    """lambda_n^p of real positive points as exp(p log lambda_n), one row per
    integer p >= 0, the log taken from lambda_n below 1/2 and as
    log1p(-gap_n) from 1/2 on; p = 0 reads 1."""
    lam = arrays.lam.real
    with np.errstate(divide="ignore"):
        logs = np.where(lam < 0.5, np.log(lam), np.log1p(-arrays.gaps))
    rows = [np.exp(p * logs) if p else np.ones_like(logs) for p in exponents]
    return np.array(rows).reshape(-1, lam.size)


def pointwise_tail_defect(system, pattern, start, dimension):
    """D(start) evaluated on its own, the way the curve's terms are defined:
    per residue class in closed form for a periodic pattern, term by term in
    k for a finite one, each term |c_n|^2 (1 - lambda_n^j)^2 lambda_n^(2Nk)
    with the power from `log_rule_powers`, and one `math.fsum` of them all."""
    from carleson_frames.numerics import one_minus_pow
    from carleson_frames.orbit import system_arrays

    arrays = system_arrays(system, dimension)
    gaps = arrays.gaps
    energy = (np.abs(arrays.weights) ** 2) * one_minus_pow(gaps, 2)
    two_n = 2 * pattern.stride
    terms = []
    if pattern.period is not None:
        period = pattern.period
        denominator = one_minus_pow(gaps, two_n * period)
        for residue, offset in enumerate(pattern.offsets):
            if offset:
                k0 = start + (residue - start) % period
                swap = one_minus_pow(gaps, offset)
                terms += (energy * swap * swap * log_rule_powers(arrays, [two_n * k0])[0] / denominator).tolist()
    else:
        for k in range(start, len(pattern.offsets)):
            if pattern.offsets[k]:
                swap = one_minus_pow(gaps, pattern.offsets[k])
                terms += (energy * swap * swap * log_rule_powers(arrays, [two_n * k])[0]).tolist()
    return math.fsum(terms)


def scalar_point(seq, k: int):
    """(lambda_k, 1 - |lambda_k|) from each sequence kind's scalar closed form,
    one index at a time in Python floats and complex numbers: powers by binary
    exponentiation, 1 - (1 - g)^p through `math.log1p` and `math.expm1`."""
    from carleson_frames.sequences import (
        ExplicitSequence,
        GeometricApproach,
        PowerSequence,
        TwoPointAugmented,
    )

    if isinstance(seq, GeometricApproach):
        gap = seq.alpha ** (-k)
        return complex(1.0 - gap), gap
    if isinstance(seq, ExplicitSequence):
        value = seq.values[k - 1]
        return value, 1.0 - abs(value)
    if isinstance(seq, TwoPointAugmented):
        if k <= 2:
            return complex(seq.q if k == 1 else -seq.q), 1.0 - seq.q
        return scalar_point(seq.base, k - 2)
    if isinstance(seq, PowerSequence):
        value, gap = scalar_point(seq.base, k)
        p = seq.exponent
        power, square = None, value
        while True:
            if p & 1:
                power = square if power is None else power * square
            p >>= 1
            if not p:
                break
            square = square * square
        p = seq.exponent
        if p == 1:
            return power, gap
        if p == 2:
            return power, gap * (2.0 - gap)
        return power, 1.0 if gap >= 1.0 else -math.expm1(p * math.log1p(-gap))
    raise TypeError(f"no scalar closed form for {type(seq).__name__}")


class PerCallOrbitOracle:
    """The orbit oracle answered one query at a time from the validated window
    of the first j coordinates, as scalars: <e_j, f_k> = phi_j |lambda_j|^k u_j^k
    in Python complex arithmetic, with |lambda_j|^k = exp(k log|lambda_j|) and
    the phase u_j = lambda_j / |lambda_j|, and |m_j|^2 exp(2K log|lambda_j|) for
    the tail, the log taken as log(1 - gap_j), or from |lambda_j| below 1/2; no
    point may be 0. Estimates built on it go through the per-coordinate family
    operator."""

    def __init__(self, system):
        self.system = system

    def coefficient(self, basis_index, frame_index):
        from carleson_frames.numerics import complex_pow
        from carleson_frames.orbit import system_arrays

        if frame_index < 0:
            raise IndexError("frame indices start at 0")
        arrays = system_arrays(self.system, basis_index)
        lam = complex(arrays.lam[basis_index - 1])
        modulus = math.exp(frame_index * _log_modulus(arrays, basis_index))
        return complex(arrays.phi[basis_index - 1]) * modulus * complex_pow(lam / abs(lam), frame_index)

    def tail_energy(self, basis_index, start):
        from carleson_frames.orbit import system_arrays

        if start < 0:
            raise IndexError("frame indices start at 0")
        arrays = system_arrays(self.system, basis_index)
        weight = abs(complex(arrays.weights[basis_index - 1]))
        return weight * weight * math.exp(start * (2.0 * _log_modulus(arrays, basis_index)))


def _log_modulus(arrays, basis_index):
    modulus = abs(complex(arrays.lam[basis_index - 1]))
    return math.log(modulus) if modulus < 0.5 else math.log1p(-float(arrays.gaps[basis_index - 1]))


def first_duplicate_by_sort(keys):
    """(i, j), 1-based, for the first index j whose key equals an earlier one,
    i the first index holding that key, or None: read from `np.unique`, which
    sorts the keys."""
    _, first_seen, key_of = np.unique(keys, return_index=True, return_inverse=True, equal_nan=False)
    repeats = np.flatnonzero(first_seen[key_of] != np.arange(len(keys)))
    if not repeats.size:
        return None
    return int(first_seen[key_of[repeats[0]]]) + 1, int(repeats[0]) + 1


def row_strip_hermitian_check(a, rows_per_block):
    """The Hermitian check as one loop over row strips of `rows_per_block`
    rows, each strip's upper part, from the diagonal on, read against the
    strided columns it mirrors; raises what `numerics._check_hermitian`
    raises, with the same message."""
    from carleson_frames.numerics import EigensolverError, NonHermitianError

    eps = np.finfo(np.float64).eps
    moduli, deviations = [], []
    with np.errstate(invalid="ignore"):
        for low in range(0, a.shape[0], rows_per_block):
            rows = slice(low, low + rows_per_block)
            moduli.append(np.abs(a[rows]).max())
            deviations.append(np.abs(a[rows, low:] - a[low:, rows].conj().T).max())
    scale = float(np.max(moduli))
    if not math.isfinite(scale):
        raise EigensolverError(f"matrix has a non-finite entry (largest modulus {scale!r})")
    deviation = float(np.max(deviations))
    if deviation > 4.0 * eps * max(scale, np.finfo(np.float64).tiny):
        raise NonHermitianError(f"hermitian deviation {deviation:.3e} exceeds 4 ulps of scale {scale:.3e}")
