"""Certify or refute the Carleson interpolation condition at finite truncation.

The quantity of interest is inf_n P_n with

    P_n = prod_{k != n} |lambda_k - lambda_n| / |1 - conj(lambda_k) lambda_n|,

which can only be *estimated* from finitely many factors. Rigorous verdicts
therefore come from exactly two routes: an analytic gap-ratio certificate on
real positive strictly increasing sequences (where the ratio test is an
equivalence), or an exact zero factor (repeated point). Everything else is
reported as Inconclusive - evidence is never conflated with proof.
"""

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .numerics import _row_blocks, compensated_sum, one_minus_products
from .sequences import LambdaSequence, drop_prefix, validate


class Verdict(Enum):
    CERTIFIED_HOLDS = "CertifiedHolds"
    CERTIFIED_FAILS = "CertifiedFails"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ProductEntry:
    n: int
    value: float
    tail_error: float


@dataclass(frozen=True)
class CarlesonReport:
    """Products, the heuristic infimum estimate, and a rigorous verdict.

    `inf_estimate` is the minimum over the *tested* n only; `verdict` is
    decided independently of it, per the certificate rules above. `n_drop`
    and `dropped_products` are None unless a prefix was dropped.
    """

    products: tuple
    inf_estimate: float
    ratio_sup: float | None
    certified_c: float | None
    verdict: Verdict
    parameters: dict = field(compare=False)
    dropped_products: tuple | None = None
    n_drop: int | None = None


def _tail_errors(seq: LambdaSequence, gaps: np.ndarray, k_trunc: int) -> list:
    """Bounds on sum_{k > k_trunc} (1 - factor_k) for the rows n with modulus
    gaps `gaps`, derivable only for the real positive strictly increasing
    kinds with closed-form gap tails."""
    length = seq.length
    if length is not None and k_trunc >= length:
        return [0.0] * gaps.size
    if seq.real_positive and seq.strictly_increasing_moduli:
        tail = seq.tail_modulus_gap_sum(k_trunc + 1)
        if tail is not None:
            # 1 - factor <= (1-l_k)(1+l_n)/(1-l_n) for increasing positive points;
            # a subnormal gap gives inf, as Python floats do
            with np.errstate(over="ignore"):
                return ((2.0 - gaps) / gaps * tail).tolist()
    return [math.inf] * gaps.size


def _factor_block(window, n: np.ndarray) -> np.ndarray:
    """Factors |lambda_k - lambda_n| / |1 - conj(lambda_k) lambda_n| over the
    window, one row per n, with 1 at k = n (log(1) = 0 adds nothing)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if window.signed_gaps is not None:
            s, anchor = window.signed_gaps, window.signed_gaps[n - 1]
            factors = np.abs(np.subtract.outer(anchor, s)) / one_minus_products(anchor, s)
        else:
            re, im = window.values.real, window.values.imag
            a, b = re[n - 1, None], im[n - 1, None]
            factors = np.hypot(re - a, im - b) / np.hypot(1.0 - (re * a + im * b), re * b - im * a)
    factors[np.arange(n.size), n - 1] = 1.0
    return factors


def _products(seq: LambdaSequence, window, rows: range, k_trunc: int) -> tuple:
    """ProductEntry(n, P_n, tail_error) for each n in `rows`, P_n over the window.

    Real sequences go through signed gaps, which keeps the factors exact when
    the points crowd the circle; complex ones use the direct formula in real
    arithmetic that rounds like Python's complex numbers. A repeated point
    gives a zero factor, log 0 = -inf, hence P_n = 0. Rows are evaluated in
    blocks of at most _CHUNK_TERMS factors, so memory stays linear in the
    window length.
    """
    values = []
    for block in _row_blocks(len(rows), window.gaps.size):
        factors = _factor_block(window, np.array(rows[block]))
        with np.errstate(divide="ignore"):
            logs = np.log(factors)
        values += [math.exp(compensated_sum(row.tolist())) for row in logs]
    tails = _tail_errors(seq, window.gaps[rows.start - 1 : rows.stop - 1], k_trunc)
    return tuple(map(ProductEntry, rows, values, tails))


def _verdict(entries, seq):
    if any(entry.value == 0.0 for entry in entries):
        return Verdict.CERTIFIED_FAILS
    certificate = seq.ratio_certificate()
    if (
        certificate is not None
        and certificate < 1.0
        and seq.real_positive
        and seq.strictly_increasing_moduli
    ):
        return Verdict.CERTIFIED_HOLDS
    return Verdict.INCONCLUSIVE


def carleson_inf_estimate(seq: LambdaSequence, n_max: int, k_trunc: int) -> CarlesonReport:
    """Assemble P_n for n = 1..n_max and decide the verdict.

    Entries are produced in increasing n; each product is summed in fixed
    index order, so reports are deterministic.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > k_trunc:
        raise ValueError("need n_max <= k_trunc")
    window = validate(seq, k_trunc)
    entries = _products(seq, window, range(1, min(n_max, window.gaps.size) + 1), k_trunc)
    inf_estimate = min(entry.value for entry in entries)
    ratio_sup = None
    if seq.strictly_increasing_moduli and window.gaps.size >= 2:
        ratio_sup = float(np.max(window.gaps[1:] / window.gaps[:-1]))
    parameters = {
        "n_max": n_max,
        "k_trunc": k_trunc,
        "real_positive": seq.real_positive,
        "strictly_increasing_moduli": seq.strictly_increasing_moduli,
    }
    return CarlesonReport(
        products=entries,
        inf_estimate=inf_estimate,
        ratio_sup=ratio_sup,
        certified_c=seq.ratio_certificate(),
        verdict=_verdict(entries, seq),
        parameters=parameters,
    )


def drop_prefix_check(seq: LambdaSequence, n_drop: int, n_max: int, k_trunc: int) -> CarlesonReport:
    """Analyze {lambda_k}_{k > n_drop} and propagate its verdict to the full
    sequence: a tail that certifiably satisfies the condition certifies the
    whole sequence, provided the dropped points stay distinct from everything.

    The report's products refer to the shifted sequence; the dropped indices'
    products over the full truncated sequence are reported separately.
    """
    if n_drop < 0:
        raise ValueError("n_drop must be nonnegative")
    if n_drop > k_trunc:
        raise ValueError("need n_drop <= k_trunc")
    if n_drop == 0:
        return carleson_inf_estimate(seq, n_max, k_trunc)
    tail_seq = drop_prefix(seq, n_drop)  # raises on empty remainder
    report = carleson_inf_estimate(tail_seq, n_max, k_trunc)
    window = validate(seq, k_trunc)
    dropped = _products(seq, window, range(1, n_drop + 1), k_trunc)
    verdict = report.verdict
    if any(entry.value == 0.0 for entry in dropped):
        verdict = Verdict.CERTIFIED_FAILS
    elif verdict is Verdict.CERTIFIED_HOLDS:
        # beyond the window the certified tail keeps increasing, so the prefix
        # stays distinct from it iff every dropped modulus is below the last
        # windowed modulus
        if not np.all(window.gaps[:n_drop] > window.gaps[-1]):
            verdict = Verdict.INCONCLUSIVE
    parameters = dict(report.parameters, n_drop=n_drop)
    return replace(
        report, verdict=verdict, parameters=parameters, dropped_products=dropped, n_drop=n_drop
    )
