"""Certify or refute the Carleson interpolation condition at finite truncation.

The quantity of interest is inf_n P_n with

    P_n = prod_{k != n} |lambda_k - lambda_n| / |1 - conj(lambda_k) lambda_n|,

which can only be *estimated* from finitely many factors. Rigorous verdicts
therefore come from exactly three routes: an analytic gap-ratio certificate on
real positive strictly increasing sequences (where the ratio test is an
equivalence), that certificate on the tail under a finite head of distinct
prepended points (which keep the condition), or a repeated point in the
window. Everything else is reported as Inconclusive - evidence is never
conflated with proof.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import _row_blocks, compensated_sum, one_minus_products
from .sequences import LambdaSequence, PowerSequence, TwoPointAugmented, validate


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
    decided independently of it, per the certificate rules above;
    `certified_c` is the ratio certificate of the sequence's tail.
    """

    products: tuple
    inf_estimate: float
    ratio_sup: float | None
    certified_c: float | None
    verdict: Verdict
    parameters: dict = field(compare=False)


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
    window, one row per n, with 1 at k = n (log(1) = 0 adds nothing). Real
    pairs read signed gaps s = 1 - lambda, but two negative points their
    modulus gaps (2 - g rounds), and a pair with a point below modulus 1/2
    its values (the gaps round)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if window.signed_gaps is not None:
            s, g, v = window.signed_gaps, window.gaps, window.values
            difference, pair = np.abs(np.subtract.outer(s[n - 1], s)), one_minus_products(s[n - 1], s)
            # patched in place: a where() over the whole block took 1.6-1.9x as long
            rows, columns = np.flatnonzero(v[n - 1] < 0.0), np.flatnonzero(v < 0.0)
            block, a, b = np.ix_(rows, columns), g[n - 1][rows], g[columns]
            difference[block], pair[block] = np.abs(np.subtract.outer(a, b)), one_minus_products(a, b)
            rows, columns = np.flatnonzero(np.abs(v[n - 1]) < 0.5), np.flatnonzero(np.abs(v) < 0.5)
            difference[rows] = np.abs(np.subtract.outer(v[n - 1][rows], v))
            difference[:, columns] = np.abs(np.subtract.outer(v[n - 1], v[columns]))
            factors = difference / pair
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


def _verdict(window, head: int, tail: LambdaSequence) -> Verdict:
    if window.first_duplicate is not None:
        return Verdict.CERTIFIED_FAILS
    certificate = tail.ratio_certificate()
    if (
        certificate is not None
        and certificate < 1.0
        and tail.real_positive
        and tail.strictly_increasing_moduli
        and window.gaps.size > head
        # past the window the tail's moduli only grow, so no later point can
        # meet a head point whose modulus is below the last windowed one
        and np.all(window.gaps[:head] > window.gaps[-1])
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
    # the head: the points TwoPointAugmented layers prepend; PowerSequence(s, 1) evaluates as s
    head, tail = 0, seq
    while isinstance(tail, TwoPointAugmented) or (isinstance(tail, PowerSequence) and tail.exponent == 1):
        head += 2 if isinstance(tail, TwoPointAugmented) else 0
        tail = tail.base
    return CarlesonReport(
        products=entries,
        inf_estimate=inf_estimate,
        ratio_sup=ratio_sup,
        certified_c=tail.ratio_certificate(),
        verdict=_verdict(window, head, tail),
        parameters=parameters,
    )

