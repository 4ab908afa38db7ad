"""Certify or refute the Carleson interpolation condition at finite truncation.

The quantity of interest is inf_n P_n with

    P_n = prod_{k != n} |lambda_k - lambda_n| / |1 - conj(lambda_k) lambda_n|,

which can only be *estimated* from finitely many factors. Rigorous verdicts
therefore come from exactly three routes: an analytic gap-ratio certificate,
which only real positive sequences of strictly increasing moduli carry (there
the ratio test is an equivalence), that certificate on the tail under a
finite head of distinct prepended points (which keep the condition), or a
repeated point in the window. Everything else is Inconclusive - evidence is
never conflated with proof. The report's flags and `ratio_sup` read the window.
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
    gaps `gaps`, derivable only for the increasing positive kinds with
    closed-form gap tails."""
    length = seq.length
    if length is not None and k_trunc >= length:
        return [0.0] * gaps.size
    if seq.increasing_positive:
        tail = seq.tail_modulus_gap_sum(k_trunc + 1)
        if tail is not None:
            # 1 - factor <= (1-l_k)(1+l_n)/(1-l_n) for increasing positive points;
            # a subnormal gap gives inf, as Python floats do
            with np.errstate(over="ignore"):
                return ((2.0 - gaps) / gaps * tail).tolist()
    return [math.inf] * gaps.size


def _factor_block(window, n: np.ndarray) -> np.ndarray:
    """Factors |lambda_k - lambda_n| / |1 - conj(lambda_k) lambda_n| over the
    window, one row per n, with 1 at k = n (log(1) = 0 adds nothing). A real
    pair is |g_k - g_n| / `one_minus_products`, g the modulus gaps, but its
    numerator comes from the values if the signs differ (|lambda_k| + |lambda_n|)
    or a point lies below modulus 1/2 (the gaps round)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if not np.iscomplexobj(window.values):
            g, v, row_values = window.gaps, window.values, window.values[n - 1]
            difference = np.abs(np.subtract.outer(g[n - 1], g))
            if v.min() < 0.0:  # patched only here: run on every block, it cost 10 %
                mixed = np.not_equal.outer(row_values < 0.0, v < 0.0)
                np.abs(np.subtract.outer(row_values, v), out=difference, where=mixed)
            rows, columns = np.flatnonzero(np.abs(row_values) < 0.5), np.flatnonzero(np.abs(v) < 0.5)
            difference[rows] = np.abs(np.subtract.outer(row_values[rows], v))
            difference[:, columns] = np.abs(np.subtract.outer(row_values, v[columns]))
            factors = difference / one_minus_products(v, g, n - 1)
        else:
            re, im = window.values.real, window.values.imag
            a, b = re[n - 1, None], im[n - 1, None]
            factors = np.hypot(re - a, im - b) / np.hypot(1.0 - (re * a + im * b), re * b - im * a)
    factors[np.arange(n.size), n - 1] = 1.0
    return factors


def _products(seq: LambdaSequence, window, rows: range, k_trunc: int) -> tuple:
    """ProductEntry(n, P_n, tail_error) for each n in `rows`, P_n over the window.

    Real windows go through the modulus gaps and the shared pair term, which
    keeps the factors exact when the points crowd the circle; complex ones use
    the direct formula in real arithmetic that rounds like Python's complex
    numbers. A repeated point gives a zero factor, log 0 = -inf, hence P_n = 0.
    Rows are evaluated in blocks of at most _CHUNK_TERMS factors, so memory
    stays linear in the window length.
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
    values, gaps = window.values, window.gaps
    increasing = bool(np.all(gaps[:-1] > gaps[1:]))
    ratio_sup = float(np.max(gaps[1:] / gaps[:-1])) if increasing and gaps.size >= 2 else None
    parameters = {
        "n_max": n_max,
        "k_trunc": k_trunc,
        "real_positive": not np.iscomplexobj(values) and bool(np.all(values > 0.0)),
        "strictly_increasing_moduli": increasing,
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

