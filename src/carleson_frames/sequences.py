"""Eigenvalue sequences inside the unit disc and bounded weight sequences.

Sequences are immutable, indexed from k = 1, and evaluated lazily from
closed forms (no recurrences that accumulate rounding). Besides the point
value, every kind gives the modulus gap 1 - |lambda_k| in a
cancellation-free form; downstream code that must stay accurate while the
points crowd the unit circle works on gaps, not on the rounded values.

Each kind has one closed form, `_points`, over an array of 1-based indices.
`validate` evaluates it once into a read-only, checked window of arrays,
the one way values and gaps are read. Each kind fixes its length and its
flags when it is built: as class attributes, or once in `__post_init__` from
its list or its base. `increasing_positive` speaks of the points past any
window; the rest is read from the window. Weight kinds fix their bounds C1,
C2 the same way; `ExplicitWeights` takes them as `(values, c1, c2)`.
"""

import cmath
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import _real_part_if_real, complex_pow, compensated_sum, one_minus_pow


class InvariantViolation(ValueError):
    """A structural invariant (unit disc, weight bounds, hypotheses) is broken."""


def _finite_values(values, what: str) -> tuple:
    vals = tuple(complex(v) for v in values)
    if not vals:
        raise InvariantViolation(f"{what} must not be empty")
    if not all(map(cmath.isfinite, vals)):
        raise InvariantViolation(f"{what} values must be finite")
    return vals


def _first(mask: np.ndarray) -> int | None:
    """1-based index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) + 1 if hits.size else None


def _increasing_positive(values: np.ndarray, gaps: np.ndarray) -> bool:
    """Whether the listed points are real and positive with strictly
    increasing moduli, that is strictly decreasing modulus gaps."""
    return bool(not np.any(values.imag) and np.all(values.real > 0.0) and np.all(gaps[:-1] > gaps[1:]))


class LambdaSequence(ABC):
    """Abstract sequence {lambda_k}_{k>=1} strictly inside the open unit disc."""

    length = None  # number of evaluable indices; None when unbounded
    increasing_positive = False  # over the whole sequence: real positive points, moduli strictly increasing
    exact_values = False  # whether each value is its point; a computed power may underflow to 0

    @abstractmethod
    def _points(self, k: np.ndarray) -> tuple:
        """(values, gaps) at the 1-based indices k, unchecked: lambda_k as
        float64 or complex128 and the modulus gaps 1 - |lambda_k| as float64."""

    def ratio_certificate(self) -> float | None:
        """Analytic bound c with (1-|l_{k+1}|)/(1-|l_k|) <= c for *all* k, if known.

        Finite inspection can never provide this; only generator kinds with a
        closed form return a value, and only for a real positive sequence with
        strictly increasing moduli, where the ratio test is an equivalence.
        """
        return None

    def tail_modulus_gap_sum(self, k_start: int) -> float | None:
        """Closed-form upper bound on sum_{k>=k_start} (1 - |lambda_k|), if known."""
        if self.length is not None and k_start > self.length:
            return 0.0
        return None


@dataclass(frozen=True)
class GeometricApproach(LambdaSequence):
    """lambda_k = 1 - alpha**(-k) for alpha > 1.

    Always real, positive and strictly increasing; the gap ratio is exactly
    1/alpha at every index, which doubles as an analytic ratio certificate.
    """

    alpha: float
    increasing_positive = True

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or a <= 1.0:
            raise InvariantViolation("alpha must be a finite real > 1")
        object.__setattr__(self, "alpha", a)

    def _points(self, k):
        # Python's float power per element: np.power rounds some indices differently
        gaps = np.fromiter(map(self.alpha.__pow__, (-k).tolist()), np.float64, k.size)
        return 1.0 - gaps, gaps

    def ratio_certificate(self):
        return 1.0 / self.alpha

    def tail_modulus_gap_sum(self, k_start):
        # exact geometric tail: sum_{k>=k0} alpha^-k = alpha^-k0 * alpha/(alpha-1)
        return self.alpha ** (-k_start) * self.alpha / (self.alpha - 1.0)


@dataclass(frozen=True)
class ExplicitSequence(LambdaSequence):
    """Finite, explicitly listed sequence; `increasing_positive` comes from the list."""

    values: tuple
    exact_values = True

    def __post_init__(self):
        vals = _finite_values(self.values, "explicit sequence")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "length", len(vals))
        listed = self._points(np.arange(1, len(vals) + 1))
        object.__setattr__(self, "increasing_positive", _increasing_positive(*listed))

    def _points(self, k):
        values = np.array(self.values, dtype=np.complex128)[k - 1]
        return values, 1.0 - np.hypot(values.real, values.imag)  # hypot rounds like abs()

    def tail_modulus_gap_sum(self, k_start):
        return compensated_sum(1.0 - abs(v) for v in self.values[k_start - 1 :])


@dataclass(frozen=True)
class TwoPointAugmented(LambdaSequence):
    """Prepends the pair q, -q (q in (0,1)) to a base sequence.

    The augmented sequence is neither positive nor of strictly increasing
    moduli (|q| appears twice); q must avoid +-base_k, which `validate`
    checks on any finite window. Longer augmentations are built by nesting.
    """

    q: float
    base: LambdaSequence

    def __post_init__(self):
        q = float(self.q)
        if not 0.0 < q < 1.0:
            raise InvariantViolation("q must lie in (0, 1)")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "length", None if self.base.length is None else self.base.length + 2)
        object.__setattr__(self, "exact_values", self.base.exact_values)

    def _points(self, k):
        values, gaps = self.base._points(np.maximum(k - 2, 1))  # head entries replaced below
        head = k <= 2
        values = np.where(head, np.where(k == 1, self.q, -self.q), values)
        return values, np.where(head, 1.0 - self.q, gaps)


@dataclass(frozen=True)
class PowerSequence(LambdaSequence):
    """Entrywise power base_k**exponent, exponent >= 1.

    PowerSequence(s, 1) evaluates identically to s at every index. The power
    of an increasing positive base is increasing positive; the power of any
    other finite base is so if its powered points are.
    """

    base: LambdaSequence
    exponent: int

    def __post_init__(self):
        n = int(self.exponent)
        if n < 1:
            raise InvariantViolation("exponent must be a positive integer")
        object.__setattr__(self, "exponent", n)
        base = self.base
        object.__setattr__(self, "length", base.length)
        increasing = base.increasing_positive
        if not increasing and base.length is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # a point off the disc is validate's to refuse
                increasing = _increasing_positive(*self._points(np.arange(1, base.length + 1)))
        object.__setattr__(self, "increasing_positive", increasing)

    def _points(self, k):
        values, gaps = self.base._points(k)
        # 1 - |b^N| = 1 - |b|^N, from the base gap without cancellation
        return complex_pow(values, self.exponent), one_minus_pow(gaps, self.exponent)

    def tail_modulus_gap_sum(self, k_start):
        base_tail = self.base.tail_modulus_gap_sum(k_start)
        if base_tail is None:
            return None
        # 1 - x**N <= N (1 - x) on [0, 1]
        return self.exponent * base_tail


class Weights(ABC):
    """Scalar weights with certified bounds 0 < C1 <= |m_k| <= C2 < inf, which
    each kind fixes as its attributes `c1` and `c2` when it is built."""

    length = None  # number of evaluable indices; None when unbounded

    @abstractmethod
    def _values(self, k: np.ndarray) -> np.ndarray:
        """m_k at the 1-based indices k as float64 or complex128, unchecked."""

    def _checked(self, k: np.ndarray) -> tuple:
        """(m_k, |m_k|) at the 1-based indices k, after raising for the first one
        outside the certified bounds [C1, C2]; m_k is float64 where every one is real."""
        m = self._values(k)
        magnitudes = np.hypot(m.real, m.imag)  # rounds exactly like abs() of a Python complex
        bad = _first((magnitudes < self.c1) | (magnitudes > self.c2))
        if bad is not None:
            raise InvariantViolation(
                f"|m_{k[bad - 1]}| = {float(magnitudes[bad - 1])!r} breaches certified bounds "
                f"[{self.c1}, {self.c2}]"
            )
        return np.ascontiguousarray(_real_part_if_real(m)), magnitudes


@dataclass(frozen=True)
class ConstantWeights(Weights):
    """m_k = value for all k; C1 = C2 = |value|."""

    value: complex

    def __post_init__(self):
        (v,) = _finite_values((self.value,), "constant weight")
        if v == 0:
            raise InvariantViolation("constant weight must be nonzero")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "c1", abs(v))
        object.__setattr__(self, "c2", abs(v))

    def _values(self, k):
        return np.full(k.shape, self.value, dtype=np.complex128)


@dataclass(frozen=True)
class ExplicitWeights(Weights):
    """Finite weight list with caller-certified bounds; breaches surface on access."""

    values: tuple
    c1: float
    c2: float

    def __post_init__(self):
        vals = _finite_values(self.values, "explicit weights")
        c1, c2 = float(self.c1), float(self.c2)
        if not (0.0 < c1 <= c2 < math.inf):
            raise InvariantViolation("need 0 < C1 <= C2 < inf")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "length", len(vals))

    def _values(self, k):
        return np.array(self.values, dtype=np.complex128)[k - 1]


class ValidationReport(NamedTuple):
    """Read-only values and modulus gaps of the checked indices, and the first
    repeated pair (i, k), i < k, if any."""

    values: np.ndarray
    gaps: np.ndarray
    first_duplicate: tuple[int, int] | None


def validate(seq: LambdaSequence, n_max: int) -> ValidationReport:
    """Evaluate indices 1..n_max (capped at the length) once and check them:
    InvariantViolation at the first point outside the open disc; the first
    repeated pair is reported, not raised.

    Pure and idempotent. A window whose imaginary parts are all zero is real:
    it holds float64 values, whatever the kind. Its distinctness is decided on
    the modulus gaps and signs so that generator kinds stay resolvable far
    beyond the range where the values themselves round to 1.0, but on the
    values below modulus 1/2, where the gaps round. Real positive points of
    strictly decreasing gaps, as every increasing positive kind has, are
    distinct without a sort.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    limit = n_max if seq.length is None else min(n_max, seq.length)
    values, gaps = seq._points(np.arange(1, limit + 1))
    outside = _first(gaps <= 0.0)
    if outside is not None:
        raise InvariantViolation(f"|lambda_{outside}| >= 1 leaves the open unit disc")
    values = np.ascontiguousarray(_real_part_if_real(values))
    for array in (gaps, values):
        array.setflags(write=False)

    if _increasing_positive(values, gaps):
        first_dup = None  # strictly decreasing gaps of positive points: no sort needed
    else:
        # real keys in three spaces apart by their imaginary part: values below
        # modulus 1/2 (0j), else the modulus gaps of positive (1j) and negative (2j) points
        keys = values if np.iscomplexobj(values) else np.where(
            np.abs(values) < 0.5, values, gaps + np.where(values > 0.0, 1j, 2j)
        )
        if not seq.exact_values:  # a zero or subnormal value or gap may be rounded: it tells no points apart
            tiny = np.finfo(np.float64).tiny
            keys = np.where((np.abs(values) < tiny) | (gaps < tiny), np.nan, keys)
        _, first_seen, key_of = np.unique(keys, return_index=True, return_inverse=True, equal_nan=False)
        repeat = _first(first_seen[key_of] != np.arange(limit))
        first_dup = None if repeat is None else (int(first_seen[key_of[repeat - 1]]) + 1, repeat)
    return ValidationReport(values, gaps, first_dup)
