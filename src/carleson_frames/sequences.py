"""Eigenvalue sequences inside the unit disc and bounded weight sequences.

Sequences are immutable, indexed from k = 1, and evaluated lazily from
closed forms (no recurrences that accumulate rounding). Besides the point
value, every kind gives the modulus gap 1 - |lambda_k| in a
cancellation-free form; downstream code that must stay accurate while the
points crowd the unit circle works on gaps, not on the rounded values.

Each kind has one closed form, `_points`, over an array of 1-based indices.
`validate` evaluates it once into a read-only, checked window of arrays,
the one way values and gaps are read. Each kind fixes its length and its
structural flags when it is built: as class attributes, or once in
`__post_init__` from its list or its base. Weight kinds fix their bounds C1,
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


class LambdaSequence(ABC):
    """Abstract sequence {lambda_k}_{k>=1} strictly inside the open unit disc."""

    length = None  # number of evaluable indices; None when unbounded
    is_real = real_positive = strictly_increasing_moduli = False
    exact_values = False  # whether each value is its point; a computed power may underflow to 0

    @abstractmethod
    def _points(self, k: np.ndarray) -> tuple:
        """(values, gaps) at the 1-based indices k, unchecked: lambda_k as
        float64 or complex128 and the modulus gaps 1 - |lambda_k| as float64."""

    def ratio_certificate(self) -> float | None:
        """Analytic bound c with (1-|l_{k+1}|)/(1-|l_k|) <= c for *all* k, if known.

        Finite inspection can never provide this; only generator kinds with a
        closed form return a value.
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
    is_real = real_positive = strictly_increasing_moduli = True

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
    """Finite, explicitly listed sequence; structural flags come from the list."""

    values: tuple
    exact_values = True

    def __post_init__(self):
        vals = _finite_values(self.values, "explicit sequence")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "length", len(vals))
        real = all(v.imag == 0.0 for v in vals)
        object.__setattr__(self, "is_real", real)
        object.__setattr__(self, "real_positive", real and all(v.real > 0.0 for v in vals))
        gaps = self._points(np.arange(1, len(vals) + 1))[1]
        object.__setattr__(self, "strictly_increasing_moduli", bool(np.all(gaps[:-1] > gaps[1:])))

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
        object.__setattr__(self, "is_real", self.base.is_real)
        object.__setattr__(self, "exact_values", self.base.exact_values)

    def _points(self, k):
        values, gaps = self.base._points(np.maximum(k - 2, 1))  # head entries replaced below
        head = k <= 2
        values = np.where(head, np.where(k == 1, self.q, -self.q), values)
        return values, np.where(head, 1.0 - self.q, gaps)


@dataclass(frozen=True)
class PowerSequence(LambdaSequence):
    """Entrywise power base_k**exponent, exponent >= 1.

    PowerSequence(s, 1) evaluates identically to s at every index. Even
    powers of real sequences are real positive even when the base is not.
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
        object.__setattr__(self, "is_real", base.is_real)
        object.__setattr__(self, "real_positive", base.real_positive or (base.is_real and n % 2 == 0))
        object.__setattr__(self, "strictly_increasing_moduli", base.strictly_increasing_moduli)

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

    def _checked(self, k: np.ndarray) -> np.ndarray:
        """m_k at the 1-based indices k, after raising for the first one
        outside the certified bounds [C1, C2]; float64 where every m_k is real."""
        m = self._values(k)
        magnitudes = np.hypot(m.real, m.imag)  # rounds exactly like abs() of a Python complex
        bad = _first((magnitudes < self.c1) | (magnitudes > self.c2))
        if bad is not None:
            raise InvariantViolation(
                f"|m_{k[bad - 1]}| = {float(magnitudes[bad - 1])!r} breaches certified bounds "
                f"[{self.c1}, {self.c2}]"
            )
        return np.ascontiguousarray(_real_part_if_real(m))


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
    """Read-only values, modulus gaps and (real windows) signed gaps 1 - lambda_k
    of the checked indices, and the first repeated pair (i, k), i < k, if any."""

    values: np.ndarray
    gaps: np.ndarray
    signed_gaps: np.ndarray | None
    first_duplicate: tuple[int, int] | None


def validate(seq: LambdaSequence, n_max: int) -> ValidationReport:
    """Evaluate indices 1..n_max (capped at the length) once and check them:
    InvariantViolation at the first point outside the open disc; the first
    repeated pair is reported, not raised.

    Pure and idempotent. A window whose imaginary parts are all zero is real:
    it holds float64 values and their signed gaps, whatever the kind. Its
    distinctness is decided on the modulus gaps and signs so that generator
    kinds stay resolvable far beyond the range where the values themselves
    round to 1.0, but on the values below modulus 1/2, where the gaps round.
    Strictly decreasing signed gaps, as every real positive kind has, prove
    distinctness without a sort.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    limit = n_max if seq.length is None else min(n_max, seq.length)
    values, gaps = seq._points(np.arange(1, limit + 1))
    outside = _first(gaps <= 0.0)
    if outside is not None:
        raise InvariantViolation(f"|lambda_{outside}| >= 1 leaves the open unit disc")
    values = np.ascontiguousarray(_real_part_if_real(values))
    signed = None if np.iscomplexobj(values) else np.where(values >= 0.0, gaps, 2.0 - gaps)
    for array in (gaps, values, signed):
        if array is not None:
            array.setflags(write=False)

    if signed is not None and np.all(signed[:-1] > signed[1:]):
        first_dup = None  # strictly decreasing keys are distinct: no sort needed
    else:
        # real keys in three spaces apart by their imaginary part: values below
        # modulus 1/2 (0j), else the modulus gaps of positive (1j) and negative (2j) points
        keys = values if signed is None else np.where(
            np.abs(values) < 0.5, values, gaps + np.where(values > 0.0, 1j, 2j)
        )
        if not seq.exact_values:  # a zero or subnormal value or gap may be rounded: it tells no points apart
            tiny = np.finfo(np.float64).tiny
            keys = np.where((np.abs(values) < tiny) | (gaps < tiny), np.nan, keys)
        _, first_seen, key_of = np.unique(keys, return_index=True, return_inverse=True, equal_nan=False)
        repeat = _first(first_seen[key_of] != np.arange(limit))
        first_dup = None if repeat is None else (int(first_seen[key_of[repeat - 1]]) + 1, repeat)
    return ValidationReport(values, gaps, signed, first_dup)
