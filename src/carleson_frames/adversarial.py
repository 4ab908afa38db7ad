"""Adversarial subsequences: no frame of an infinite-dimensional space keeps
the frame property under every infinite subsampling.

Given any frame {f_k}_{k>=0} with computable coefficients <e_j, f_k> and
certified Bessel tails sum_{k>=K} |<e_j, f_k>|^2, the inductive construction
picks indices N_1 < N_2 < ... and witness coordinates j_1 < j_2 < ... so that

    sum_{i<=l} |<e_{j_l}, f_{N_i}>|^2  +  sum_{k>=N_{l+1}} |<e_{j_l}, f_k>|^2  <=  2^-l.

Since e_{j_l} is a unit vector, 2^-l bounds the lower frame bound of
{f_{N_1}, .., f_{N_l}} u {f_k}_{k>=N_{l+1}} - and the picked subsequence sits
inside that family for every l, so its lower bound collapses to zero.
Tie-breaking is always "smallest qualifying index", which makes certificates
deterministic and reproducible.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

import numpy as np

from .numerics import EigensolverError, SearchBudgetExceededError, complex_pow, compensated_sum
from .orbit import OrbitSystem, _bounds, system_arrays

_FLOAT_INDICES = int(sys.float_info.max)  # the largest index a float can hold
_WITNESS_CAP = 10**6  # witness candidates tried past the previous witness


class FrameOracle(Protocol):
    """Frame {f_k}_{k>=0} seen through an orthonormal basis {e_j}_{j>=1}."""

    def coefficient(self, basis_index: int, frame_index: int) -> complex:
        """<e_j, f_k> for basis index j >= 1 and frame index k >= 0."""
        ...

    def tail_energy(self, basis_index: int, start: int) -> float:
        """sum_{k>=start} |<e_j, f_k>|^2, exact or a certified upper bound;
        nonincreasing in `start` and -> 0 (the Bessel property)."""
        ...


class _HeldCoordinates(NamedTuple):
    """The held window of an orbit system as Python numbers, 0-based."""

    phi: list
    log_moduli: list  # log|lambda_j|: from |lambda_j| below 1/2, else log1p(-g_j); -inf at 0
    phases: list  # u_j = lambda_j / |lambda_j|, 1 at lambda_j = 0
    moduli: list  # |m_j|
    refused: float  # the first index j whose |m_j|^2 overflows or |c_j|^2 underflows, inf if none
    refusal: str  # what went wrong there


@dataclass(frozen=True)
class OrbitFrameOracle:
    """Oracle for the orbit frame {T^k phi}_{k>=0} of an orbit system.

    coefficient(j, k) = c_j |lambda_j|^k u_j^k, c_j = m_j sqrt(1 - |lambda_j|^2),
    with the phase u_j = lambda_j / |lambda_j| (exactly 1 for real positive
    points), and the tails sum to |m_j|^2 exp(K (2 log|lambda_j|)), where 2K
    could overflow. Both read |lambda_j|^k as exp(k log|lambda_j|), accurate at
    any index a float can hold (a power of the rounded lambda_j loses k eps),
    the log as log1p(-g_j) from the modulus gap, or from |lambda_j| below 1/2,
    where the gap rounds; at lambda_j = 0, index 0 reads as 1. A query at
    basis index j reads the validated window of the first j coordinates,
    which grows by doubling (see `system_arrays`); the oracle converts it to
    Python numbers, logs and phases once per growth. A query at or past the
    first index n whose |c_n|^2 underflows to 0, or whose |m_n|^2 overflows,
    raises EigensolverError; one before it is answered.
    """

    system: OrbitSystem
    _held: _HeldCoordinates | None = field(default=None, init=False, repr=False, compare=False)

    def _coordinates(self, basis_index: int) -> _HeldCoordinates:
        held = self._held
        if held is None or not 0 < basis_index <= len(held.phi):
            system_arrays(self.system, basis_index)  # grows the system's window, or raises
            window = self.system._window
            # an inf |m_n|^2 makes every tail inf or NaN; each |c_n| is squared only before it
            # abs() of each: np.abs of a complex array rounds up to 2 ulps apart from it
            weights = np.fromiter(map(abs, window.weights.tolist()), np.float64, window.weights.size)
            huge = np.flatnonzero(weights > math.sqrt(sys.float_info.max))
            end = int(huge[0]) if huge.size else weights.size
            refusal = f"|m_{end + 1}|^2 overflows (|m_{end + 1}| = {weights[end]:.3e})" if huge.size else ""
            # c_n = m_n sqrt(1 - |lambda_n|^2) is never 0, so |c_n|^2 = 0 is underflow,
            # which would make every bound that reads it hold vacuously
            moduli = np.abs(window.phi[:end])
            lost = np.flatnonzero(moduli * moduli == 0.0)
            if lost.size:
                end = int(lost[0])
                refusal = f"|c_{end + 1}|^2 underflows to 0 (|c_{end + 1}| = {moduli[end]:.3e})"
            held = _HeldCoordinates(
                window.phi.tolist(),
                [math.log(m) if 0.0 < m < 0.5 else math.log1p(-g) if g < 1.0 else -math.inf
                 for m, g in zip(np.abs(window.lam).tolist(), window.gaps.tolist())],
                [z / abs(z) if z else 1.0 for z in window.lam.tolist()],  # x / |x| is exactly 1 for x > 0
                weights.tolist(),
                end + 1 if refusal else math.inf, refusal,
            )
            object.__setattr__(self, "_held", held)
        if basis_index >= held.refused:
            raise EigensolverError(held.refusal)
        return held

    def coefficient(self, basis_index: int, frame_index: int) -> complex:
        if frame_index < 0:
            raise IndexError("frame indices start at 0")
        held = self._coordinates(basis_index)
        i = basis_index - 1
        modulus = math.exp(frame_index * held.log_moduli[i]) if frame_index else 1.0  # not 0 * -inf
        return held.phi[i] * modulus * complex_pow(held.phases[i], frame_index)

    def tail_energy(self, basis_index: int, start: int) -> float:
        if start < 0:
            raise IndexError("frame indices start at 0")
        held = self._coordinates(basis_index)
        weight = held.moduli[basis_index - 1]
        return weight * weight * (math.exp(start * (2.0 * held.log_moduli[basis_index - 1])) if start else 1.0)


@dataclass(frozen=True)
class OrthonormalBasisOracle:
    """The frame f_k = e_{k+1}: coefficient(j, k) = delta_{j, k+1}."""

    def coefficient(self, basis_index: int, frame_index: int) -> complex:
        return 1.0 + 0.0j if basis_index == frame_index + 1 else 0.0 + 0.0j

    def tail_energy(self, basis_index: int, start: int) -> float:
        return 1.0 if basis_index - 1 >= start else 0.0


@dataclass(frozen=True)
class AdversarialStep:
    level: int
    witness: int
    coefficient_sum: float
    tail_value: float
    bound: float
    threshold: float


@dataclass(frozen=True)
class AdversarialCertificate:
    """Finite prefix of the inductive construction.

    picked_indices has levels+1 entries N_1 < .. < N_{L+1}; step_bounds[l-1]
    certifies that the lower frame bound of any family containing
    {f_{N_1}, .., f_{N_l}} u {f_k}_{k >= N_{l+1}} is at most 2^-l.
    """

    picked_indices: tuple
    witnesses: tuple
    step_bounds: tuple
    steps: tuple
    initial_tail: float


def _smallest_index(predicate, start: int, budget: int, what: str, monotone: bool = False) -> int:
    """Smallest index in [start, start + budget) that satisfies `predicate`.

    A `monotone` predicate stays true from its first true index on, so the
    index is found by an exponential search followed by bisection, in about
    2 log2(index - start) calls; otherwise every index is tried in turn.
    """
    end = start + budget
    if not monotone:
        for candidate in range(start, end):
            if predicate(candidate):
                return candidate
    else:
        below, step = start - 1, 1  # predicate(below) is false, or below precedes the range
        while below < end - 1:
            probe = min(below + step, end - 1)
            if predicate(probe):
                above = probe  # the first true index lies in (below, above]
                while above - below > 1:
                    middle = (below + above) // 2
                    if predicate(middle):
                        above = middle
                    else:
                        below = middle
                return above
            below, step = probe, 2 * step
    raise SearchBudgetExceededError(f"no qualifying {what} among the {budget:.4g} indices from {start}")


def build_adversarial_subsequence(oracle: FrameOracle, levels: int) -> AdversarialCertificate:
    """Run the inductive construction down to level `levels`.

    Step 0 picks the smallest N_1 with tail_energy(1, N_1) <= 1; step l picks
    the smallest witness j_l > j_{l-1} with sum_{i<=l} |<e_{j_l}, f_{N_i}>|^2
    <= 2^-(l+1), then the smallest N_{l+1} > N_l with
    tail_energy(j_l, N_{l+1}) <= 2^-(l+1).

    The picks rely on tail_energy being nonincreasing and are found by
    bisection up to the largest index a float can hold, in about 2 log2(pick)
    oracle calls; the witness condition is not monotone, so witnesses are
    tried one by one, at most 10^6 past the previous one.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")

    first = _smallest_index(
        lambda n: oracle.tail_energy(1, n) <= 1.0,
        start=0,
        budget=_FLOAT_INDICES + 1,
        what="initial index",
        monotone=True,
    )
    picks = [first]
    witnesses = []
    steps = []
    previous_witness = 1
    for level in range(1, levels + 1):
        half_threshold = 2.0 ** (-level - 1)

        def witness_energy(j):
            return compensated_sum(abs(oracle.coefficient(j, pick)) ** 2 for pick in picks)

        witness = _smallest_index(
            lambda j: witness_energy(j) <= half_threshold,
            start=previous_witness + 1,
            budget=_WITNESS_CAP,
            what="witness coordinate",
        )
        coefficient_sum = witness_energy(witness)
        next_pick = _smallest_index(
            lambda n: oracle.tail_energy(witness, n) <= half_threshold,
            start=picks[-1] + 1,
            budget=_FLOAT_INDICES - picks[-1],
            what="picked index",
            monotone=True,
        )
        tail_value = oracle.tail_energy(witness, next_pick)
        steps.append(
            AdversarialStep(
                level=level,
                witness=witness,
                coefficient_sum=coefficient_sum,
                tail_value=tail_value,
                bound=coefficient_sum + tail_value,
                threshold=2.0 ** (-level),
            )
        )
        witnesses.append(witness)
        picks.append(next_pick)
        previous_witness = witness

    return AdversarialCertificate(
        picked_indices=tuple(picks),
        witnesses=tuple(witnesses),
        step_bounds=tuple(step.bound for step in steps),
        steps=tuple(steps),
        initial_tail=oracle.tail_energy(1, first),
    )


def reverify_certificate(oracle: FrameOracle, certificate: AdversarialCertificate) -> float:
    """Recompute every step bound from oracle primitives (plain summation);
    returns the largest absolute deviation from the recorded values."""
    deviation = 0.0
    for position, step in enumerate(certificate.steps):
        prefix = certificate.picked_indices[: step.level]
        coefficient_sum = sum(abs(oracle.coefficient(step.witness, pick)) ** 2 for pick in prefix)
        tail = oracle.tail_energy(step.witness, certificate.picked_indices[step.level])
        deviation = max(
            deviation,
            abs(coefficient_sum - step.coefficient_sum),
            abs(tail - step.tail_value),
            abs(coefficient_sum + tail - certificate.step_bounds[position]),
        )
    return deviation


def estimate_subsequence_lower_bound(oracle: FrameOracle, indices, dimension: int) -> float:
    """Smallest eigenvalue of the truncated frame operator of {f_k : k in indices}
    over basis coordinates 1..dimension.

    This over-estimates the family's lower bound on the truncated space; for
    adversarial picks it collapses toward zero.
    """
    index_list = list(indices)
    if not index_list:
        raise ValueError("index family must not be empty")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return _bounds(_family_operator(oracle, index_list, dimension)).a_est


def _family_operator(oracle: FrameOracle, index_list, dimension: int) -> np.ndarray:
    """sum_k f_k f_k^* over {f_k : k in index_list}, on basis coordinates 1..dimension,
    each f_k read from coordinate `dimension` down: an orbit oracle builds one window."""
    operator = np.zeros((dimension, dimension), dtype=np.complex128)
    for k in index_list:
        vector = np.array([oracle.coefficient(j, k) for j in range(dimension, 0, -1)], dtype=np.complex128)[::-1]
        operator += np.outer(vector, vector.conj())
    return operator
