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
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .numerics import DEFAULT_EIG_TOL, complex_pow, compensated_sum
from .orbit import OrbitSystem, _bounds, system_arrays

DEFAULT_SEARCH_BUDGET = 10**6


class FrameOracle(Protocol):
    """Frame {f_k}_{k>=0} seen through an orthonormal basis {e_j}_{j>=1}."""

    def coefficient(self, basis_index: int, frame_index: int) -> complex:
        """<e_j, f_k> for basis index j >= 1 and frame index k >= 0."""
        ...

    def tail_energy(self, basis_index: int, start: int) -> float:
        """sum_{k>=start} |<e_j, f_k>|^2, exact or a certified upper bound;
        nonincreasing in `start` and -> 0 (the Bessel property)."""
        ...


@dataclass(frozen=True)
class OrbitFrameOracle:
    """Oracle for the orbit frame {T^k phi}_{k>=0} of an orbit system.

    coefficient(j, k) = m_j lambda_j^k sqrt(1 - |lambda_j|^2) and the tails
    sum to |m_j|^2 |lambda_j|^(2K) by geometric summation; both closed forms
    stay accurate deep into the basis via modulus gaps. A query at basis
    index j reads the validated window of the first j coordinates, which
    grows by doubling (see `system_arrays`).
    """

    system: OrbitSystem

    def coefficient(self, basis_index: int, frame_index: int) -> complex:
        if frame_index < 0:
            raise IndexError("frame indices start at 0")
        arrays = system_arrays(self.system, basis_index)
        lam = complex(arrays.lam[basis_index - 1])
        return complex(arrays.phi[basis_index - 1]) * complex_pow(lam, frame_index)

    def tail_energy(self, basis_index: int, start: int) -> float:
        if start < 0:
            raise IndexError("frame indices start at 0")
        arrays = system_arrays(self.system, basis_index)
        gap = float(arrays.gaps[basis_index - 1])
        weight = abs(complex(arrays.weights[basis_index - 1]))
        # |lambda|^(2K) = exp(2K log(1 - gap)), stable for any K
        return weight * weight * math.exp(2.0 * start * math.log1p(-gap))


@dataclass(frozen=True)
class OrthonormalBasisOracle:
    """The frame f_k = e_{k+1}: coefficient(j, k) = delta_{j, k+1}."""

    def coefficient(self, basis_index: int, frame_index: int) -> complex:
        return 1.0 + 0.0j if basis_index == frame_index + 1 else 0.0 + 0.0j

    def tail_energy(self, basis_index: int, start: int) -> float:
        return 1.0 if basis_index - 1 >= start else 0.0


class SearchBudgetExceededError(RuntimeError):
    """No qualifying index within the budget - a non-Bessel oracle or a budget
    too small; the construction itself can never fail mathematically."""


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
    search_budget: int


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
    raise SearchBudgetExceededError(
        f"no qualifying {what} within budget {budget} (starting at {start})"
    )


def build_adversarial_subsequence(
    oracle: FrameOracle, levels: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> AdversarialCertificate:
    """Run the inductive construction down to level `levels`.

    Step 0 picks the smallest N_1 with tail_energy(1, N_1) <= 1; step l picks
    the smallest witness j_l > j_{l-1} with sum_{i<=l} |<e_{j_l}, f_{N_i}>|^2
    <= 2^-(l+1), then the smallest N_{l+1} > N_l with
    tail_energy(j_l, N_{l+1}) <= 2^-(l+1).

    Each search covers `budget` consecutive indices from its start. The
    picks rely on tail_energy being nonincreasing and are found by
    bisection; the witness condition is not monotone, so witnesses are
    tried one by one.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    first = _smallest_index(
        lambda n: oracle.tail_energy(1, n) <= 1.0,
        start=0,
        budget=budget,
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
            budget=budget,
            what="witness coordinate",
        )
        coefficient_sum = witness_energy(witness)
        next_pick = _smallest_index(
            lambda n: oracle.tail_energy(witness, n) <= half_threshold,
            start=picks[-1] + 1,
            budget=budget,
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
        search_budget=budget,
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


def estimate_subsequence_lower_bound(
    oracle: FrameOracle,
    indices,
    dimension: int,
    tol: float = DEFAULT_EIG_TOL,
) -> float:
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
    return _bounds(_family_operator(oracle, index_list, dimension), tol).a_est


def _family_operator(oracle: FrameOracle, index_list, dimension: int) -> np.ndarray:
    """sum_k f_k f_k^* over {f_k : k in index_list}, on basis coordinates 1..dimension."""
    operator = np.zeros((dimension, dimension), dtype=np.complex128)
    coordinates = range(1, dimension + 1)
    for frame_index in index_list:
        vector = np.array([oracle.coefficient(j, frame_index) for j in coordinates], dtype=np.complex128)
        operator += np.outer(vector, vector.conj())
    return operator
