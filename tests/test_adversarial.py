import math

import pytest

from carleson_frames import (
    ConstantWeights,
    GeometricApproach,
    OrbitFrameOracle,
    OrbitSystem,
    OrthonormalBasisOracle,
    SearchBudgetExceededError,
    SubsampleScheme,
    build_adversarial_subsequence,
    estimate_subsequence_lower_bound,
    frame_bounds,
    reverify_certificate,
)

SYSTEM = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))
ORACLE = OrbitFrameOracle(SYSTEM)

# deterministic L = 6 run on the geometric(2) orbit oracle, frozen after an
# exhaustive smallest-index search
EXPECTED_PICKS = (0, 6, 33, 177, 443, 1064, 4968)
EXPECTED_WITNESSES = (3, 5, 7, 8, 9, 11)


def test_orbit_oracle_tail_energy_closed_form():
    # |m|^2 |lambda|^(2K) against brute partial sums of |<e_n, f_k>|^2
    for n in (1, 3, 7):
        for start in (0, 4, 20):
            brute = sum(abs(ORACLE.coefficient(n, k)) ** 2 for k in range(start, start + 4000))
            assert ORACLE.tail_energy(n, start) == pytest.approx(brute, rel=1e-12)


def test_orbit_oracle_tail_energy_monotone():
    values = [ORACLE.tail_energy(2, start) for start in range(0, 40, 5)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_orbit_oracle_matches_orbit_coefficient():
    assert ORACLE.coefficient(1, 0) == pytest.approx(math.sqrt(0.75), rel=1e-15)
    assert ORACLE.coefficient(2, 3) == pytest.approx(0.75**3 * math.sqrt(0.4375), rel=1e-14)


def test_initial_pick_threshold_is_inclusive():
    # tail_energy(1, 0) = 1 qualifies at threshold 1, so N_1 = 0
    cert = build_adversarial_subsequence(ORACLE, 1)
    assert cert.picked_indices[0] == 0
    assert cert.initial_tail == 1.0


def test_certificate_regression_and_structure():
    cert = build_adversarial_subsequence(ORACLE, 6)
    assert cert.picked_indices == EXPECTED_PICKS
    assert cert.witnesses == EXPECTED_WITNESSES
    assert len(cert.step_bounds) == 6
    assert list(cert.picked_indices) == sorted(set(cert.picked_indices))
    assert list(cert.witnesses) == sorted(set(cert.witnesses))
    for level, bound in enumerate(cert.step_bounds, start=1):
        assert bound <= 2.0 ** (-level)


def test_certificate_is_deterministic():
    first = build_adversarial_subsequence(ORACLE, 5)
    second = build_adversarial_subsequence(ORACLE, 5)
    assert first == second


def test_reverification_against_oracle_primitives():
    cert = build_adversarial_subsequence(ORACLE, 6)
    assert reverify_certificate(ORACLE, cert) <= 1e-12


def test_orthonormal_oracle_certificate():
    oracle = OrthonormalBasisOracle()
    cert = build_adversarial_subsequence(oracle, 6)
    # every pick escapes every earlier witness coordinate exactly
    assert cert.picked_indices == (0, 2, 4, 6, 8, 10, 12)
    assert cert.witnesses == (2, 4, 6, 8, 10, 12)
    assert cert.step_bounds == (0.0,) * 6
    assert reverify_certificate(oracle, cert) == 0.0


def test_budget_exhaustion_signals_bad_oracle():
    class FatTailOracle:
        def coefficient(self, basis_index, frame_index):
            return 1.0 + 0.0j

        def tail_energy(self, basis_index, start):
            return 1.0

    with pytest.raises(SearchBudgetExceededError):
        build_adversarial_subsequence(FatTailOracle(), 1, budget=50)


def test_input_validation():
    with pytest.raises(ValueError):
        build_adversarial_subsequence(ORACLE, 0)
    with pytest.raises(ValueError):
        estimate_subsequence_lower_bound(ORACLE, [], 10)


def test_estimate_full_prefix_reproduces_frame_bounds():
    dim = 8  # slowest coordinate (1-2^-8)^(2k): 4000 indices converge the tail
    estimate = estimate_subsequence_lower_bound(ORACLE, range(4000), dim)
    reference = frame_bounds(SYSTEM, SubsampleScheme(1, 0, 0), dim).a_est
    assert estimate == pytest.approx(reference, rel=1e-6)


def test_estimate_collapses_for_adversarial_family():
    cert = build_adversarial_subsequence(ORACLE, 6)
    dim = 12  # covers every witness coordinate
    assert max(cert.witnesses) <= dim
    for level in (3, 6):
        family = list(cert.picked_indices[:level]) + list(
            range(cert.picked_indices[level], cert.picked_indices[level] + 200)
        )
        estimate = estimate_subsequence_lower_bound(ORACLE, family, dim)
        # e_{j_level} witnesses the collapse, up to the finite tail sample
        assert estimate <= 2.0 ** (-level) + 1e-12


def test_estimate_picks_only_is_rank_deficient():
    cert = build_adversarial_subsequence(ORACLE, 6)
    estimate = estimate_subsequence_lower_bound(ORACLE, cert.picked_indices, 12)
    assert estimate <= 1e-12


def test_estimate_terms_cap():
    capped = estimate_subsequence_lower_bound(ORACLE, range(3), 10)
    assert capped <= 1e-12  # only 3 vectors cannot span 10 coordinates


def test_certificate_serialization():
    cert = build_adversarial_subsequence(ORACLE, 3)
    data = cert.to_jsonable()
    assert data["picked_indices"] == list(cert.picked_indices)
    assert len(data["steps"]) == 3
    assert data["steps"][0]["threshold"] == 0.5
