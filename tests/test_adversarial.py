import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleson_frames import (
    ConstantWeights,
    EigensolverError,
    ExplicitSequence,
    GeometricApproach,
    InvariantViolation,
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
from carleson_frames import orbit
from carleson_frames.adversarial import _family_operator, _smallest_index
from carleson_frames.reporting import canonical_json
from oracles import PerCallOrbitOracle

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
    # the witness qualifies at once, but the tail never falls to 1/4: the pick
    # search doubles its step up to the largest index a float holds and stops
    class FatTailOracle:
        calls = 0

        def coefficient(self, basis_index, frame_index):
            return 0.0j

        def tail_energy(self, basis_index, start):
            self.calls += 1
            return 1.0

    oracle = FatTailOracle()
    with pytest.raises(
        SearchBudgetExceededError, match=r"^no qualifying picked index among the 1\.798e\+308 indices from 1$"
    ):
        build_adversarial_subsequence(oracle, 1)
    assert 1000 < oracle.calls < 1100


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
    data = json.loads(canonical_json(cert))
    assert data["picked_indices"] == list(cert.picked_indices)
    assert len(data["steps"]) == 3
    assert data["steps"][0]["threshold"] == 0.5


# L = 12 certificates on the geometric orbit oracles, frozen from an
# exhaustive smallest-index search: (picked indices, witnesses) per alpha
PINNED_L12 = {
    1.8: (
        (0, 7, 35, 153, 343, 1336, 2806, 10391, 21043, 75757, 149999, 294545, 1033858),
        (4, 6, 8, 9, 11, 12, 14, 15, 17, 18, 19, 21),
    ),
    2.0: (
        (0, 6, 33, 177, 443, 1064, 4968, 11356, 25551, 56781, 124920, 545112, 1181077),
        (3, 5, 7, 8, 9, 11, 12, 13, 14, 15, 17, 18),
    ),
    2.1: (
        (0, 7, 42, 119, 312, 1651, 4046, 9711, 22943, 53535, 123667, 594955, 1353525),
        (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 16, 17),
    ),
    2.5: (
        (0, 11, 41, 135, 423, 1269, 3701, 10576, 29746, 82628, 227230, 619720, 1678412),
        (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
    ),
}


@pytest.mark.parametrize("alpha", sorted(PINNED_L12))
def test_orbit_certificates_pinned_up_to_l12(alpha):
    oracle = OrbitFrameOracle(OrbitSystem(GeometricApproach(alpha), ConstantWeights(1.0)))
    picks, witnesses = PINNED_L12[alpha]
    cert = build_adversarial_subsequence(oracle, 12)
    assert cert.picked_indices == picks
    assert cert.witnesses == witnesses
    assert reverify_certificate(oracle, cert) <= 1e-12


def test_deep_certificate_builds_and_reverifies():
    oracle = OrbitFrameOracle(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0)))
    cert = build_adversarial_subsequence(oracle, 30)
    assert len(cert.picked_indices) == 31
    assert cert.picked_indices[-1] == 1_476_614_058_018
    assert all(step.bound <= step.threshold for step in cert.steps)
    assert reverify_certificate(oracle, cert) <= 1e-12


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("levels", [20, 30, 40, 50, 60])
def test_deep_coefficient_sums_match_mpmath(alpha, levels):
    # each step's sum over the certificate's own picks and witness, at 80 digits:
    # sum_{i<=l} (1 - lambda_w^2) lambda_w^(2 N_i) with lambda_w = 1 - alpha^-w
    mpmath = pytest.importorskip("mpmath")
    oracle = OrbitFrameOracle(OrbitSystem(GeometricApproach(alpha), ConstantWeights(1.0)))
    cert = build_adversarial_subsequence(oracle, levels)
    with mpmath.workdps(80):
        for step in cert.steps:
            lam = 1 - mpmath.mpf(alpha) ** -step.witness
            exact = mpmath.fsum((1 - lam * lam) * lam ** (2 * pick) for pick in cert.picked_indices[: step.level])
            assert abs(step.coefficient_sum - exact) <= 1e-12 * exact, (step.level, step.coefficient_sum)
            assert step.bound <= step.threshold


def test_orbit_oracle_at_a_zero_point():
    # lambda_1 = 0: the coefficient is phi_1 = m_1 at k = 0 and 0 beyond, the
    # tail |m_1|^2 from start 0 and 0 beyond
    values = (0.0,) + tuple(1.0 - 2.0**-k for k in range(1, 60))
    oracle = OrbitFrameOracle(OrbitSystem(ExplicitSequence(values), ConstantWeights(0.75)))
    assert oracle.coefficient(1, 0) == 0.75
    assert oracle.tail_energy(1, 0) == 0.5625
    for k in (1, 2, 1000):
        assert oracle.coefficient(1, k) == 0.0
        assert oracle.tail_energy(1, k) == 0.0
    assert oracle.coefficient(2, 3) == pytest.approx(0.75 * 0.5**3 * math.sqrt(0.75), rel=1e-15)
    cert = build_adversarial_subsequence(oracle, 6)
    assert all(step.bound <= step.threshold for step in cert.steps)


@pytest.mark.parametrize("first", [1e-20, 1e-10])
def test_orbit_oracle_small_moduli_match_mpmath(first):
    # below modulus 1/2 the gap 1 - |lambda| rounds, to 1.0 at 1e-20, which
    # would read as lambda = 0: the log comes from |lambda| itself there
    mpmath = pytest.importorskip("mpmath")
    oracle = OrbitFrameOracle(OrbitSystem(ExplicitSequence((first, 0.5, 0.75)), ConstantWeights(1.0)))
    with mpmath.workdps(60):
        lam = mpmath.mpf(first)
        for k in (1, 3):
            tail, coefficient = lam ** (2 * k), mpmath.sqrt(1 - lam * lam) * lam**k
            assert abs(oracle.tail_energy(1, k) - tail) <= 1e-14 * tail
            assert abs(oracle.coefficient(1, k) - coefficient) <= 1e-14 * coefficient


def _linear_scan(predicate, start, budget):
    return next((n for n in range(start, start + budget) if predicate(n)), None)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=-5, max_value=3100),
)
def test_bisection_equals_linear_scan_on_monotone_predicates(start, budget, offset):
    first_true = start + offset
    calls = []

    def predicate(n):
        calls.append(n)
        return n >= first_true

    expected = _linear_scan(predicate, start, budget)
    calls.clear()
    if expected is None:
        with pytest.raises(SearchBudgetExceededError) as excinfo:
            _smallest_index(predicate, start, budget, "thing", monotone=True)
        assert str(excinfo.value) == f"no qualifying thing among the {budget:.4g} indices from {start}"
    else:
        assert _smallest_index(predicate, start, budget, "thing", monotone=True) == expected
    assert all(start <= n < start + budget for n in calls)
    assert len(calls) <= 2 * math.log2(budget) + 2


def test_bisection_budget_edges():
    start, budget = 17, 1000

    def at_least(edge):
        return lambda n: n >= edge

    assert _smallest_index(at_least(start + budget - 1), start, budget, "pick", monotone=True) == start + budget - 1
    with pytest.raises(SearchBudgetExceededError):
        _smallest_index(at_least(start + budget), start, budget, "pick", monotone=True)
    assert _smallest_index(at_least(0), start, budget, "pick", monotone=True) == start
    assert _smallest_index(at_least(0), start, 1, "pick", monotone=True) == start


def test_orbit_oracle_windows_grow_by_doubling(monkeypatch):
    builds = []
    original = orbit.validate

    def counting_validate(seq, n):
        builds.append(n)
        return original(seq, n)

    monkeypatch.setattr(orbit, "validate", counting_validate)
    dimension = 300
    # queries at growing basis indices build O(log d) windows
    oracle = OrbitFrameOracle(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0)))
    for j in range(1, dimension + 1):
        oracle.coefficient(j, 3)
        oracle.tail_energy(j, 5)
    assert builds == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    # the estimate reads each vector from coordinate d down, so a fresh oracle
    # builds one window of d points, and later queries reuse it
    builds.clear()
    oracle = OrbitFrameOracle(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0)))
    estimate_subsequence_lower_bound(oracle, (0, 6, 33), dimension)
    for j in range(1, dimension + 1):
        oracle.tail_energy(j, 5)
    assert builds == [300]


def test_orbit_oracle_bad_point_raises_only_from_its_index():
    # the sixth point repeats the fifth: windows past index 5 cannot validate
    values = (0.1, 0.2, 0.3, 0.4, 0.5, 0.5, 0.6, 0.7)
    oracle = OrbitFrameOracle(OrbitSystem(ExplicitSequence(values), ConstantWeights(1.0)))
    assert oracle.tail_energy(5, 2) == pytest.approx(0.5**4)
    assert oracle.coefficient(5, 1) == pytest.approx(0.5 * math.sqrt(0.75))
    with pytest.raises(InvariantViolation):
        oracle.tail_energy(6, 0)
    with pytest.raises(InvariantViolation):
        oracle.coefficient(7, 0)


def test_orbit_oracle_refuses_underflowed_coefficients():
    # |c_n|^2 = m^2 (1 - |lambda_n|^2) underflows to 0 at every n for m = 1e-162,
    # where each step bound would hold vacuously
    tiny = OrbitFrameOracle(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1e-162)))
    with pytest.raises(EigensolverError, match=r"^\|c_1\|\^2 underflows to 0 \(\|c_1\| = 8\.660e-163\)$"):
        build_adversarial_subsequence(tiny, 3)
    # at m = 1e-150 only coordinates past about n = 80 underflow: the first
    # window answers, and the window that reaches them raises
    small = OrbitFrameOracle(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1e-150)))
    assert small.tail_energy(1, 0) > 0.0
    with pytest.raises(EigensolverError, match="underflows to 0"):
        small.coefficient(100, 0)


@pytest.mark.parametrize(
    "value, shown", [(1.4e154, r"1\.400e\+154"), (1e155, r"1\.000e\+155")], ids=["1.4e154", "1e155"]
)
def test_orbit_oracle_refuses_overflowed_weights(value, shown):
    # |m_n|^2 overflows from |m_n| = 1.34e154 on, and |c_n|^2 too from about 1.55e154;
    # every tail would read inf or NaN
    huge = OrbitFrameOracle(OrbitSystem(GeometricApproach(2.0), ConstantWeights(value)))
    with pytest.raises(EigensolverError, match=rf"^\|m_1\|\^2 overflows \(\|m_1\| = {shown}\)$"):
        build_adversarial_subsequence(huge, 3)


def test_orbit_oracle_tail_at_the_float_range_matches_mpmath():
    # from start = 2^1023 on, 2 * start overflows to inf; the exponent doubles the log instead
    mpmath = pytest.importorskip("mpmath")
    oracle = OrbitFrameOracle(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1e154)))
    with mpmath.workdps(40):
        two = mpmath.mpf(2)
        exact = mpmath.mpf(1e154) ** 2 * mpmath.exp(2 * two**1023 * mpmath.log1p(-(two**-1027)))
    assert oracle.tail_energy(1027, 2**1023) == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    # no pick a float can hold brings the level-1 witness's tail below 2^-2: no certificate
    with pytest.raises(SearchBudgetExceededError, match=r"^no qualifying picked index among the 1\.798e\+308 indices"):
        build_adversarial_subsequence(oracle, 3)
    # at |m| = 1e152 the picks fit, and each step's tail is the true one (the last pick is past 2^1023)
    smaller = OrbitFrameOracle(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1e152)))
    certificate = build_adversarial_subsequence(smaller, 3)
    for step, pick in zip(certificate.steps, certificate.picked_indices[1:]):
        with mpmath.workdps(40):
            exact = mpmath.mpf(1e152) ** 2 * mpmath.exp(2 * pick * mpmath.log1p(-(two**-step.witness)))
        assert step.tail_value == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def _spiral(count=200, rho=0.9, theta=0.5):
    return ExplicitSequence(tuple((1.0 - 0.5 * rho**k) * cmath.exp(1j * theta * k) for k in range(1, count + 1)))


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


ORACLE_SEQUENCES = {
    **{f"geometric-{alpha}": (lambda a=alpha: GeometricApproach(a)) for alpha in (1.8, 2.0, 2.1, 2.5)},
    "complex-spiral": _spiral,
}


@pytest.mark.parametrize("name", sorted(ORACLE_SEQUENCES))
def test_orbit_oracle_is_bit_identical_to_per_call_queries(name):
    # separate systems: each side grows its own window
    levels, dimension = (12, 40) if name.startswith("geometric") else (6, 12)
    oracle = OrbitFrameOracle(OrbitSystem(ORACLE_SEQUENCES[name](), ConstantWeights(1.0)))
    reference = PerCallOrbitOracle(OrbitSystem(ORACLE_SEQUENCES[name](), ConstantWeights(1.0)))
    certificate = build_adversarial_subsequence(oracle, levels)
    assert canonical_json(certificate) == canonical_json(build_adversarial_subsequence(reference, levels))
    assert reverify_certificate(oracle, certificate) == reverify_certificate(reference, certificate)
    picks = certificate.picked_indices
    for j in range(1, dimension + 1):
        for k in picks + (0, 1, 7):
            assert _bits(oracle.coefficient(j, k)) == _bits(reference.coefficient(j, k))
            assert oracle.tail_energy(j, k).hex() == reference.tail_energy(j, k).hex()
    estimate = estimate_subsequence_lower_bound(oracle, picks, dimension)
    assert estimate.hex() == estimate_subsequence_lower_bound(reference, picks, dimension).hex()
    family = list(picks[:3]) + list(range(picks[3], picks[3] + 60))
    assert (estimate_subsequence_lower_bound(oracle, family, dimension).hex()
            == estimate_subsequence_lower_bound(reference, family, dimension).hex())


@pytest.mark.parametrize("name", ["geometric-2.0", "complex-spiral"])
def test_orbit_family_operator_rows_equal_per_call_vectors(name):
    oracle = OrbitFrameOracle(OrbitSystem(ORACLE_SEQUENCES[name](), ConstantWeights(0.75)))
    reference = PerCallOrbitOracle(OrbitSystem(ORACLE_SEQUENCES[name](), ConstantWeights(0.75)))
    family = [0, 3, 17, 400, 123456]
    fast, slow = _family_operator(oracle, family, 30), _family_operator(reference, family, 30)
    if name.startswith("geometric"):
        assert not np.any(slow.imag)
    assert fast.tobytes() == slow.tobytes()


def _raised(call):
    with pytest.raises((ValueError, IndexError)) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


@pytest.mark.parametrize(
    "query",
    [
        lambda o: o.coefficient(3, -1),
        lambda o: o.tail_energy(3, -1),
        lambda o: o.coefficient(0, 2),
        lambda o: o.tail_energy(0, 2),
        lambda o: o.coefficient(9, 0),  # past the explicit sequence
        lambda o: o.tail_energy(9, 0),
        lambda o: estimate_subsequence_lower_bound(o, [-1, 2], 4),
        lambda o: estimate_subsequence_lower_bound(o, [2, -1], 4),
        lambda o: estimate_subsequence_lower_bound(o, [0, 2], 9),
    ],
    ids=["coefficient-negative-k", "tail-negative-k", "coefficient-j-0", "tail-j-0", "coefficient-past-end",
         "tail-past-end", "estimate-negative-first", "estimate-negative-later", "estimate-past-end"],
)
def test_orbit_oracle_errors_equal_per_call_queries(query):
    def system():
        return OrbitSystem(ExplicitSequence((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)), ConstantWeights(1.0))

    oracle = OrbitFrameOracle(system())
    oracle.coefficient(2, 1)  # a held window first, so queries past it grow it
    reference = PerCallOrbitOracle(system())
    reference.coefficient(2, 1)
    assert _raised(lambda: query(oracle)) == _raised(lambda: query(reference))


def test_orbit_estimate_raises_as_its_window_like_per_call_queries():
    # a repeat at index 5 and a point outside the disc at index 7: the estimate
    # reads coordinate 8 first, so it raises what the window of all 8 points
    # raises, the disc check, where per-coordinate reads would meet the repeat
    def system():
        values = (0.1, 0.2, 0.3, 0.4, 0.3, 0.6, 1.5, 0.8)
        return OrbitSystem(ExplicitSequence(values), ConstantWeights(1.0))

    expected = _raised(lambda: orbit.system_arrays(system(), 8))
    assert expected[1] == "|lambda_7| >= 1 leaves the open unit disc"
    assert _raised(lambda: estimate_subsequence_lower_bound(PerCallOrbitOracle(system()), [0, 1], 8)) == expected
    assert _raised(lambda: estimate_subsequence_lower_bound(OrbitFrameOracle(system()), [0, 1], 8)) == expected
    # a system shorter than the estimate names the estimate's dimension
    short = OrbitSystem(ExplicitSequence(tuple(1.0 - 2.0**-k for k in range(1, 21))), ConstantWeights(1.0))
    with pytest.raises(IndexError, match=r"^sequence provides 20 < 300 entries$"):
        estimate_subsequence_lower_bound(OrbitFrameOracle(short), [0, 1], 300)
