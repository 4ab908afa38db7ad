import dataclasses
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleson_frames import (
    ConstantPattern,
    ConstantWeights,
    ExplicitPattern,
    ExplicitSequence,
    ExplicitWeights,
    GeometricApproach,
    InvariantViolation,
    OrbitSystem,
    PeriodicPattern,
    PowerSequence,
    SeededPattern,
    SubsampleScheme,
    TwoPointAugmented,
    WeavingSearchError,
    defect_points,
    defect_upper_bound,
    find_weaving_index,
    frame_bounds,
    frame_operator_matrix,
    phi_norm_squared,
    woven_frame_operator,
)
from carleson_frames import cli, numerics, weaving
from carleson_frames.numerics import complex_pow
from carleson_frames.orbit import _progression_matrix, _stride_window, conjugate_by_powers, system_arrays
from carleson_frames.reporting import canonical_json
from carleson_frames.weaving import _coordinate_tail_bound, _exact_row_sums
from oracles import (
    brute_defect_sum,
    log_rule_powers,
    mpmath_tail_defect,
    offset_at,
    pointwise_tail_defect,
    xorshift64_reference,
)

SYSTEM = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))


def _curve(system, pattern, last, dimension):
    """([D(J) for J = 0..last], truncation_bound), read from one walk; the
    walk yields J = 0..last in order with one truncation bound."""
    points = list(defect_points(system, pattern, dimension, last))
    assert [point.start_index for point in points] == list(range(last + 1))
    (bound,) = {point.truncation_bound for point in points}
    return [point.value for point in points], bound


def test_pattern_offsets_and_validation():
    assert offset_at(ConstantPattern(3, 2), 17) == 2
    assert offset_at(PeriodicPattern(2, (0, 1)), 5) == 1
    explicit = ExplicitPattern(2, (1, 0, 1))
    assert offset_at(explicit, 2) == 1
    assert offset_at(explicit, 3) == 0  # identity beyond the listed swaps
    with pytest.raises(InvariantViolation):
        ConstantPattern(2, 2)
    with pytest.raises(InvariantViolation):
        PeriodicPattern(2, ())
    with pytest.raises(InvariantViolation):
        SeededPattern(2, 1, -1)
    with pytest.raises(InvariantViolation):
        SeededPattern(0, 1, 4)  # checked before the stream is reduced mod N
    # every constructor builds the one value type
    assert PeriodicPattern(3, (2,)) == ConstantPattern(3, 2)


def test_seeded_pattern_is_bit_reproducible():
    pattern = SeededPattern(3, 42, 16)
    reference = [s % 3 for s in xorshift64_reference(42, 16)]
    assert list(pattern.offsets) == reference
    assert pattern.offsets == SeededPattern(3, 42, 16).offsets
    # frozen stream for seed 42, stride 2 (pins the documented generator)
    assert SeededPattern(2, 42, 16).offsets == (0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1)


def test_zero_seed_is_remapped():
    assert SeededPattern(2, 0, 8).offsets == SeededPattern(2, 0, 8).offsets
    assert any(SeededPattern(5, 0, 16).offsets)


def test_identity_pattern_has_zero_defect():
    values, bound = _curve(SYSTEM, ConstantPattern(2, 0), 10, 40)
    for start in (0, 3, 10):
        assert values[start] == 0.0
        assert bound == 0.0


def test_defect_requires_positive_increasing_sequence():
    mixed = OrbitSystem(TwoPointAugmented(0.3, GeometricApproach(2.0)), ConstantWeights(1.0))
    with pytest.raises(InvariantViolation):
        _curve(mixed, ConstantPattern(2, 1), 0, 10)


def test_constant_defect_matches_brute_double_sum():
    # 12 coordinates: 50000 terms drive the slowest mode (1-2^-12)^(4k)
    # below 1e-16, so the plain double sum is a converged oracle
    (value,), _ = _curve(SYSTEM, ConstantPattern(2, 1), 0, 12)
    oracle = brute_defect_sum(2.0, 12, 2, lambda k: 1, 0, 50_000)
    assert value == pytest.approx(oracle, rel=1e-11)
    (value40,), bound40 = _curve(SYSTEM, ConstantPattern(2, 1), 0, 40)
    assert value40 <= 5.0 / 3.0  # universal bound for unit weights
    assert bound40 <= 1e-11


def test_seeded_defect_matches_brute_double_sum():
    pattern = SeededPattern(3, 42, 64)
    value = _curve(SYSTEM, pattern, 5, 40)[0][5]
    oracle = brute_defect_sum(2.0, 40, 3, lambda k: offset_at(pattern, k), 5, 64)
    assert value == pytest.approx(oracle, rel=1e-12)


def test_periodic_defect_matches_brute_double_sum():
    pattern = PeriodicPattern(3, (1, 0, 2))
    value = _curve(SYSTEM, pattern, 2, 12)[0][2]
    oracle = brute_defect_sum(2.0, 12, 3, lambda k: offset_at(pattern, k), 2, 40_000)
    assert value == pytest.approx(oracle, rel=1e-11)


def test_defect_monotone_decreasing_in_start():
    values, _ = _curve(SYSTEM, ConstantPattern(2, 1), 10, 40)
    assert values[0] > values[5] > values[10]


def test_defect_vanishes_along_grid():
    previous = math.inf
    values, bound = _curve(SYSTEM, ConstantPattern(2, 1), 20000, 40)
    for j in (0, 1, 2, 5, 10, 20, 100, 400, 4000, 20000):
        assert values[j] + bound <= previous + 1e-18
        previous = values[j] + bound
    # the deep coordinates drain polynomially (the n-th mode dies only once
    # J >> 2^n), so the decay is steady rather than geometric
    assert previous < 1e-9


def test_defect_never_exceeds_universal_bound():
    for stride, pattern in (
        (2, ConstantPattern(2, 1)),
        (3, SeededPattern(3, 42, 128)),
        (3, PeriodicPattern(3, (2, 1))),
    ):
        (value,), bound = _curve(SYSTEM, pattern, 0, 40)
        assert value <= defect_upper_bound(SYSTEM, 40) + bound


def test_defect_upper_bound_values():
    assert defect_upper_bound(SYSTEM, 40) == pytest.approx(phi_norm_squared(SYSTEM, 40), rel=1e-15)
    assert defect_upper_bound(SYSTEM, 40) == pytest.approx(5.0 / 3.0, abs=1e-10)
    wide = OrbitSystem(
        GeometricApproach(2.0), ExplicitWeights(tuple([1.0] * 40), 1.0, 2.0)
    )
    assert defect_upper_bound(wide, 40) == pytest.approx(4.0 * phi_norm_squared(wide, 40), rel=1e-15)


def test_woven_operator_identity_pattern_is_reference():
    reference = frame_operator_matrix(SYSTEM, SubsampleScheme(2, 0, 0), 20)
    woven = woven_frame_operator(SYSTEM, ConstantPattern(2, 0), 7, 20)
    assert np.max(np.abs(woven - reference)) <= 1e-13


def test_woven_operator_constant_at_zero_is_offset_scheme():
    woven = woven_frame_operator(SYSTEM, ConstantPattern(3, 2), 0, 20)
    offset_scheme = frame_operator_matrix(SYSTEM, SubsampleScheme(3, 2, 0), 20)
    assert np.max(np.abs(woven - offset_scheme)) <= 1e-13


@pytest.mark.parametrize("dimension", [5, 40, 200])
@pytest.mark.parametrize("stride", [2, 3, 5])
def test_woven_operator_swapping_every_k_is_the_offset_one_scheme_bit_for_bit(stride, dimension):
    # (S - S) + D S D: reproduce-paper's J = 0 probe reads frame_bounds of (N, 1, 0)
    woven = woven_frame_operator(SYSTEM, ConstantPattern(stride, 1), 0, dimension)
    scheme = frame_operator_matrix(SYSTEM, SubsampleScheme(stride, 1), dimension)
    assert (woven.dtype, woven.tobytes()) == (scheme.dtype, scheme.tobytes())


def test_woven_operator_periodic_consistency():
    # a periodic pattern with a constant cycle must agree with the constant kind
    constant = woven_frame_operator(SYSTEM, ConstantPattern(2, 1), 4, 24)
    periodic = woven_frame_operator(SYSTEM, PeriodicPattern(2, (1, 1)), 4, 24)
    assert np.max(np.abs(constant - periodic)) <= 1e-12


def test_woven_operator_finite_vs_periodic_prefix():
    # an explicit pattern long enough to cover the decayed tail approximates
    # its periodic counterpart up to the removed tail mass
    length = 160
    explicit = woven_frame_operator(SYSTEM, ExplicitPattern(2, (1,) * length), 0, 16)
    constant = woven_frame_operator(SYSTEM, ConstantPattern(2, 1), 0, 16)
    lam_max = 1.0 - 2.0**-16
    tail_mass = lam_max ** (2 * 2 * length) / (1.0 - lam_max**4)
    assert np.max(np.abs(explicit - constant)) <= 4.0 * tail_mass


def _reference(system, stride, dimension):
    return frame_bounds(system, SubsampleScheme(stride), dimension)


def test_find_weaving_index_identity_pattern():
    result = find_weaving_index(SYSTEM, ConstantPattern(2, 0))
    reference = _reference(SYSTEM, 2, 40)
    assert result.reference_bounds == reference
    assert result.start_index == 0
    assert result.defect == 0.0
    assert result.predicted_lower_bound == pytest.approx(reference.a_est, rel=1e-15)


@pytest.mark.parametrize("stride,expected_j", [(2, 84), (3, 57)])
def test_find_weaving_index_regression(stride, expected_j):
    result = find_weaving_index(SYSTEM, ConstantPattern(stride, 1), 40)
    assert result.reference_bounds == _reference(SYSTEM, stride, 40)
    a_est = result.reference_bounds.a_est
    assert result.start_index == expected_j
    assert result.defect < 0.5 * a_est
    # minimality: one step earlier the defect must still be too large
    values, bound = _curve(SYSTEM, ConstantPattern(stride, 1), expected_j - 1, 40)
    assert values[-1] + bound >= 0.5 * a_est


def test_weaving_result_verifies_perturbation_bound():
    result = find_weaving_index(SYSTEM, ConstantPattern(2, 1), 40)
    a_est = result.reference_bounds.a_est
    predicted = (math.sqrt(a_est) - math.sqrt(result.defect)) ** 2
    assert result.predicted_lower_bound == pytest.approx(predicted, rel=1e-15)
    assert result.verified_bounds.a_est >= result.predicted_lower_bound - 1e-8
    assert result.verified_bounds.scheme is None
    assert result.reference_bounds.scheme == SubsampleScheme(2)
    assert result.sweep[-1].start_index == result.start_index


def test_find_weaving_index_search_failure_carries_curve():
    # at M = 40 the first J below 0.5 * A_est is 84, beyond j_max = 5
    with pytest.raises(WeavingSearchError, match=r"defect never fell below 6\.405e-06 for J <= 5") as excinfo:
        find_weaving_index(SYSTEM, ConstantPattern(2, 1), 40, j_max=5)
    assert excinfo.value.reference_bounds == _reference(SYSTEM, 2, 40)
    assert len(excinfo.value.sweep) == 6
    assert excinfo.value.sweep[0].value > 0.0


def test_find_weaving_index_stops_when_tail_bound_blocks_every_j():
    # the coordinate tail bound 2 sum_{n>5} 2^-n = 1/16 at M = 5 does not
    # depend on J and already exceeds 0.5 * A_est, so the search ends at J = 0
    with pytest.raises(WeavingSearchError, match=r"tail bound 6\.250e-02 beyond M=5 is not below 3\.044e-04") as excinfo:
        find_weaving_index(SYSTEM, ConstantPattern(2, 1), 5)
    reference = _reference(SYSTEM, 2, 5)
    assert excinfo.value.reference_bounds == reference
    (point,) = excinfo.value.sweep
    assert point.start_index == 0 and point.value > 0.0
    assert point.truncation_bound == 0.0625 >= 0.5 * reference.a_est


def test_find_weaving_index_input_validation():
    # at alpha = 1.05 the reference A_est (about 3e-55) is below what the
    # eigensolver resolves; it reads 0, and the search ends before any J
    system = OrbitSystem(GeometricApproach(1.05), ConstantWeights(1.0))
    with pytest.raises(WeavingSearchError, match="below the eigensolver's resolution") as excinfo:
        find_weaving_index(system, ConstantPattern(2, 1), 40)
    assert excinfo.value.reference_bounds == _reference(system, 2, 40)
    assert excinfo.value.reference_bounds.a_est == 0.0
    assert excinfo.value.sweep == ()


def test_weaving_result_serialization():
    result = find_weaving_index(SYSTEM, ConstantPattern(2, 1), 30)
    data = json.loads(canonical_json(result))
    assert data["start_index"] == result.start_index
    assert data["verified_bounds"]["dimension"] == 30
    assert data["reference_bounds"]["dimension"] == 30
    assert len(data["sweep"]) == result.start_index + 1


CURVE_PATTERNS = (
    ConstantPattern(2, 1),
    PeriodicPattern(3, (1, 0, 2)),
    ExplicitPattern(3, (1, 2, 0, 1, 0, 2)),
    SeededPattern(3, 42, 128),
)


@pytest.mark.parametrize("dimension", [12, 40, 200])
@pytest.mark.parametrize("pattern", CURVE_PATTERNS, ids=["constant", "periodic", "explicit", "seeded"])
def test_defect_curve_equals_pointwise_defects_bit_for_bit(pattern, dimension, monkeypatch):
    system = OrbitSystem(GeometricApproach(1.9), ConstantWeights(0.75))
    last = 140  # past the support of the finite patterns
    values, bound = _curve(system, pattern, last, dimension)
    assert len(values) == last + 1
    starts = list(range(0, 24)) + [63, 64, 100, 127, 128, 129, 140]
    for j in starts:
        assert values[j] == pointwise_tail_defect(system, pattern, j, dimension)
    # small blocks of J and of swapped rows: a walk reads the same doubles
    monkeypatch.setattr(weaving, "_FIRST_BLOCK", 3)
    monkeypatch.setattr(numerics, "_CHUNK_TERMS", 600)
    assert _curve(system, pattern, last, dimension) == (values, bound)


def test_finite_pattern_curve_is_zero_past_its_support():
    values, bound = _curve(SYSTEM, ExplicitPattern(2, (1, 0, 1)), 6, 40)
    assert values[0] > values[2] > 0.0
    assert values[1] == values[2]  # k = 1 swaps nothing
    assert values[3:] == [0.0, 0.0, 0.0, 0.0]
    assert bound > 0.0
    assert _curve(SYSTEM, ExplicitPattern(2, ()), 3, 40)[0] == [0.0] * 4
    assert _curve(SYSTEM, ExplicitPattern(2, (1,)), 8, 40)[0][5:] == [0.0] * 4


@pytest.mark.parametrize("j_max", [0, 1, 2, 3, 4, 9])
def test_finite_pattern_walk_yields_j_max_plus_one_points(j_max):
    # the support ends at J = 3: walks cut before it, at it and beyond it
    pattern = ExplicitPattern(2, (1, 0, 1))
    points = list(defect_points(SYSTEM, pattern, 40, j_max))
    assert [point.start_index for point in points] == list(range(j_max + 1))
    assert [point.value for point in points] == [pointwise_tail_defect(SYSTEM, pattern, j, 40) for j in range(j_max + 1)]


@pytest.mark.parametrize(
    "sequence, weight, pattern, dimension, starts",
    [
        (GeometricApproach(2.0), 1.0, ConstantPattern(2, 1), 40, (0, 5, 50, 213, 1000)),
        (GeometricApproach(1.9), 0.75, PeriodicPattern(3, (1, 0, 2)), 40, (0, 7, 100, 600)),
        (GeometricApproach(2.000125), 1.0, SeededPattern(2, 1000, 128), 200, (0, 10, 64)),
        (GeometricApproach(1.3), 1.0, ConstantPattern(2, 1), 60, (0, 100, 2000, 5000)),
        (GeometricApproach(1.05), 1.0, ConstantPattern(3, 2), 80, (0, 1000)),
        (ExplicitSequence((0.1, 0.3, 0.5, 0.7, 0.9, 0.99)), 1.0, ConstantPattern(2, 1), 6, (0, 20, 200, 1000)),
    ],
    ids=["alpha2-constant", "alpha1.9-periodic", "alpha2.000125-seeded", "alpha1.3-constant",
         "alpha1.05-constant", "explicit-constant"],
)
def test_defect_points_match_mpmath(sequence, weight, pattern, dimension, starts):
    # lambda^p as exp(p log lambda) carries about |p log lambda| ulps; a power
    # by repeated squaring carried about p, 2.8e-13 of D(5000) at alpha = 1.3
    mpmath = pytest.importorskip("mpmath")
    if isinstance(sequence, GeometricApproach):
        def point(n):
            return 1 - mpmath.mpf(sequence.alpha) ** -n
    else:
        def point(n):
            return mpmath.mpf(sequence.values[n - 1].real)
    system = OrbitSystem(sequence, ConstantWeights(weight))
    values, _ = _curve(system, pattern, max(starts), dimension)
    for j in starts:
        exact = mpmath_tail_defect(point, dimension, weight, pattern, j)
        assert exact > 0
        assert abs(values[j] - exact) <= 1e-14 * exact, j


def test_underflowed_points_raise_no_warning():
    # 0.5^2600 and 0.75^2600 underflow to 0.0: exponent 0 reads 1 there and
    # every other exponent 0, not the NaN of 0 * log(0)
    system = OrbitSystem(PowerSequence(GeometricApproach(2.0), 2600), ConstantWeights(1.0))
    explicit = ExplicitPattern(2, (1, 1, 0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pattern, nonzero in ((explicit, 2), (ConstantPattern(2, 1), 3)):
            values, _ = _curve(system, pattern, 6, 5)
            assert values[0] == 5.0
            assert values[1] == pytest.approx(3.997986740371958e-144, rel=1e-13)
            assert min(values[:nonzero]) > 0.0 and values[nonzero:] == [0.0] * (7 - nonzero)
        # lambda_1^0 phi_1 = 1 is kept at J = 1 and swapped for lambda_1 phi_1 = 0 at J = 0
        assert woven_frame_operator(system, explicit, 0, 5).tolist() == [[0.0] * 5] * 5
        assert woven_frame_operator(system, explicit, 1, 5).tolist() == [[1.0] * 5] * 5


def test_coordinate_tail_bound_is_zero_within_a_finite_sequence():
    system = OrbitSystem(ExplicitSequence((0.1, 0.3, 0.5)), ConstantWeights(1.0))
    pattern = ConstantPattern(2, 1)
    assert _coordinate_tail_bound(system, pattern, 3) == 0.0
    assert _coordinate_tail_bound(system, pattern, 5) == 0.0
    # 2 C2^2 (1 - 0.5) for the one coordinate beyond M = 2
    assert _coordinate_tail_bound(system, pattern, 2) == 1.0


def test_defect_points_walk_the_curve_in_order():
    pattern = PeriodicPattern(2, (1, 0))
    points = list(defect_points(SYSTEM, pattern, 40, j_max=100))
    assert [point.start_index for point in points] == list(range(101))
    # where a walk stops moves none of its points
    values, bound = _curve(SYSTEM, pattern, 300, 40)
    assert [point.value for point in points] == values[:101]
    assert {point.truncation_bound for point in points} == {bound}


def test_find_weaving_index_sweep_matches_the_curve():
    pattern = SeededPattern(3, 42, 128)
    result = find_weaving_index(SYSTEM, pattern, 40)
    assert result.reference_bounds == _reference(SYSTEM, 3, 40)
    a_est = result.reference_bounds.a_est
    values, _ = _curve(SYSTEM, pattern, result.start_index, 40)
    assert [point.value for point in result.sweep] == values
    assert result.sweep[-1].value + result.sweep[-1].truncation_bound < 0.5 * a_est
    assert result.sweep[-2].value + result.sweep[-2].truncation_bound >= 0.5 * a_est


def test_weaving_result_serialization_matches_the_dataclass_fields():
    result = find_weaving_index(SYSTEM, ExplicitPattern(2, (1, 0, 1, 1)), 30)
    fields = dataclasses.asdict(result)  # every field, nested dataclasses as dicts
    assert json.loads(canonical_json(result)) == json.loads(json.dumps(fields))


def test_weave_reports_found_and_not_found(tmp_path):
    found, missing = tmp_path / "found.json", tmp_path / "missing.json"
    args = ("weave", "--alpha", "2", "--N", "2", "--pattern", "constant:1")
    assert cli.main([*args, "--out", str(found)]) == 0
    assert cli.main([*args, "--J-max", "5", "--out", str(missing)]) == 1
    result = find_weaving_index(SYSTEM, ConstantPattern(2, 1))
    report = json.loads(found.read_text())["result"]
    assert report == dict(json.loads(canonical_json(result)), found=True)
    assert report["reference_bounds"] == json.loads(canonical_json(_reference(SYSTEM, 2, 40)))
    with pytest.raises(WeavingSearchError) as excinfo:
        find_weaving_index(SYSTEM, ConstantPattern(2, 1), j_max=5)
    report = json.loads(missing.read_text())["result"]
    assert report == {
        "found": False,
        "message": str(excinfo.value),
        "reference_bounds": json.loads(canonical_json(_reference(SYSTEM, 2, 40))),
        "sweep": json.loads(canonical_json(excinfo.value.sweep)),
    }


def _woven_by_rank_one_updates(system, pattern, start, dimension):
    """The finite-support woven operator with one pair of rank-one updates per swapped k."""
    arrays = system_arrays(system, dimension)
    total = frame_operator_matrix(system, SubsampleScheme(pattern.stride), dimension).astype(complex)
    for k in range(start, len(pattern.offsets)):
        if pattern.offsets[k]:
            kept = arrays.phi * complex_pow(arrays.lam, pattern.stride * k + pattern.offsets[k])
            removed = arrays.phi * complex_pow(arrays.lam, pattern.stride * k)
            total += np.outer(kept, kept.conj()) - np.outer(removed, removed.conj())
    return total


@pytest.mark.parametrize("chunk_terms", [None, 1, 3 * 24 + 5])
@pytest.mark.parametrize(
    "weights", [ConstantWeights(1.0), ExplicitWeights(tuple(1.0 + 0.5j * (-1) ** n for n in range(24)), 1.0, 1.2)]
)
def test_woven_operator_matches_rank_one_updates(monkeypatch, chunk_terms, weights):
    # whole, one-row and ragged three-row chunks of swapped k
    if chunk_terms is not None:
        monkeypatch.setattr(numerics, "_CHUNK_TERMS", chunk_terms)
    system = OrbitSystem(GeometricApproach(2.0), weights)
    pattern = SeededPattern(3, 7, 40)
    for start in (0, 9, 39, 40):
        woven = woven_frame_operator(system, pattern, start, 24)
        expected = _woven_by_rank_one_updates(system, pattern, start, 24)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(woven - expected)) <= 64 * np.finfo(float).eps * scale
        if not np.iscomplexobj(woven):  # real weights: one symmetric product per chunk
            assert np.array_equal(woven, woven.T)


@pytest.mark.parametrize(
    "pattern", [ConstantPattern(2, 1), PeriodicPattern(3, (0, 2, 1)), PeriodicPattern(2, (1, 0, 1, 1))]
)
@pytest.mark.parametrize("weights", [ConstantWeights(1.0), ConstantWeights(0.6 + 0.8j)])
def test_periodic_woven_operator_matches_rank_one_sum(pattern, weights):
    # the woven family summed term by term from its definition; the deepest
    # coordinate decays like (1 - 2^-8)^(2 N k), so 4000 terms push the
    # omitted tail below 1e-11, as in test_closed_form_matches_brute_oracle
    dim, terms = 8, 4000
    system = OrbitSystem(GeometricApproach(2.0), weights)
    arrays = system_arrays(system, dim)
    for start in (0, 3, 10):
        expected = np.zeros((dim, dim), dtype=complex)
        for k in range(terms):
            offset = offset_at(pattern, k) if k >= start else 0
            vector = arrays.phi * arrays.lam ** (pattern.stride * k + offset)
            expected += np.outer(vector, vector.conj())
        woven = woven_frame_operator(system, pattern, start, dim)
        assert np.max(np.abs(woven - expected)) < 1e-10


def test_periodic_woven_operator_memory_is_three_operators_plus_blocks():
    # the sum, the stride-NP base and one conjugated copy of it; every other
    # temporary is a block of at most _CHUNK_TERMS entries
    dim = 800
    for weights in (ConstantWeights(1.0), ConstantWeights(0.6 + 0.8j)):
        system = OrbitSystem(GeometricApproach(1.6), weights)
        system_arrays(system, dim)
        tracemalloc.start()
        try:
            operator = woven_frame_operator(system, PeriodicPattern(3, (0, 2, 1)), 5, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = numerics._CHUNK_TERMS * operator.itemsize
        assert peak <= 3 * operator.nbytes + 8 * block


def _woven_out_of_place(system, pattern, start, dimension):
    """The woven operator summed as `total = total +- block`, one new matrix per step."""
    arrays = system_arrays(system, dimension)
    stride = pattern.stride
    total = _progression_matrix(_stride_window(arrays, stride))
    if pattern.period is not None:
        total = total - conjugate_by_powers(_progression_matrix(_stride_window(arrays, stride)), arrays, stride * start)
        for residue in range(pattern.period):
            k0 = start + ((residue - start) % pattern.period)
            cycle = _progression_matrix(_stride_window(arrays, stride * pattern.period))
            total = total + conjugate_by_powers(cycle, arrays, stride * k0 + pattern.offsets[residue])
        return total
    swapped = [k for k in range(start, len(pattern.offsets)) if pattern.offsets[k]]
    phi = arrays.phi if np.any(arrays.phi.imag) else arrays.phi.real
    rows = max(1, numerics._CHUNK_TERMS // dimension)
    for low in range(0, len(swapped), rows):
        chunk = swapped[low : low + rows]
        kept = phi * log_rule_powers(arrays, [stride * k + pattern.offsets[k] for k in chunk])
        removed = phi * log_rule_powers(arrays, [stride * k for k in chunk])
        total = total + (kept.T @ kept.conj() - removed.T @ removed.conj())
    return total


@pytest.mark.parametrize(
    "pattern", [ConstantPattern(2, 1), PeriodicPattern(3, (0, 2, 1)), SeededPattern(2, 1000, 128)]
)
@pytest.mark.parametrize("weights", [ConstantWeights(1.0), ConstantWeights(0.6 + 0.8j)])
def test_woven_operator_in_place_sum_is_bit_identical(pattern, weights):
    system = OrbitSystem(GeometricApproach(2.0), weights)
    for start in (0, 5, 51):
        woven = woven_frame_operator(system, pattern, start, 60)
        expected = _woven_out_of_place(system, pattern, start, 60)
        assert woven.dtype == expected.dtype
        assert woven.tobytes() == expected.tobytes()


def _fraction_row_sums(rows):
    """Each row's exact sum in units of 2^-1074, through `fractions.Fraction`."""
    return [int(sum(map(Fraction, row), Fraction(0)) * 2**1074) for row in np.asarray(rows).tolist()]


def test_exact_row_sums_equal_fractions_across_the_double_range():
    tiny, largest = 2.0**-1074, float(np.finfo(np.float64).max)
    rng = np.random.default_rng(7)
    scattered = np.ldexp(rng.random((9, 31)), rng.integers(-1074, 1024, (9, 31)))
    scattered[rng.random(scattered.shape) < 0.2] = 0.0
    rows = [
        [0.0, 0.0, 0.0],
        [tiny, tiny, 3 * tiny, 2.0**-1022 - tiny],  # subnormals, the largest one included
        [2.0**1023, largest, largest, tiny],  # the whole range, summed past the largest double
        [1.0, -0.0, 2.0**-1022, 0.5 + 2.0**-53],
        [largest] * 64,
    ]
    for block in [np.array(row)[None, :] for row in rows] + [scattered, scattered[:1]]:
        assert _exact_row_sums(block) == _fraction_row_sums(block)


@given(st.lists(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=5, max_size=5), min_size=1, max_size=6))
def test_exact_row_sums_equal_fractions(rows):
    assert _exact_row_sums(np.array(rows)) == _fraction_row_sums(rows)


def test_defect_curve_with_an_empty_swap_set_is_zero():
    values, bound = _curve(SYSTEM, ExplicitPattern(2, (0, 0, 0)), 5, 40)
    assert values == [0.0] * 6 and bound == 0.0


def test_reproduction_defect_checks_equal_two_separate_reads():
    # the grid from a walk to J = 20, then a walk for the first J below 1e-6
    dimension = 40
    checks = {check["name"]: check for check in cli._reproduction_checks(dimension)}
    for stride in (2, 3):
        for label, pattern in (("constant-1", ConstantPattern(stride, 1)), ("seeded-42", SeededPattern(stride, 42, 128))):
            values, bound = _curve(SYSTEM, pattern, 20, dimension)
            grid = [values[j] + bound for j in (0, 1, 2, 5, 10, 20)]
            points = defect_points(SYSTEM, pattern, dimension, 1000)
            below = next((p.start_index for p in points if p.value + p.truncation_bound < 1e-6), None)
            check = checks[f"defect-bound-N-{stride}-{label}"]
            assert check["defect_at_0"].hex() == values[0].hex()
            assert check["monotone_on_grid"] == all(a >= b for a, b in zip(grid, grid[1:]))
            assert below is not None and check["first_index_below_1e-6"] == below
            assert check["pass"]


def test_reproduction_sums_each_seeded_swap_row_once(monkeypatch, capsys):
    # each defect check reads its grid and its first J below 1e-6 from one walk,
    # so the two 128-swap seeded patterns sum their swapped rows once each
    summed = []

    def counting(rows):
        summed.append(len(rows))
        return _exact_row_sums(rows)

    monkeypatch.setattr(weaving, "_exact_row_sums", counting)
    assert cli.main(["reproduce-paper", "--M", "40"]) == 0
    assert "PASS  overall" in capsys.readouterr().out
    swaps = sum(1 for stride in (2, 3) for j in SeededPattern(stride, 42, 128).offsets if j)
    assert sum(summed) == swaps == 147
