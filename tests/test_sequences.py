import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleson_frames import (
    ConstantWeights,
    ExplicitSequence,
    ExplicitWeights,
    GeometricApproach,
    InvariantViolation,
    OrbitSystem,
    PowerSequence,
    TwoPointAugmented,
    validate,
)
from carleson_frames.orbit import system_arrays
from oracles import first_duplicate_by_sort


def test_geometric_values():
    values = validate(GeometricApproach(2.0), 3).values
    assert values[0] == 0.5
    assert values[2] == 0.875


def test_power_of_geometric():
    seq = PowerSequence(GeometricApproach(2.0), 2)
    assert validate(seq, 1).values[0] == 0.25


def test_geometric_rejects_bad_alpha():
    with pytest.raises(InvariantViolation):
        GeometricApproach(1.0)
    with pytest.raises(InvariantViolation):
        GeometricApproach(math.inf)


@given(st.floats(min_value=1.0001, max_value=64.0), st.integers(min_value=1, max_value=150))
def test_geometric_gap_ratio_is_exactly_one_over_alpha(alpha, k):
    gaps = validate(GeometricApproach(alpha), k + 1).gaps
    ratio = gaps[k] / gaps[k - 1]
    assert ratio == pytest.approx(1.0 / alpha, rel=1e-14)


def test_gap_stays_exact_far_beyond_double_resolution():
    # the value itself rounds to 1.0 long before k = 200; the gaps must not
    window = validate(GeometricApproach(2.0), 200)
    assert window.values[199] == 1.0
    assert window.gaps[199] == window.signed_gaps[199] == 2.0 ** (-200)


@given(st.integers(min_value=1, max_value=60))
def test_power_one_is_identity(k):
    base = validate(GeometricApproach(2.0), k)
    powered = validate(PowerSequence(GeometricApproach(2.0), 1), k)
    assert powered.values.tobytes() == base.values.tobytes()
    assert powered.gaps.tobytes() == base.gaps.tobytes()


def test_explicit_sequence_indexing_and_disc_check():
    window = validate(ExplicitSequence((0.3, -0.3j)), 5)
    assert window.gaps.size == 2  # capped at the length
    assert window.values[1] == -0.3j
    with pytest.raises(ValueError):
        validate(ExplicitSequence((0.3, -0.3j)), 0)
    with pytest.raises(InvariantViolation, match=r"^\|lambda_1\| >= 1 leaves the open unit disc$"):
        validate(ExplicitSequence((1.2,)), 1)


def test_two_point_prepends_pair():
    seq = TwoPointAugmented(0.3, GeometricApproach(2.0))
    assert validate(seq, 3).values.tolist() == [0.3, -0.3, 0.5]
    with pytest.raises(InvariantViolation):
        TwoPointAugmented(1.3, GeometricApproach(2.0))


def test_even_power_of_real_sequence_is_positive():
    seq = PowerSequence(TwoPointAugmented(0.3, GeometricApproach(2.0)), 2)
    assert seq.real_positive
    assert not seq.strictly_increasing_moduli
    assert validate(seq, 2).values.tolist() == [0.09 + 0j, 0.09 + 0j]


def test_signed_gap():
    signed = validate(TwoPointAugmented(0.3, GeometricApproach(2.0)), 2).signed_gaps
    assert signed[0] == pytest.approx(0.7)
    assert signed[1] == pytest.approx(1.3)  # 1 - (-0.3)
    assert validate(ExplicitSequence((0.3j,)), 1).signed_gaps is None  # real sequences only


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExplicitSequence((0.3, math.nan, 0.5)),
        lambda: ExplicitSequence((0.3, complex(0.1, math.inf))),
        lambda: ExplicitWeights((1.0, math.nan), 0.5, 2.0),
        lambda: ExplicitWeights((1.0, complex(1.0, -math.inf)), 0.5, 2.0),
        lambda: ConstantWeights(math.inf),
        lambda: ConstantWeights(complex(1.0, math.nan)),
    ],
)
def test_non_finite_inputs_rejected_at_construction(build):
    with pytest.raises(InvariantViolation, match="must be finite"):
        build()


def test_validate_geometric_all_pass():
    report = validate(GeometricApproach(2.0), 50)
    assert report.first_duplicate is None
    assert report.gaps.size == 50


def test_validate_reports_duplicates():
    report = validate(ExplicitSequence((0.5, 0.5)), 2)
    assert report.first_duplicate == (1, 2)


def test_validate_reports_non_monotone_two_point():
    report = validate(TwoPointAugmented(0.3, GeometricApproach(2.0)), 10)
    # |q| == |-q| is not a repeated point
    assert report.first_duplicate is None


def test_validate_detects_collision_with_base():
    # q equal to a base point makes the augmented sequence non-distinct
    report = validate(TwoPointAugmented(0.5, GeometricApproach(2.0)), 10)
    assert report.first_duplicate == (1, 3)


def test_validate_is_idempotent():
    # NamedTuple equality on arrays is ambiguous: compare their bytes
    seq = GeometricApproach(3.0)
    first, second = validate(seq, 20), validate(seq, 20)
    for name in ("values", "gaps", "signed_gaps"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
    assert first.first_duplicate == second.first_duplicate


def test_validate_deep_geometric_distinctness():
    # signed-gap keys keep indices distinct even where values round to 1.0
    report = validate(GeometricApproach(2.0), 300)
    assert report.first_duplicate is None


_REAL_POINTS = st.floats(min_value=-0.999, max_value=0.999)
_COMPLEX_POINTS = st.builds(complex, st.floats(min_value=-0.7, max_value=0.7), st.floats(min_value=-0.7, max_value=0.7))


@st.composite
def _windows(draw):
    """Monotone (strictly increasing reals), non-monotone real, repeated-point
    and complex windows; any of them may carry a repeat of an earlier point,
    or its neighbour one ulp away."""
    kind = draw(st.sampled_from(("monotone", "non-monotone", "repeated", "complex")))
    points = draw(st.lists(_COMPLEX_POINTS if kind == "complex" else _REAL_POINTS, min_size=1, max_size=30))
    if kind == "monotone":
        points = sorted(set(points))
    if kind == "repeated" or draw(st.booleans()):
        source = draw(st.integers(min_value=0, max_value=len(points) - 1))
        target = draw(st.integers(min_value=source + 1, max_value=len(points)))
        point = complex(points[source])
        if draw(st.booleans()):  # distinct, though below modulus 1/2 its signed gap may round alike
            point = complex(math.nextafter(point.real, 1.0), point.imag)
        points.insert(target, point)
    return points


def _distinctness_keys(report, exact=True):
    """One key per point: the value of a complex point, or of a real one below
    modulus 1/2, where the value is exact and the gaps round; else the modulus
    gap, tagged apart from the values and by the sign of the point. Where the
    values are computed (`exact` false), a zero or subnormal value may be a
    rounded one: its key is NaN, which equals no other key."""
    if report.signed_gaps is None:
        keys = report.values.tolist()
    else:
        keys = [complex(v.real, 0.0) if abs(v.real) < 0.5 else complex(g, 1.0 if v.real > 0.0 else 2.0)
                for v, g in zip(report.values.tolist(), report.gaps.tolist())]
    if not exact:
        keys = [complex(math.nan) if abs(key) < sys.float_info.min else key for key in keys]
    return np.array(keys, dtype=complex)


@given(_windows(), st.integers(min_value=1, max_value=40))
def test_validate_distinctness_equals_the_sort_based_reference(points, n_max):
    report = validate(ExplicitSequence(tuple(points)), n_max)
    expected = first_duplicate_by_sort(_distinctness_keys(report))
    assert report.first_duplicate == expected


@pytest.mark.parametrize("a, b", [(0.1, 0.10000000000000002), (-0.75, -0.7500000000000001), (0.49999999999999994, 0.5)])
def test_validate_keeps_points_that_share_a_signed_gap_distinct(a, b):
    # 1 - a and 1 - b round to one double
    report = validate(ExplicitSequence((a, b, 0.9)), 3)
    assert report.signed_gaps[0] == report.signed_gaps[1]
    assert report.first_duplicate is None
    assert validate(ExplicitSequence((a, 0.9, b, a)), 4).first_duplicate == (1, 4)


@pytest.mark.parametrize(
    "seq",
    [GeometricApproach(2.0), PowerSequence(GeometricApproach(1.3), 3),
     TwoPointAugmented(0.5, GeometricApproach(2.0)), PowerSequence(TwoPointAugmented(0.3, GeometricApproach(2.0)), 2),
     PowerSequence(GeometricApproach(2.0), 2600)],
    ids=["geometric", "power", "two-point-collision", "squared-two-point", "underflowed-power"],
)
def test_validate_distinctness_of_generator_kinds_equals_the_sort(seq):
    # 2^-1074 is the last gap of alpha = 2 that does not underflow to 0, which
    # would leave the disc; 0.5^2600 and 0.75^2600 are distinct points that
    # both round to 0.0
    report = validate(seq, 1074)
    assert report.first_duplicate == first_duplicate_by_sort(_distinctness_keys(report, exact=False))


def test_tail_gap_sums():
    geo = GeometricApproach(2.0)
    # sum_{k>=k0} 2^-k = 2^(1-k0)
    assert geo.tail_modulus_gap_sum(5) == pytest.approx(2.0 ** (-4), rel=1e-15)
    explicit = ExplicitSequence((0.5, 0.75))
    assert explicit.tail_modulus_gap_sum(2) == pytest.approx(0.25)
    assert explicit.tail_modulus_gap_sum(3) == 0.0
    powered = PowerSequence(geo, 3)
    # 1 - x^3 <= 3 (1 - x): the bound must dominate the true tail
    true_tail = sum(validate(powered, 199).gaps[4:].tolist())  # k = 5..199
    assert powered.tail_modulus_gap_sum(5) >= true_tail


def test_two_point_tail_gap_sum_is_zero_past_a_finite_base():
    augmented = TwoPointAugmented(0.3, ExplicitSequence((0.5, 0.75)))  # length 4
    assert augmented.tail_modulus_gap_sum(5) == 0.0
    assert augmented.tail_modulus_gap_sum(4) is None
    assert TwoPointAugmented(0.3, GeometricApproach(2.0)).tail_modulus_gap_sum(5) is None


def test_constant_weights():
    weights = ConstantWeights(1.0)
    assert system_arrays(OrbitSystem(GeometricApproach(2.0), weights), 7).weights[6] == 1.0
    assert weights.c1 == weights.c2 == 1.0
    complex_weights = ConstantWeights(3 + 4j)
    assert complex_weights.c1 == 5.0
    with pytest.raises(InvariantViolation):
        ConstantWeights(0.0)


def test_explicit_weights_bounds():
    weights = ExplicitWeights((1.0, 2.0), 1.0, 2.0)
    assert system_arrays(OrbitSystem(GeometricApproach(2.0), weights), 2).weights[1] == 2.0
    with pytest.raises(IndexError, match="weights provide 2 < 3 entries"):
        system_arrays(OrbitSystem(GeometricApproach(2.0), weights), 3)
    breached = ExplicitWeights((1.0, 3.0), 1.0, 2.0)
    with pytest.raises(InvariantViolation):
        system_arrays(OrbitSystem(GeometricApproach(2.0), breached), 2)
    with pytest.raises(InvariantViolation):
        ExplicitWeights((1.0,), 2.0, 1.0)


_LISTED = ExplicitSequence((-0.5, 0.25, 0.75))


@pytest.mark.parametrize(
    "seq,structure",
    [
        (PowerSequence(TwoPointAugmented(0.1, _LISTED), 2), (5, True, True, False, False)),
        (TwoPointAugmented(0.1, _LISTED), (5, True, False, False, True)),
        (PowerSequence(_LISTED, 3), (3, True, False, False, False)),
        (PowerSequence(GeometricApproach(2.0), 1), (None, True, True, True, False)),
        (ExplicitSequence((0.5j, 0.25)), (2, False, False, False, True)),
    ],
    ids=["even-power-of-two-point", "two-point", "odd-power", "power-of-geometric", "complex-explicit"],
)
def test_nested_kinds_fix_their_structure(seq, structure):
    assert (
        seq.length, seq.is_real, seq.real_positive, seq.strictly_increasing_moduli, seq.exact_values
    ) == structure


@pytest.mark.parametrize(
    "weights,structure",
    [(ExplicitWeights((1.0, 2.0), 0.5, 2.0), (0.5, 2.0, 2)), (ConstantWeights(3 + 4j), (5.0, 5.0, None))],
    ids=["explicit", "constant"],
)
def test_weight_kinds_fix_their_bounds(weights, structure):
    assert (weights.c1, weights.c2, weights.length) == structure
