import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleson_frames import (
    ConstantWeights,
    ExplicitSequence,
    ExplicitWeights,
    GeometricApproach,
    InvariantViolation,
    PowerSequence,
    TwoPointAugmented,
    drop_prefix,
    signed_gap_at,
    validate,
)
from oracles import first_duplicate_by_sort


def test_geometric_values():
    seq = GeometricApproach(2.0)
    assert seq.value_at(1) == 0.5
    assert seq.value_at(3) == 0.875


def test_power_of_geometric():
    seq = PowerSequence(GeometricApproach(2.0), 2)
    assert seq.value_at(1) == 0.25


def test_geometric_rejects_bad_alpha():
    with pytest.raises(InvariantViolation):
        GeometricApproach(1.0)
    with pytest.raises(InvariantViolation):
        GeometricApproach(math.inf)


@given(st.floats(min_value=1.0001, max_value=64.0), st.integers(min_value=1, max_value=150))
def test_geometric_gap_ratio_is_exactly_one_over_alpha(alpha, k):
    seq = GeometricApproach(alpha)
    ratio = seq.modulus_gap_at(k + 1) / seq.modulus_gap_at(k)
    assert ratio == pytest.approx(1.0 / alpha, rel=1e-14)


def test_gap_stays_exact_far_beyond_double_resolution():
    # the value itself rounds to 1.0 long before k = 200; the gap must not
    seq = GeometricApproach(2.0)
    assert seq.value_at(200) == 1.0
    assert seq.modulus_gap_at(200) == 2.0 ** (-200)


@given(st.integers(min_value=1, max_value=60))
def test_power_one_is_identity(k):
    base = GeometricApproach(2.0)
    powered = PowerSequence(base, 1)
    assert powered.value_at(k) == base.value_at(k)
    assert powered.modulus_gap_at(k) == base.modulus_gap_at(k)


def test_explicit_sequence_indexing_and_disc_check():
    seq = ExplicitSequence((0.3, -0.3j))
    assert seq.value_at(2) == -0.3j
    with pytest.raises(IndexError):
        seq.value_at(3)
    with pytest.raises(IndexError):
        seq.value_at(0)
    bad = ExplicitSequence((1.2,))
    with pytest.raises(InvariantViolation):
        bad.value_at(1)


def test_two_point_prepends_pair():
    seq = TwoPointAugmented(0.3, GeometricApproach(2.0))
    assert seq.value_at(1) == 0.3
    assert seq.value_at(2) == -0.3
    assert seq.value_at(3) == 0.5
    with pytest.raises(InvariantViolation):
        TwoPointAugmented(1.3, GeometricApproach(2.0))


def test_even_power_of_real_sequence_is_positive():
    seq = PowerSequence(TwoPointAugmented(0.3, GeometricApproach(2.0)), 2)
    assert seq.real_positive
    assert not seq.strictly_increasing_moduli
    assert seq.value_at(1) == seq.value_at(2) == 0.09 + 0j


def test_signed_gap():
    seq = TwoPointAugmented(0.3, GeometricApproach(2.0))
    assert signed_gap_at(seq, 1) == pytest.approx(0.7)
    assert signed_gap_at(seq, 2) == pytest.approx(1.3)  # 1 - (-0.3)
    with pytest.raises(InvariantViolation):
        signed_gap_at(ExplicitSequence((0.3j,)), 1)


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
    assert report.in_disc and report.distinct and report.monotone_moduli and report.real_positive_window
    assert report.real_positive and report.strictly_increasing_moduli
    assert report.n_checked == 50


def test_validate_reports_duplicates():
    report = validate(ExplicitSequence((0.5, 0.5)), 2)
    assert not report.distinct
    assert report.first_duplicate == (1, 2)
    assert report.in_disc


def test_validate_reports_non_monotone_two_point():
    report = validate(TwoPointAugmented(0.3, GeometricApproach(2.0)), 10)
    assert not report.monotone_moduli
    assert report.first_non_monotone == 1  # |q| == |-q|
    assert not report.real_positive_window


def test_validate_detects_collision_with_base():
    # q equal to a base point makes the augmented sequence non-distinct
    report = validate(TwoPointAugmented(0.5, GeometricApproach(2.0)), 10)
    assert not report.distinct
    assert report.first_duplicate == (1, 3)


def test_validate_is_idempotent():
    seq = GeometricApproach(3.0)
    assert validate(seq, 20) == validate(seq, 20)


def test_validate_deep_geometric_distinctness():
    # signed-gap keys keep indices distinct even where values round to 1.0
    report = validate(GeometricApproach(2.0), 300)
    assert report.distinct and report.in_disc and report.monotone_moduli


_REAL_POINTS = st.floats(min_value=-0.999, max_value=0.999)
_COMPLEX_POINTS = st.builds(complex, st.floats(min_value=-0.7, max_value=0.7), st.floats(min_value=-0.7, max_value=0.7))


@st.composite
def _windows(draw):
    """Monotone (strictly increasing reals), non-monotone real, repeated-point
    and complex windows; any of them may carry a repeat of an earlier point."""
    kind = draw(st.sampled_from(("monotone", "non-monotone", "repeated", "complex")))
    points = draw(st.lists(_COMPLEX_POINTS if kind == "complex" else _REAL_POINTS, min_size=1, max_size=30))
    if kind == "monotone":
        points = sorted(set(points))
    if kind == "repeated" or draw(st.booleans()):
        source = draw(st.integers(min_value=0, max_value=len(points) - 1))
        target = draw(st.integers(min_value=source + 1, max_value=len(points)))
        points.insert(target, points[source])
    return points


@given(_windows(), st.integers(min_value=1, max_value=40))
def test_validate_distinctness_equals_the_sort_based_reference(points, n_max):
    report = validate(ExplicitSequence(tuple(points)), n_max)
    keys = report.values if report.signed_gaps is None else report.signed_gaps
    expected = first_duplicate_by_sort(keys)
    assert report.first_duplicate == expected
    assert report.distinct is (expected is None)


@pytest.mark.parametrize(
    "seq",
    [GeometricApproach(2.0), PowerSequence(GeometricApproach(1.3), 3),
     TwoPointAugmented(0.5, GeometricApproach(2.0)), PowerSequence(TwoPointAugmented(0.3, GeometricApproach(2.0)), 2)],
    ids=["geometric", "power", "two-point-collision", "squared-two-point"],
)
def test_validate_distinctness_of_generator_kinds_equals_the_sort(seq):
    report = validate(seq, 1200)
    keys = report.values if report.signed_gaps is None else report.signed_gaps
    assert report.first_duplicate == first_duplicate_by_sort(keys)


def test_drop_prefix_views():
    geo = GeometricApproach(2.0)
    shifted = drop_prefix(geo, 5)
    assert shifted.value_at(1) == geo.value_at(6)
    assert shifted.ratio_certificate() == 0.5
    assert shifted.real_positive and shifted.strictly_increasing_moduli

    two = TwoPointAugmented(0.3, geo)
    assert drop_prefix(two, 2) is geo
    tail_one = drop_prefix(two, 1)
    assert tail_one.value_at(1) == -0.3
    assert not tail_one.real_positive

    explicit = ExplicitSequence((0.1, 0.2, 0.3))
    assert drop_prefix(explicit, 1).values == (0.2 + 0j, 0.3 + 0j)
    with pytest.raises(ValueError):
        drop_prefix(explicit, 3)

    powered = drop_prefix(PowerSequence(geo, 2), 4)
    assert powered.value_at(1) == geo.value_at(5) ** 2


def test_tail_gap_sums():
    geo = GeometricApproach(2.0)
    # sum_{k>=k0} 2^-k = 2^(1-k0)
    assert geo.tail_modulus_gap_sum(5) == pytest.approx(2.0 ** (-4), rel=1e-15)
    explicit = ExplicitSequence((0.5, 0.75))
    assert explicit.tail_modulus_gap_sum(2) == pytest.approx(0.25)
    assert explicit.tail_modulus_gap_sum(3) == 0.0
    powered = PowerSequence(geo, 3)
    # 1 - x^3 <= 3 (1 - x): the bound must dominate the true tail
    true_tail = sum(powered.modulus_gap_at(k) for k in range(5, 200))
    assert powered.tail_modulus_gap_sum(5) >= true_tail


def test_constant_weights():
    weights = ConstantWeights(1.0)
    assert weights.value_at(7) == 1.0
    assert weights.c1 == weights.c2 == 1.0
    complex_weights = ConstantWeights(3 + 4j)
    assert complex_weights.c1 == 5.0
    with pytest.raises(InvariantViolation):
        ConstantWeights(0.0)


def test_explicit_weights_bounds():
    weights = ExplicitWeights((1.0, 2.0), 1.0, 2.0)
    assert weights.value_at(2) == 2.0
    with pytest.raises(IndexError):
        weights.value_at(3)
    breached = ExplicitWeights((1.0, 3.0), 1.0, 2.0)
    with pytest.raises(InvariantViolation):
        breached.value_at(2)
    with pytest.raises(InvariantViolation):
        ExplicitWeights((1.0,), 2.0, 1.0)
