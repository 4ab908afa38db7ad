import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleson_frames import (
    ExplicitSequence,
    GeometricApproach,
    InvariantViolation,
    PowerSequence,
    TwoPointAugmented,
    Verdict,
    carleson_inf_estimate,
    validate,
)
from carleson_frames import cli, numerics
from carleson_frames.reporting import canonical_json
from oracles import float_carleson_product, mpmath_carleson_product, rational_carleson_product

GEO2 = GeometricApproach(2.0)

# brute-force product with k_trunc = 10^4 (matches the exact rational oracle
# at k_trunc = 200 to 16 digits); the k_trunc = 40 value may exceed it only
# within its reported tail allowance
P1_GEO2_REFERENCE = 0.18168631200387075


def product_row(seq, n, k_trunc):
    """Row n of the blocked evaluation: P_n over k <= k_trunc and its tail bound."""
    return carleson_inf_estimate(seq, n, k_trunc).products[n - 1]


def test_single_factor_product():
    seq = ExplicitSequence((0.3, -0.3))
    row = product_row(seq, 1, 2)
    assert row.value == pytest.approx(0.6 / 1.09, rel=1e-15)
    assert row.tail_error == 0.0


def test_squared_pair_gives_exact_zero():
    seq = PowerSequence(ExplicitSequence((0.3, -0.3)), 2)
    assert product_row(seq, 1, 2).value == 0.0


def test_geometric_product_regression():
    row = product_row(GEO2, 1, 40)
    # truncation only over-estimates, by at most the reported tail allowance
    assert P1_GEO2_REFERENCE <= row.value <= P1_GEO2_REFERENCE * (1.0 + row.tail_error) + 1e-15
    assert row.value == pytest.approx(P1_GEO2_REFERENCE, abs=1e-10)


def test_geometric_product_against_rational_oracle():
    exact = rational_carleson_product(Fraction(2), 3, 120)
    assert product_row(GEO2, 3, 120).value == pytest.approx(exact, rel=1e-13)


def test_product_matches_direct_complex_oracle():
    values = (0.1 + 0.2j, -0.4, 0.5j, 0.85, -0.3 - 0.4j)
    seq = ExplicitSequence(values)
    for n in range(1, len(values) + 1):
        row = product_row(seq, n, len(values))
        assert row.value == pytest.approx(float_carleson_product(values, n), rel=1e-13)
        assert row.tail_error == 0.0


def test_tail_error_bounds_true_decrement():
    row40, row400 = product_row(GEO2, 1, 40), product_row(GEO2, 1, 400)
    assert row400.value <= row40.value
    assert row40.value - row400.value <= row40.value * row40.tail_error * 1.01 + 1e-15


def test_product_preconditions():
    with pytest.raises(ValueError):
        product_row(GEO2, 5, 3)


def test_inf_estimate_geometric_certifies():
    report = carleson_inf_estimate(GEO2, 30, 200)
    assert report.verdict is Verdict.CERTIFIED_HOLDS
    assert report.ratio_sup == 0.5
    assert report.certified_c == 0.5
    assert report.inf_estimate > 0.0
    assert len(report.products) == 30


def test_inf_estimate_counterexample_fails():
    seq = PowerSequence(TwoPointAugmented(0.3, GEO2), 2)
    report = carleson_inf_estimate(seq, 10, 100)
    assert report.verdict is Verdict.CERTIFIED_FAILS
    assert report.inf_estimate == 0.0
    # both images of the +-q pair collapse onto the same point
    assert report.products[0].value == 0.0
    assert report.products[1].value == 0.0


def test_inf_estimate_slowly_increasing_list_never_certifies_holds():
    # the ratio sup creeps toward 1 and the finite window cannot certify; the
    # points are distinct, so no factor is 0 and nothing is refuted either
    values = tuple(1.0 - 1.0 / (k + 1) for k in range(1, 21))
    report = carleson_inf_estimate(ExplicitSequence(values), 10, 20)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.ratio_sup == pytest.approx(20.0 / 21.0, rel=1e-12)
    assert report.certified_c is None


def test_small_products_of_a_carleson_power_are_no_refutation():
    # (1 - 1.1^-k)^2 is a Carleson sequence, but its products over a
    # 1000-point window fall below 1e-18; only a zero factor refutes
    report = carleson_inf_estimate(PowerSequence(GeometricApproach(1.1), 2), 20, 1000)
    assert 0.0 < report.inf_estimate < 1e-12
    assert report.ratio_sup < 1.0
    assert report.verdict is Verdict.INCONCLUSIVE


def test_close_distinct_points_are_no_refutation():
    # a finite set of distinct points is always Carleson, however close two lie
    report = carleson_inf_estimate(ExplicitSequence((0.5, 0.5000000000001, 0.9)), 3, 3)
    assert 0.0 < report.inf_estimate < 1e-12
    assert report.verdict is Verdict.INCONCLUSIVE


@given(st.floats(min_value=0.01, max_value=0.49))
def test_squared_two_point_always_certified_fails(q):
    seq = PowerSequence(TwoPointAugmented(q, GEO2), 2)
    report = carleson_inf_estimate(seq, 4, 60)
    assert report.verdict is Verdict.CERTIFIED_FAILS
    assert report.inf_estimate == 0.0


@given(
    st.lists(
        st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=7,
        unique=True,
    )
)
def test_factors_keep_products_in_unit_interval(values):
    seq = ExplicitSequence(tuple(values))
    assert 0.0 <= product_row(seq, 1, len(values)).value < 1.0 + 1e-12


def test_product_nonincreasing_in_k_trunc():
    for k_trunc in (10, 20, 40, 80, 160):
        current = product_row(GEO2, 2, k_trunc).value
        if k_trunc > 10:
            assert current <= previous + 1e-18
        previous = current


def test_power_one_reports_identical_products():
    base = carleson_inf_estimate(GEO2, 10, 60)
    powered = carleson_inf_estimate(PowerSequence(GEO2, 1), 10, 60)
    assert base.products == powered.products
    assert base.verdict == powered.verdict


@pytest.mark.parametrize("n_max,k_trunc", [(5, 50), (10, 100), (20, 200)])
def test_verdict_stable_under_window_growth(n_max, k_trunc):
    assert carleson_inf_estimate(GEO2, n_max, k_trunc).verdict is Verdict.CERTIFIED_HOLDS
    seq = PowerSequence(TwoPointAugmented(0.3, GEO2), 2)
    assert carleson_inf_estimate(seq, n_max, k_trunc).verdict is Verdict.CERTIFIED_FAILS


def test_ratio_test_geometric():
    # the report's gap-ratio sup runs over its own k <= k_trunc window
    report = carleson_inf_estimate(GEO2, 1, 100)
    assert report.ratio_sup == 0.5 and report.certified_c == 0.5
    report = carleson_inf_estimate(GeometricApproach(1.5), 1, 100)
    assert report.ratio_sup == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert report.certified_c == 1.0 / 1.5


def test_ratio_test_explicit_list_has_no_certificate():
    report = carleson_inf_estimate(ExplicitSequence((0.5, 0.75, 0.8)), 1, 3)
    assert report.ratio_sup == pytest.approx(0.8, rel=1e-14)
    assert report.certified_c is None


# finite heads: TwoPointAugmented layers prepend points to a certified tail,
# and the report's certified_c is the tail's certificate, the one the proof uses
HEAD_CASES = [
    pytest.param(TwoPointAugmented(0.3, GEO2), 5, 50, Verdict.CERTIFIED_HOLDS, 0.5, id="two-point"),
    # q = 0.5 and 0.75 are the base points 1 - 2^-1 and 1 - 2^-2
    pytest.param(TwoPointAugmented(0.5, GEO2), 5, 50, Verdict.CERTIFIED_FAILS, 0.5, id="q-is-base-point-1"),
    pytest.param(TwoPointAugmented(0.75, GEO2), 5, 50, Verdict.CERTIFIED_FAILS, 0.5, id="q-is-base-point-2"),
    # the window's last modulus, 1 - 2^-18, is below q, which a later point could meet
    pytest.param(TwoPointAugmented(0.999999, GEO2), 5, 20, Verdict.INCONCLUSIVE, 0.5, id="q-past-the-window"),
    pytest.param(TwoPointAugmented(0.3, GEO2), 2, 2, Verdict.INCONCLUSIVE, 0.5, id="window-within-the-head"),
    pytest.param(TwoPointAugmented(0.2, TwoPointAugmented(0.4, GeometricApproach(1.5))), 5, 50,
                 Verdict.CERTIFIED_HOLDS, 1.0 / 1.5, id="nested"),
    # row 1 has no zero factor; the repeat of 0.75 at indices 3 and 6 refutes
    pytest.param(TwoPointAugmented(0.2, TwoPointAugmented(0.75, GEO2)), 1, 50, Verdict.CERTIFIED_FAILS, 0.5,
                 id="nested-repeat-beyond-the-rows"),
    pytest.param(PowerSequence(TwoPointAugmented(0.3, GEO2), 1), 5, 50, Verdict.CERTIFIED_HOLDS, 0.5, id="power-1"),
]


@pytest.mark.parametrize("seq,n_max,k_trunc,verdict,certified_c", HEAD_CASES)
def test_finite_head_verdicts(seq, n_max, k_trunc, verdict, certified_c):
    report = carleson_inf_estimate(seq, n_max, k_trunc)
    assert (report.verdict, report.certified_c) == (verdict, certified_c)


@pytest.mark.parametrize(
    "values, product",  # P_1 of three distinct points, to 60 digits with mpmath
    [
        ((0.1, 0.10000000000000002, 0.5), 5.9023020979540485e-18),  # 1 - 0.1 rounds alike
        ((-0.75, -0.7500000000000001, 0.9), 2.4997772153606941e-16),  # 2 - 0.25 rounds alike
        ((0.49999999999999994, 0.5, 0.9), 5.3828995133340928e-17),  # 1 - lambda: 0.5 twice
    ],
)
def test_near_duplicate_points_are_no_refutation(values, product):
    # 1 - lambda of the first two points rounds to one double
    report = carleson_inf_estimate(ExplicitSequence(values), 3, 3)
    assert report.verdict is Verdict.INCONCLUSIVE
    for entry in report.products[:2]:
        assert entry.value == pytest.approx(product, rel=1e-14, abs=0.0)


def test_report_serialization_round_trip(tmp_path, capsys):
    report = carleson_inf_estimate(TwoPointAugmented(0.3, GEO2), 4, 50)
    data = json.loads(canonical_json(report))
    assert data["verdict"] == "CertifiedHolds"
    assert data["certified_c"] == 0.5
    assert data["products"][0]["tail_error"] == "inf"  # no bound for mixed-sign kinds
    out, table = tmp_path / "report.json", tmp_path / "products.csv"
    argv = ["check-carleson", "--alpha", "2", "--two-point-q", "0.3", "--n-max", "4", "--k-trunc", "50"]
    assert cli.main(argv + ["--out", str(out), "--csv", str(table)]) == 0
    assert json.loads(out.read_text())["result"] == data
    assert len(table.read_text().splitlines()) == 1 + 4  # header and one row per n
    text = capsys.readouterr().out
    assert "verdict: CertifiedHolds" in text


# ---- blocked evaluation of the rows P_1..P_n ---------------------------------

COMPLEX_LIST = ExplicitSequence((0.1 + 0.2j, -0.4, 0.5j, 0.85, -0.3 - 0.4j, 0.9 + 0.05j, 0.2 - 0.7j))
SQUARED_PAIR = PowerSequence(TwoPointAugmented(0.3, GEO2), 2)
ROW_CASES = [
    pytest.param(GEO2, 30, 200, id="geometric"),
    pytest.param(SQUARED_PAIR, 12, 100, id="squared-two-point"),
    pytest.param(COMPLEX_LIST, 7, 7, id="complex-list"),
]


@pytest.mark.parametrize("seq,n_max,k_trunc", ROW_CASES)
def test_inf_estimate_rows_equal_carleson_product(seq, n_max, k_trunc):
    # row n does not depend on how many rows are computed
    report = carleson_inf_estimate(seq, n_max, k_trunc)
    assert report.products == tuple(product_row(seq, n, k_trunc) for n in range(1, n_max + 1))
    if seq is SQUARED_PAIR:
        assert [e.value for e in report.products[:2]] == [0.0, 0.0]
        assert all(e.value > 0.0 for e in report.products[2:])


@pytest.mark.parametrize("seq,n_max,k_trunc", ROW_CASES)
@pytest.mark.parametrize("rows_per_block", [1, 3, 5])
def test_block_size_does_not_change_products(monkeypatch, seq, n_max, k_trunc, rows_per_block):
    # 1-row blocks, and blocks of 3 or 5 rows that leave a ragged last block
    whole = carleson_inf_estimate(seq, n_max, k_trunc)
    window = min(k_trunc, seq.length or k_trunc)
    monkeypatch.setattr(numerics, "_CHUNK_TERMS", rows_per_block * window + window - 1)
    assert carleson_inf_estimate(seq, n_max, k_trunc).products == whole.products


@pytest.mark.parametrize("outside", [1.5, 1.5j])
def test_out_of_disc_before_a_repeated_point_raises_at_it(outside):
    # one check per window: the first point outside the disc raises
    seq = ExplicitSequence((0.2j, outside, 0.4, 0.2j, 0.6))
    with pytest.raises(InvariantViolation, match=r"^\|lambda_2\| >= 1 leaves the open unit disc$"):
        carleson_inf_estimate(seq, 5, 5)


@pytest.mark.parametrize("outside", [1.5, 1.5j])
def test_out_of_disc_after_a_repeated_point_raises_in_the_next_row(outside):
    # row 1 has a zero factor (k = 3), yet the window's one disc check raises
    # at the outside point (k = 4) before any row is evaluated
    seq = ExplicitSequence((0.2j, 0.4, 0.2j, outside, 0.6))
    with pytest.raises(InvariantViolation, match=r"^\|lambda_4\| >= 1 leaves the open unit disc$"):
        carleson_inf_estimate(seq, 5, 5)


def test_out_of_disc_point_raises_where_every_row_has_a_zero_factor(capsys):
    # rows 1 and 2 are both zero (lambda_1 == lambda_2), and lambda_3 is outside
    seq = ExplicitSequence((0.2, 0.2, 1.5))
    with pytest.raises(InvariantViolation, match=r"^\|lambda_3\| >= 1 leaves the open unit disc$"):
        carleson_inf_estimate(seq, 2, 3)
    argv = ["check-carleson", "--values", "0.2,0.2,1.5", "--n-max", "2", "--k-trunc", "3"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: |lambda_3| >= 1 leaves the open unit disc\n"


def test_out_of_disc_row_point_is_reported_before_its_factors():
    # the first outside point of the window is reported, whatever the rows
    seq = ExplicitSequence((1.5, 1.5, 0.3))
    with pytest.raises(InvariantViolation, match=r"^\|lambda_1\| >= 1"):
        carleson_inf_estimate(seq, 3, 3)


def test_a_complex_kind_with_real_values_takes_the_real_products():
    # (sqrt(1 - 2^-k) i)^2 is real, near -1: the window holds float64 values,
    # and the products read its modulus gaps, as a real kind's do
    mpmath = pytest.importorskip("mpmath")
    base = tuple(math.sqrt(1.0 - 2.0**-k) * 1j for k in range(1, 31))
    seq = PowerSequence(ExplicitSequence(base), 2)
    window = validate(seq, 30)
    assert window.values.dtype == np.float64
    assert np.all(window.values < 0.0)
    with mpmath.workdps(80):
        exact = [mpmath.mpc(b.real, b.imag) ** 2 for b in base]  # the exact squares of the base doubles
    for entry in carleson_inf_estimate(seq, 30, 30).products:
        assert entry.value == pytest.approx(mpmath_carleson_product(exact, entry.n), rel=1e-13)


@pytest.mark.parametrize(
    "seq,n_max,k_trunc",
    [
        pytest.param(TwoPointAugmented(0.3, GEO2), 12, 80, id="two-point"),
        pytest.param(TwoPointAugmented(0.2, TwoPointAugmented(0.8, GeometricApproach(1.2))), 15, 120, id="two-two-point"),
        pytest.param(ExplicitSequence(tuple((-1) ** k * (1.0 - 1.7**-k) for k in range(1, 41))), 20, 40, id="alternating"),
    ],
)
def test_mixed_sign_products_match_mpmath(seq, n_max, k_trunc):
    # the window's points to 60 digits: the value below modulus 1/2, where it is
    # exact, else sign x (1 - gap), which holds where the value rounds to 1
    mpmath = pytest.importorskip("mpmath")
    window = validate(seq, k_trunc)
    with mpmath.workdps(60):
        points = [mpmath.mpf(v) if abs(v) < 0.5 else math.copysign(1.0, v) * (1 - mpmath.mpf(g))
                  for v, g in zip(window.values.tolist(), window.gaps.tolist())]
    for entry in carleson_inf_estimate(seq, n_max, k_trunc).products:
        assert entry.value == pytest.approx(mpmath_carleson_product(points, entry.n, dps=60), rel=1e-14)


@pytest.mark.parametrize(
    "seq,points,n_values",
    [
        pytest.param(GEO2, "geometric 2", (1, 7, 30), id="geometric-2"),
        pytest.param(GeometricApproach(1.5), "geometric 1.5", (1, 12, 40), id="geometric-1.5"),
        pytest.param(COMPLEX_LIST, None, range(1, 8), id="complex-list"),
    ],
)
def test_products_match_mpmath_oracle(seq, points, n_values):
    mpmath = pytest.importorskip("mpmath")
    k_trunc = 200 if seq.length is None else seq.length
    if points is None:
        exact = seq.values
    else:
        # the exact points 1 - alpha^-k, from the double alpha the kind stores
        with mpmath.workdps(80):
            exact = [1 - mpmath.mpf(seq.alpha) ** (-k) for k in range(1, k_trunc + 1)]
    report = carleson_inf_estimate(seq, max(n_values), k_trunc)
    for n in n_values:
        assert report.products[n - 1].value == pytest.approx(mpmath_carleson_product(exact, n), rel=1e-12)

