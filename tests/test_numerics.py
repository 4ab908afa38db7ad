import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carleson_frames import (
    ConstantWeights,
    EigensolverError,
    ExplicitPattern,
    ExplicitSequence,
    GeometricApproach,
    NonHermitianError,
    OrbitFrameOracle,
    OrbitSystem,
    PeriodicPattern,
    SubsampleScheme,
    compensated_sum,
    complex_pow,
    estimate_subsequence_lower_bound,
    extremal_eigenvalues,
    frame_bounds,
    one_minus_pow,
    woven_frame_operator,
)
from carleson_frames import numerics, orbit
from oracles import jacobi_extremal_eigenvalues, row_strip_hermitian_check


def test_identity_matrix():
    lo, hi, residual = extremal_eigenvalues(np.eye(5))
    assert lo == 1.0 and hi == 1.0
    assert residual <= 1e-15


def test_zero_matrix_has_zero_extremes():
    assert tuple(extremal_eigenvalues(np.zeros((3, 3)))) == (0.0, 0.0, 0.0)


def test_two_by_two_analytic():
    lo, hi, _ = extremal_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert lo == pytest.approx(1.0, abs=1e-14)
    assert hi == pytest.approx(3.0, abs=1e-14)


def test_diagonal_matrix_is_exact():
    diag = np.diag([3.5, -1.25, 0.5, 7.0])
    lo, hi, _ = extremal_eigenvalues(diag)
    assert abs(lo - (-1.25)) <= 4 * np.spacing(1.25)
    assert abs(hi - 7.0) <= 4 * np.spacing(7.0)


def test_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        extremal_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonHermitianError, match=r"expected a square matrix, got shape \(2, 3\)"):
        extremal_eigenvalues(np.ones((2, 3)))
    with pytest.raises(NonHermitianError, match="expected a square matrix"):
        extremal_eigenvalues(np.ones(3))
    # real symmetry is checked to the same 4 ulps, also when the input is
    # complex with a zero imaginary part
    with pytest.raises(NonHermitianError):
        extremal_eigenvalues(np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]))
    with pytest.raises(NonHermitianError):
        extremal_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=np.complex128))


def test_the_callers_matrix_is_never_written():
    # the caller's matrix is read, never written, also when it is read-only
    given = np.array([[2.0, 1.0], [1.0, 3.0]])
    given.setflags(write=False)
    assert extremal_eigenvalues(given) == extremal_eigenvalues(given.copy())
    assert given.tolist() == [[2.0, 1.0], [1.0, 3.0]]


def _solved_dtype(monkeypatch, matrix):
    """The dtype of the private copy that `extremal_eigenvalues` solves."""
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.dtype) or eigvalsh(a))
    result = extremal_eigenvalues(matrix)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return seen[0], result


def test_the_solved_copy_dtype_follows_the_data(monkeypatch):
    real = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert _solved_dtype(monkeypatch, real)[0] == np.float64
    assert _solved_dtype(monkeypatch, np.eye(2, dtype=int))[0] == np.float64
    # a zero imaginary part runs the real driver on the real part, bit for bit
    dtype, result = _solved_dtype(monkeypatch, real.astype(np.complex128))
    assert dtype == np.float64 and result == extremal_eigenvalues(real)
    complex_entries = np.array([[2.0, 1.0 + 1e-300j], [1.0 - 1e-300j, 3.0]])
    assert _solved_dtype(monkeypatch, complex_entries)[0] == np.complex128


def test_real_and_complex_paths_agree(monkeypatch):
    # a real SPD matrix and its phase similarity D S D*, D = diag(e^(i theta)),
    # share their spectrum; the first runs the real driver, the second the
    # complex one
    rng = np.random.default_rng(19)
    raw = rng.normal(size=(24, 24))
    s = raw @ raw.T
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=24))
    rotated = s * np.outer(phase, phase.conj())
    assert _solved_dtype(monkeypatch, s)[0] == np.float64
    assert _solved_dtype(monkeypatch, rotated)[0] == np.complex128
    real_lo, real_hi, real_residual = extremal_eigenvalues(s)
    complex_lo, complex_hi, complex_residual = extremal_eigenvalues(rotated)
    slack = 16.0 * np.finfo(np.float64).eps * real_hi
    assert abs(real_lo - complex_lo) <= slack
    assert abs(real_hi - complex_hi) <= slack
    assert max(real_residual, complex_residual) <= 1e-13


def test_rayleigh_quotient_sandwich():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    s = raw @ raw.conj().T
    lo, hi, _ = extremal_eigenvalues(s)
    for _ in range(100):
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        v /= np.linalg.norm(v)
        rayleigh = float(np.real(v.conj() @ s @ v))
        assert lo - 1e-10 <= rayleigh <= hi + 1e-10


def test_against_independent_jacobi():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
    s = raw @ raw.conj().T
    lo, hi, _ = extremal_eigenvalues(s)
    j_lo, j_hi = jacobi_extremal_eigenvalues(s)
    assert lo == pytest.approx(j_lo, abs=1e-10 * max(1.0, abs(j_hi)))
    assert hi == pytest.approx(j_hi, rel=1e-12)


def test_residual_contract_enforced(monkeypatch):
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(20, 20))
    s = raw @ raw.T  # generic spectrum: roundoff makes the residual nonzero
    monkeypatch.setattr(numerics, "DEFAULT_EIG_TOL", 1e-320)
    with pytest.raises(EigensolverError, match="exceeds tolerance 1.000e-320"):
        extremal_eigenvalues(s)


def test_non_finite_entries_raise():
    with pytest.raises(EigensolverError):
        extremal_eigenvalues(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(EigensolverError):
        extremal_eigenvalues(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(EigensolverError):
        extremal_eigenvalues(np.array([[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]]))


def test_compensated_sum_cancellation():
    assert compensated_sum([1.0, 1e-16, -1.0]) == 1e-16


def test_compensated_sum_geometric_series():
    terms = [0.5**k for k in range(200)]
    exact = 2.0 - 0.5**199
    assert abs(compensated_sum(terms) - exact) <= np.spacing(2.0)


def test_compensated_sum_permutation_invariance():
    rng = np.random.default_rng(42)
    terms = rng.uniform(size=10**6).tolist()
    forward = compensated_sum(terms)
    shuffled = terms[:]
    rng.shuffle(shuffled)
    backward = compensated_sum(shuffled)
    assert abs(forward - backward) <= 1e-13 * abs(forward)


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False), max_size=200))
def test_compensated_sum_matches_fsum(terms):
    expected = math.fsum(terms)
    got = compensated_sum(terms)
    assert got == pytest.approx(expected, abs=16 * np.spacing(max(1.0, abs(expected))))


def test_complex_pow_basics():
    assert complex_pow(0.5 + 0j, 6) == 0.015625 + 0j
    assert complex_pow(0.3 - 0.2j, 1) == 0.3 - 0.2j
    assert complex_pow(0.0 + 0.0j, 0) == 1.0 + 0.0j
    with pytest.raises(ValueError):
        complex_pow(0.5, -1)


def test_complex_pow_on_arrays():
    z = np.array([0.5 + 0j, -0.25j])
    np.testing.assert_array_equal(complex_pow(z, 2), z * z)
    np.testing.assert_array_equal(complex_pow(z, 0), np.ones_like(z))


@given(
    st.floats(min_value=0.05, max_value=0.999999),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.integers(min_value=1, max_value=10_000),
)
def test_complex_pow_modulus_property(radius, angle, p):
    # repeated squaring compounds roundoff proportionally to the exponent, so
    # the honest bound on | |z^p| - |z|^p | is ~(2p + 8) ulps, not a constant
    z = complex(radius * math.cos(angle), radius * math.sin(angle))
    direct = radius**p
    if direct < 1e-290:
        return
    deviation = abs(abs(complex_pow(z, p)) - direct)
    assert deviation <= (2.0 * p + 8.0) * np.spacing(direct)


def test_one_minus_pow_special_cases():
    assert one_minus_pow(0.25, 0) == 0.0
    assert one_minus_pow(0.25, 1) == 0.25
    assert one_minus_pow(0.25, 2) == 0.25 * 1.75
    assert one_minus_pow(1.0, 7) == 1.0
    assert one_minus_pow(0.0, 1000) == 0.0
    arr = np.array([0.5, 1e-30])
    np.testing.assert_allclose(one_minus_pow(arr, 2), arr * (2.0 - arr), rtol=0)


@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(999, 1000)),
    st.integers(min_value=1, max_value=64),
)
def test_one_minus_pow_matches_rational_oracle(gap, p):
    gap_float = float(gap)
    exact = 1 - (1 - Fraction(gap_float)) ** p
    assert one_minus_pow(gap_float, p) == pytest.approx(float(exact), rel=1e-13)


def test_one_minus_pow_no_cancellation_for_tiny_gaps():
    gap = 2.0**-200
    # direct evaluation 1 - (1-gap)^p would round to 0; the stable form must not
    value = one_minus_pow(gap, 4)
    assert value == pytest.approx(4.0 * gap, rel=1e-12)


def test_one_minus_products_matches_exact_rationals():
    # gaps from 1e-300 to 1, and points crowding 1 from below, each term of
    # rows 0..-4 against the exact 1 - (1 - g_m)(1 - g_n) of its double gaps
    rng = np.random.default_rng(11)
    gaps = np.concatenate([[1e-300, 1.0], 10.0 ** rng.uniform(-300, 0, 30), 1.0 - 10.0 ** rng.uniform(-16, 0, 8)])
    terms = numerics.one_minus_products(1.0 - gaps, gaps, slice(0, gaps.size - 3))
    assert terms.shape == (gaps.size - 3, gaps.size)
    for m, n in np.ndindex(terms.shape):
        exact = 1 - (1 - Fraction(gaps[m])) * (1 - Fraction(gaps[n]))
        assert abs(Fraction(terms[m, n]) - exact) <= 2 * Fraction(np.spacing(float(exact)))
    # the product of the points themselves rounds to 1 and leaves no digit
    gap = 1e-300
    assert 1.0 - (1.0 - gap) * (1.0 - gap) == 0.0
    assert numerics.one_minus_products(np.array([1.0 - gap]), np.array([gap]), [0])[0, 0] == 2.0 * gap
    # a real window of both signs: 1 - v_m v_n of its points v, whose moduli
    # from 1/2 up are exactly 1 - g; the rows are indices
    values = np.concatenate([[0.5, -0.5], 1.0 - 10.0 ** rng.uniform(-15, np.log10(0.5), 24)])
    values *= rng.choice([-1.0, 1.0], values.size)
    gaps = 1.0 - np.abs(values)
    rows = np.array([0, 1, 5, 6, 7, 20])
    terms = numerics.one_minus_products(values, gaps, rows)
    for (i, m), n in itertools.product(enumerate(rows), range(values.size)):
        exact = 1 - Fraction(values[m]) * Fraction(values[n])
        assert abs(Fraction(terms[i, n]) - exact) <= 2 * Fraction(np.spacing(float(exact)))
    # a complex window's term is 1 - |lambda_m||lambda_n|, whatever the signs
    points = (1.0 - gaps) * np.exp(1j * rng.uniform(-np.pi, np.pi, gaps.size))
    terms = numerics.one_minus_products(points, gaps, rows)
    for (i, m), n in itertools.product(enumerate(rows), range(gaps.size)):
        exact = 1 - (1 - Fraction(gaps[m])) * (1 - Fraction(gaps[n]))
        assert abs(Fraction(terms[i, n]) - exact) <= 2 * Fraction(np.spacing(float(exact)))


def test_nan_residual_is_not_swallowed(monkeypatch):
    # a breakdown of the shifted solve must fail the certificate, not fold
    # into a zero residual
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.nan))
    with pytest.raises(EigensolverError, match="residual nan"):
        extremal_eigenvalues(np.array([[2.0, 1.0], [1.0, 3.0]]))


def test_singular_shift_is_widened_then_fails(monkeypatch):
    solve = np.linalg.solve
    calls = []

    def singular_first(a, b):
        calls.append(a.diagonal().copy())
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_first)
    lo, hi, residual = extremal_eigenvalues(np.diag([1.0, 0.75, 0.5]))
    assert (lo, hi) == (0.5, 1.0) and residual <= 1e-15
    # the retry moved the shift twice as far below lambda_min; the last
    # diagonal entry is that distance (the buffer is scaled by 1/2)
    assert calls[0][2] == 0.5 * np.finfo(float).eps
    assert calls[1][2] == 2 * calls[0][2]

    def always_singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", always_singular)
    with pytest.raises(EigensolverError, match="every shift"):
        extremal_eigenvalues(np.eye(3))


def _random_hermitian(rng, n, complex_entries):
    raw = rng.normal(size=(n, n))
    if complex_entries:
        raw = raw + 1j * rng.normal(size=(n, n))
    return (raw + raw.conj().T) / 2


def test_certificate_is_tight_on_small_and_random_matrices():
    cases = [np.array([[3.25]]), np.array([[-1e-3]]), np.eye(6), np.diag([3.5, -1.25, 0.5, 7.0])]
    rng = np.random.default_rng(2024)
    for t in range(50):
        cases.append(_random_hermitian(rng, int(rng.integers(2, 60)), t % 2 == 1))
    for s in cases:
        lo, hi, residual = extremal_eigenvalues(s)
        eigs = np.linalg.eigvalsh(s)
        assert (lo, hi) == (eigs[0], eigs[-1])
        assert residual <= 1e-12


def test_certificate_holds_at_extreme_scales():
    # the certificate runs on a power-of-two rescaled copy, so neither the
    # shift underflows nor the solve overflows at any matrix scale
    s = _random_hermitian(np.random.default_rng(8), 12, True)
    reference = extremal_eigenvalues(s)
    for e in (-1000, -300, 300, 1000):
        lo, hi, residual = extremal_eigenvalues(np.ldexp(s.real, e) + 1j * np.ldexp(s.imag, e))
        assert residual <= 1e-12
        slack = 1e-13 * math.ldexp(max(-reference.lambda_min, reference.lambda_max), e)
        assert abs(lo - math.ldexp(reference.lambda_min, e)) <= slack
        assert abs(hi - math.ldexp(reference.lambda_max, e)) <= slack
    assert extremal_eigenvalues(np.array([[1e-320]])) == (1e-320, 1e-320, 0.0)


@pytest.mark.parametrize("rows", [1, 3, 4, 11])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_strip_deviation_equals_whole_matrix_deviation(monkeypatch, rows, complex_entries):
    # tiles 1, 2, 3 and 5 wide (11 = 5 * 2 + 1 = 3 * 3 + 2 = 2 * 5 + 1) of
    # near-Hermitian matrices, some with exactly symmetric entries, signed
    # zeros and subnormal skews: the one loop over tiles raises exactly when
    # the whole matrix's deviation exceeds 4 ulps of its largest modulus, and
    # names both; it reports exact symmetry exactly when a real matrix equals
    # its transpose bit for bit
    monkeypatch.setattr(numerics, "_CHUNK_TERMS", rows * 11)
    rng = np.random.default_rng(7)
    outcomes = set()
    for trial in range(40):
        s = _random_hermitian(rng, 11, complex_entries)
        skew = rng.normal(size=(11, 11)) * 10.0 ** rng.integers(-320, -10)
        if complex_entries:
            skew = skew + 1j * rng.normal(size=(11, 11)) * 10.0 ** rng.integers(-320, -10)
        s = s + skew * (rng.random((11, 11)) < 0.3)
        s[rng.integers(11), rng.integers(11)] = -0.0
        deviation = float(np.abs(s - s.conj().T).max())
        scale = float(np.abs(s).max())
        raises = deviation > 4.0 * np.finfo(float).eps * scale
        if raises:
            with pytest.raises(NonHermitianError) as excinfo:
                numerics._check_hermitian(s)
            assert str(excinfo.value) == (
                f"hermitian deviation {deviation:.3e} exceeds 4 ulps of scale {scale:.3e}"
            )
        else:
            exact = not complex_entries and np.array_equal(s.view(np.int64), s.T.view(np.int64))
            assert numerics._check_hermitian(s) is exact
        outcomes.add(raises)
    assert outcomes == {False, True}
    # (7, 2) lies below the diagonal, in a mirror tile: a non-finite entry
    # there alone raises EigensolverError, not NonHermitianError
    for bad, shown in ((np.inf, "inf"), (np.nan, "nan")):
        s = _random_hermitian(np.random.default_rng(5), 11, complex_entries)
        s[7, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError, match=f"largest modulus {shown}"):
                numerics._check_hermitian(s)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_blocked_hermitian_check_keeps_errors_for_the_last_block(monkeypatch, rows, complex_entries):
    # tiles one and two entries wide of an 8 x 8 matrix; the bad entry sits
    # in the last row
    monkeypatch.setattr(numerics, "_CHUNK_TERMS", rows * 8)
    s = _random_hermitian(np.random.default_rng(31), 8, complex_entries)
    scale = float(np.max(np.abs(s)))
    skewed = s.copy()
    skewed[7, 2] += 1e-9
    with pytest.raises(NonHermitianError) as excinfo:
        extremal_eigenvalues(skewed)
    deviation = float(np.max(np.abs(skewed - skewed.conj().T)))
    assert str(excinfo.value) == (
        f"hermitian deviation {deviation:.3e} exceeds 4 ulps of scale {scale:.3e}"
    )
    near = s.copy()
    near[7, 2] += 2 * np.finfo(float).eps * scale  # within 4 ulps
    extremal_eigenvalues(near)
    for bad, shown in ((np.inf, "inf"), (np.nan, "nan")):
        broken = s.copy()
        broken[7, 6] = broken[6, 7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError, match=f"largest modulus {shown}"):
                extremal_eigenvalues(broken)
    # a NaN anywhere wins over an inf, as np.max over the whole matrix gives
    broken = s.copy()
    broken[0, 0] = np.inf
    broken[7, 7] = np.nan
    with pytest.raises(EigensolverError, match="largest modulus nan"):
        extremal_eigenvalues(broken)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_tiled_hermitian_check_matches_the_row_strip_loop(monkeypatch, complex_entries):
    # 7-wide tiles of a 30 x 30 matrix (30 = 4 * 7 + 2), so the last tiles
    # are ragged; a NaN, an inf and a 5-ulp asymmetry in the last ragged tile
    # and in an off-diagonal tile pair raise what the old loop over row
    # strips raised, class and message; 3 ulps pass both, not exactly symmetric
    monkeypatch.setattr(numerics, "_CHUNK_TERMS", 4 * 7 * 7)
    s = _random_hermitian(np.random.default_rng(41), 30, complex_entries)
    ulp = np.finfo(float).eps * float(np.max(np.abs(s)))
    for m, n in ((29, 28), (28, 29), (20, 3), (3, 20)):
        for value, raises in ((np.nan, True), (np.inf, True), (s[m, n] + 5 * ulp, True), (s[m, n] + 3 * ulp, False)):
            bad = s.copy()
            bad[m, n] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _raised(numerics._check_hermitian, bad)
                for rows_per_block in (1, 4, 30):
                    expected = _raised(lambda a: row_strip_hermitian_check(a, rows_per_block), bad)
                    assert (type(got), str(got)) == (type(expected), str(expected))
            assert (got is not None) == raises
            if not raises:
                assert numerics._check_hermitian(bad) is False
    assert numerics._check_hermitian(s) is not complex_entries


def _raised(check, a):
    """The error `check(a)` raises, or None."""
    try:
        check(a)
    except (EigensolverError, NonHermitianError) as exc:
        return exc
    return None


def _lapack_orders(monkeypatch, run):
    """`run()`, and the memory order, "C" or "F", of every matrix it hands
    np.linalg.eigvalsh and np.linalg.solve, in call order; a stack of
    matrices gives the order of each member."""
    orders = []
    with monkeypatch.context() as patch:
        for name in ("eigvalsh", "solve"):

            def record(a, *rest, _name=name, _call=getattr(np.linalg, name)):
                for member in a if a.ndim == 3 else (a,):
                    assert member.flags.c_contiguous != member.flags.f_contiguous
                    orders.append((_name, "C" if member.flags.c_contiguous else "F"))
                return _call(a, *rest)

            patch.setattr(np.linalg, name, record)
        result = run()
    return result, orders


def _bits(extremes):
    return np.array(extremes, dtype=np.float64).tobytes()


def _extremes_both_ways(monkeypatch, s):
    """The LAPACK orders of `numerics._extremes` on a copy of `s`, once its
    three floats are found equal, bit for bit, to those it gives when exact
    symmetry is not read and every LAPACK input is C-ordered."""
    got, orders = _lapack_orders(monkeypatch, lambda: numerics._extremes(s.copy()))
    check = numerics._check_hermitian
    with monkeypatch.context() as patch:
        patch.setattr(numerics, "_check_hermitian", lambda a: check(a) and False)
        reference, reference_orders = _lapack_orders(monkeypatch, lambda: numerics._extremes(s.copy()))
    assert {order for _, order in reference_orders} == {"C"}
    assert [name for name, _ in orders] == [name for name, _ in reference_orders]
    assert _bits(got) == _bits(reference)
    return orders


_SYSTEM = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))
_COLUMN_MAJOR_CASES = {
    "scheme": lambda: frame_bounds(_SYSTEM, SubsampleScheme(3, 2, 3), 30),
    "sweep_row": lambda: orbit.sweep_bounds(_SYSTEM, (2,), (1,), 30),
    "periodic_weave": lambda: orbit._bounds(woven_frame_operator(_SYSTEM, PeriodicPattern(3, (1, 0, 2)), 4, 30)),
    "finite_weave": lambda: orbit._bounds(woven_frame_operator(_SYSTEM, ExplicitPattern(2, (1, 0, 1, 1, 0)), 1, 30)),
    "adversary_estimate": lambda: estimate_subsequence_lower_bound(OrbitFrameOracle(_SYSTEM), range(0, 200, 3), 30),
    "explicit_real_list": lambda: frame_bounds(
        OrbitSystem(ExplicitSequence((-0.5, 0.3, 0.7, -0.9, 0.95)), ConstantWeights(1.0)),
        SubsampleScheme(2, 1, 1),
        5,
    ),
}


@pytest.mark.parametrize("case", sorted(_COLUMN_MAJOR_CASES))
def test_exactly_symmetric_operators_reach_lapack_column_major(monkeypatch, case):
    # every real operator the package builds equals its transpose bit for
    # bit, so eigvalsh and every certificate solve read the F-contiguous view,
    # and the three floats are those of LAPACK on the C-ordered matrix
    operators = []
    extremes = orbit._extremes
    monkeypatch.setattr(orbit, "_extremes", lambda s: operators.append(s.copy()) or extremes(s))
    _, orders = _lapack_orders(monkeypatch, _COLUMN_MAJOR_CASES[case])
    assert operators and orders[0] == ("eigvalsh", "F") and {order for _, order in orders} == {"F"}
    assert sum((_extremes_both_ways(monkeypatch, s) for s in operators), []) == orders


def test_other_operators_reach_lapack_as_before(monkeypatch):
    # a real matrix symmetric only to one ulp, a complex Hermitian matrix and
    # a real one whose mirrored pair holds +0.0 and -0.0 (equal as numbers,
    # not as bits) keep the C-ordered calls
    rng = np.random.default_rng(43)
    near = _random_hermitian(rng, 12, False) + 12 * np.eye(12)
    near[3, 8] = np.nextafter(near[8, 3], np.inf)
    signed = _random_hermitian(rng, 12, False) + 12 * np.eye(12)
    signed[3, 8], signed[8, 3] = 0.0, -0.0
    for s in (near, _random_hermitian(rng, 12, True) + 12 * np.eye(12), signed):
        _, orders = _lapack_orders(monkeypatch, lambda: extremal_eigenvalues(s))
        assert orders[0] == ("eigvalsh", "C") and {order for _, order in orders} == {"C"}
        _extremes_both_ways(monkeypatch, s)
    assert numerics._check_hermitian(signed) is False
    signed[3, 8] = -0.0
    assert numerics._check_hermitian(signed) is True


def _slow_start_operator(n):
    """A real symmetric n x n operator whose lambda_min eigenvector is almost
    orthogonal to the certificate's fixed start vector, so the first
    inverse-iteration step leaves a residual near eps * 1e5."""
    start = (np.arange(1, n + 1) * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0 - 0.5
    start /= np.linalg.norm(start)
    w = np.random.default_rng(4).normal(size=n)
    w -= (w @ start) * start
    u = w / np.linalg.norm(w) + 1e-5 * start
    basis, _ = np.linalg.qr(np.column_stack([u, np.eye(n)[:, : n - 1]]))
    s = basis @ np.diag(np.linspace(0.1, 2.0, n)) @ basis.T
    return (s + s.T) / 2


def test_certificate_refines_while_residual_exceeds_tol(monkeypatch):
    # a residual bound below the first step's residual takes a second step
    s = _slow_start_operator(20)
    solve = np.linalg.solve
    calls = []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
    _, _, coarse = extremal_eigenvalues(s)
    assert len(calls) == 2 and 1e-13 < coarse <= 1e-10
    calls.clear()
    monkeypatch.setattr(numerics, "DEFAULT_EIG_TOL", 1e-13)
    _, _, fine = extremal_eigenvalues(s)
    assert len(calls) == 3 and fine <= 1e-13
    monkeypatch.setattr(numerics, "DEFAULT_EIG_TOL", 1e-320)
    with pytest.raises(EigensolverError):
        extremal_eigenvalues(s)
    assert len(calls) == 3 + 4  # every step spent on lambda_min, then it fails


def _each_alone(stack):
    """`numerics._extremes` of each member of `stack`, on a copy of it."""
    return [numerics._extremes(member.copy()) for member in stack]


def test_operators_after_a_zero_pivot_certify_as_each_would_alone():
    # the full orbit of alpha = 1.05 at M = 7 has lambda_min within a few
    # eps ||S|| of 0, so its first shifted solve can meet an exactly zero
    # pivot (it does with OpenBLAS) and widen the shift; the operators of a
    # stack, each taken in its slice of the stack's buffer, get the floats
    # each gets on a copy of its own
    system = OrbitSystem(GeometricApproach(1.05), ConstantWeights(1.0))
    stack = np.stack([
        orbit.frame_operator_matrix(system, SubsampleScheme(*scheme), 7) for scheme in ((2, 1, 0), (1, 0, 0), (3, 2, 1))
    ])
    got = [numerics._extremes(member) for member in stack.copy()]
    assert _bits(got) == _bits(_each_alone(stack))


def test_a_sweep_certifies_no_scheme_past_its_first_that_is_not_psd(monkeypatch):
    # the second scheme's operator is shifted to lambda_min < 0: it fails the
    # PSD check after its eigenvalues and certificate, and the third scheme
    # is never built or solved, as with frame bounds taken one after another
    conjugate = orbit.conjugate_by_powers
    built = []

    def shift_the_second(operator, arrays, exponent):
        operator = conjugate(operator, arrays, exponent)
        built.append(exponent)
        if len(built) == 2:
            operator[np.diag_indices_from(operator)] -= 2.0 * np.abs(operator).max()
        return operator

    monkeypatch.setattr(orbit, "conjugate_by_powers", shift_the_second)
    eigvalsh = np.linalg.eigvalsh
    solved = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(1) or eigvalsh(a))
    with pytest.raises(EigensolverError, match="frame operator not PSD"):
        orbit.sweep_bounds(_SYSTEM, (1, 2), (0,), 20)
    assert built == [0, 0] and len(solved) == 2
