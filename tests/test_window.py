"""The validated coordinate window: one evaluation of the closed forms per
(sequence, n) or (system, M), read-only, equal to the per-index scalar closed
forms of `oracles.scalar_point`."""

import math

import numpy as np
import pytest

from carleson_frames import (
    ConstantPattern,
    ConstantWeights,
    ExplicitPattern,
    ExplicitSequence,
    ExplicitWeights,
    GeometricApproach,
    InvariantViolation,
    OrbitFrameOracle,
    OrbitSystem,
    PowerSequence,
    SubsampleScheme,
    TwoPointAugmented,
    defect_points,
    find_weaving_index,
    frame_bounds,
    validate,
)
from carleson_frames import cli, orbit
from carleson_frames.numerics import one_minus_products
from carleson_frames.orbit import phi_norm_squared, system_arrays

from oracles import scalar_point

KINDS = [
    GeometricApproach(1.3),
    ExplicitSequence((0.1, -0.4, 0.55, 0.9, -0.95)),
    ExplicitSequence((0.5j, 0.3 + 0.1j, -0.2 - 0.6j, 0.9, 0.1 - 0.1j)),
    TwoPointAugmented(0.3, GeometricApproach(2.0)),
    PowerSequence(GeometricApproach(1.7), 3),
    PowerSequence(TwoPointAugmented(0.3, GeometricApproach(2.0)), 2),
    PowerSequence(ExplicitSequence((0.5j, 0.3 + 0.1j, -0.2 - 0.6j, 0.9)), 3),
]


@pytest.mark.parametrize("seq", KINDS, ids=lambda seq: type(seq).__name__)
def test_window_matches_scalar_accessors_bit_for_bit(seq):
    # a real window's values and gaps are the scalar ones, and so is its pair
    # term: g_m + g_n - g_m g_n, 2 minus it where the signs differ; a complex
    # power's values may round otherwise (see the test below)
    window = validate(seq, 60)
    if np.iscomplexobj(window.values):
        return
    values, gaps = zip(*(scalar_point(seq, k) for k in range(1, window.gaps.size + 1)))
    assert np.array([value.real for value in values]).tobytes() == window.values.tobytes()
    assert np.array(gaps).tobytes() == window.gaps.tobytes()
    pair = [[g + h - g * h if (v.real < 0.0) == (w.real < 0.0) else 2.0 - (g + h - g * h)
             for w, h in zip(values, gaps)] for v, g in zip(values, gaps)]
    assert np.array(pair).tobytes() == one_minus_products(window.values, window.gaps, slice(None)).tobytes()


REFERENCE_CASES = (
    [(seq, 60) for seq in KINDS]
    # 2^-1074 and 4^-537 are the last gaps that do not underflow out of the disc
    + [(GeometricApproach(1.05), 2000), (GeometricApproach(2.0), 1074), (GeometricApproach(4.0), 537)]
    + [(PowerSequence(GeometricApproach(1.0940252), 3), 2000)]  # a gap 2 ulps off
)


@pytest.mark.parametrize("seq,n_max", REFERENCE_CASES, ids=[type(s).__name__ for s, _ in REFERENCE_CASES])
def test_window_matches_scalar_closed_forms(seq, n_max):
    # bit for bit, but for two measured exceptions: numpy's log1p and expm1
    # move the gaps of powers p >= 3 by up to 2 ulps, and numpy's complex
    # multiply moves the powers of a complex base by up to p ulps of |value|
    window = validate(seq, n_max)
    values, gaps = map(np.array, zip(*(scalar_point(seq, k) for k in range(1, window.gaps.size + 1))))
    p = seq.exponent if isinstance(seq, PowerSequence) else 1
    if p >= 3:
        assert np.all(np.abs(window.gaps - gaps) <= 2 * np.spacing(gaps))
    else:
        assert window.gaps.tobytes() == gaps.tobytes()
    # a window whose points are all real holds them as float64, else as complex128
    real = not np.any(values.imag)
    assert window.values.dtype == (np.float64 if real else np.complex128)
    if p > 1 and not real:
        assert np.all(np.abs(window.values - values) <= p * np.spacing(np.abs(values)))
    else:
        assert window.values.tobytes() == (values.real if real else values).astype(window.values.dtype).tobytes()


def _count_calls(monkeypatch, kind, name):
    sizes = []
    method = getattr(kind, name)

    def counting(self, k):
        sizes.append(k.size)
        return method(self, k)

    monkeypatch.setattr(kind, name, counting)
    return sizes


def test_windows_evaluate_each_closed_form_once(monkeypatch):
    points = _count_calls(monkeypatch, GeometricApproach, "_points")
    validate(PowerSequence(TwoPointAugmented(0.3, GeometricApproach(1.05)), 3), 5000)
    assert points == [5000]
    weights = _count_calls(monkeypatch, ConstantWeights, "_values")
    system_arrays(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0)), 500)
    assert (points, weights) == ([5000, 500], [500])


def test_window_arrays_are_read_only():
    window = validate(TwoPointAugmented(0.3, GeometricApproach(2.0)), 10)
    arrays = system_arrays(OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0)), 10)
    for array in (window.values, window.gaps, *arrays):
        with pytest.raises(ValueError):
            array[0] = 0.5


SPIRAL = ExplicitSequence(tuple((1.0 - 0.5 / (k + 1)) * np.exp(1j * k) for k in range(1, 257)))
PREFIX_SEQUENCES = [
    GeometricApproach(1.05),
    GeometricApproach(2.0),
    PowerSequence(TwoPointAugmented(0.3, GeometricApproach(2.0)), 3),
    SPIRAL,
    PowerSequence(SPIRAL, 5),
]
PREFIX_DIMENSIONS = (1, 2, 3, 17, 40, 63, 64, 65, 200)


@pytest.mark.parametrize("weights", [ConstantWeights(1.0), ConstantWeights(0.6 - 0.8j)], ids=["real", "complex"])
@pytest.mark.parametrize("seq", PREFIX_SEQUENCES, ids=lambda seq: type(seq).__name__)
def test_prefix_windows_equal_exact_windows_bit_for_bit(seq, weights):
    # one system grows its window through the dimensions in turn (1, 2, 4,
    # 17, 40, 80, 200); the other holds 400 points (256 for the 256-point
    # spiral) before its first read
    growing, largest = OrbitSystem(seq, weights), OrbitSystem(seq, weights)
    system_arrays(largest, PREFIX_DIMENSIONS[-1])
    system_arrays(largest, PREFIX_DIMENSIONS[-1] + 1)
    for dimension in PREFIX_DIMENSIONS:
        exact = system_arrays(OrbitSystem(seq, weights), dimension)
        assert exact.lam.size == dimension
        for arrays in (system_arrays(growing, dimension), system_arrays(largest, dimension)):
            for got, want in zip(arrays, exact):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_system_window_is_kept_per_dimension():
    system = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))
    assert system_arrays(system, 12) is system_arrays(system, 12)
    assert system == OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))


def _count_validate(monkeypatch):
    calls = {}
    original = orbit.validate

    def counting(seq, n_max):
        calls[(seq, n_max)] = calls.get((seq, n_max), 0) + 1
        return original(seq, n_max)

    monkeypatch.setattr(orbit, "validate", counting)
    return calls


def test_subsample_sweep_validates_once(monkeypatch, tmp_path):
    calls = _count_validate(monkeypatch)
    out = tmp_path / "sweep.json"
    argv = ["subsample-sweep", "--alpha", "2", "--N", "1,2,3,5", "--K", "0,3", "--M", "40"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert '"rows"' in out.read_text() and out.read_text().count('"stride"') == 22
    assert calls == {(GeometricApproach(2.0), 40): 1}


def test_weaving_search_validates_once(monkeypatch):
    system = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))
    frame_bounds(system, SubsampleScheme(2), 30)
    calls = _count_validate(monkeypatch)
    result = find_weaving_index(system, ConstantPattern(2, 1), 40)
    assert result.reference_bounds == frame_bounds(system, SubsampleScheme(2), 40)
    assert len(result.sweep) > 10
    # the held M = 30 window grows to 60 and the search reads its prefix
    assert calls == {(GeometricApproach(2.0), 60): 1}


def test_oracle_raises_at_the_repeated_point_not_before():
    seq = ExplicitSequence((0.1, 0.2, 0.3, 0.4, 0.2, 0.6, 0.7))
    oracle = OrbitFrameOracle(OrbitSystem(seq, ConstantWeights(1.0)))
    for basis_index in range(1, 5):
        assert oracle.coefficient(basis_index, 3) != 0.0
        assert oracle.tail_energy(basis_index, 3) > 0.0
    with pytest.raises(InvariantViolation, match=r"indices \(2, 5\)"):
        oracle.coefficient(5, 3)
    with pytest.raises(InvariantViolation, match=r"indices \(2, 5\)"):
        oracle.tail_energy(5, 0)


def test_weight_breach_reports_first_index():
    weights = ExplicitWeights((1.0, 1.0, 3.0, 1.0), 0.5, 2.0)
    system = OrbitSystem(GeometricApproach(2.0), weights)
    assert np.all(system_arrays(system, 2).weights == 1.0)
    with pytest.raises(InvariantViolation, match=r"\|m_3\| = 3\.0 breaches"):
        system_arrays(system, 4)


def test_every_site_reports_a_point_outside_the_disc_alike(capsys):
    seq = ExplicitSequence((0.5, 1.5, 0.2))
    message = r"^\|lambda_2\| >= 1 leaves the open unit disc$"
    with pytest.raises(InvariantViolation, match=message):
        validate(seq, 3)
    with pytest.raises(InvariantViolation, match=message):
        system_arrays(OrbitSystem(seq, ConstantWeights(1.0)), 3)
    # the gap 2^-1075 underflows to 0, which the window reads as leaving the disc
    assert cli.main(["bounds", "--alpha", "2", "--M", "1100"]) == 2
    assert capsys.readouterr().err == "invalid input: |lambda_1075| >= 1 leaves the open unit disc\n"


def _libm_log_modulus(value, gap):
    """log|lambda| of one point in `math`: from |lambda| below 1/2, else from its gap."""
    if value == 0:
        return -math.inf
    return math.log(abs(value)) if abs(value) < 0.5 else math.log1p(-gap)


@pytest.mark.parametrize(
    "seq",
    # at alpha = 3, np.log1p and math.log1p round apart at indices 1, 3 and 4;
    # the gap of 1e-20 rounds to 1.0, so its log must come from its value
    [GeometricApproach(3.0), ExplicitSequence((0.0, 1e-20, 0.3j, -0.75, 0.5, 0.9 - 0.1j))],
    ids=["geometric", "explicit"],
)
def test_log_moduli_follow_the_oracles_libm_rule_bit_for_bit(seq):
    arrays = system_arrays(OrbitSystem(seq, ConstantWeights(1.0)), 40 if seq.length is None else seq.length)
    want = [_libm_log_modulus(z, g) for z, g in zip(arrays.lam.tolist(), arrays.gaps.tolist())]
    assert arrays.log_moduli.tolist() == want


def test_defect_points_read_the_windows_logs():
    # each D(J) is the correctly rounded sum of |c_n|^2 (1 - lambda_n)^2 lambda_n^(4k)
    # over k >= J, every power np.exp(4k log lambda_n) of the libm log; numpy's
    # log1p would move D(1) by one ulp
    system = OrbitSystem(GeometricApproach(3.0), ConstantWeights(1.0))
    arrays = system_arrays(system, 40)
    logs = np.array([_libm_log_modulus(z, g) for z, g in zip(arrays.lam.tolist(), arrays.gaps.tolist())])
    energy = arrays.gaps * (2.0 - arrays.gaps)
    rows = [(energy * arrays.gaps * arrays.gaps * (np.exp(4.0 * k * logs) if k else 1.0)).tolist() for k in range(3)]
    points = list(defect_points(system, ExplicitPattern(2, (1, 1, 1)), 40, 2))
    assert [p.value for p in points] == [math.fsum(sum(rows[j:], [])) for j in range(3)]


def test_complex_weights_give_moduli_and_phi_norm_by_abs():
    # numpy's complex abs rounds up to 2 ulps apart from abs() of a Python complex
    weights = tuple((1 + 0.1 * k) * complex(math.cos(k), math.sin(k)) for k in range(1, 41))
    system = OrbitSystem(GeometricApproach(2.0), ExplicitWeights(weights, 0.5, 6.0))
    arrays = system_arrays(system, 40)
    assert arrays.moduli.tolist() == [abs(m) for m in weights]
    gaps = [2.0 ** -n for n in range(1, 41)]
    assert phi_norm_squared(system, 40) == math.fsum(abs(m) ** 2 * (g * (2.0 - g)) for m, g in zip(weights, gaps))
