"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here, in the assertions; nothing is deferred to later calibration.
"""

import json
import math
import time

import numpy as np

from carleson_frames import (
    ConstantPattern,
    ConstantWeights,
    GeometricApproach,
    OrbitFrameOracle,
    OrbitSystem,
    OrthonormalBasisOracle,
    PowerSequence,
    SeededPattern,
    SubsampleScheme,
    TwoPointAugmented,
    Verdict,
    build_adversarial_subsequence,
    carleson_inf_estimate,
    cli,
    defect_points,
    defect_upper_bound,
    find_weaving_index,
    frame_bounds,
    frame_operator_matrix,
    one_minus_pow,
    retilde_weights,
    reverify_certificate,
)
from carleson_frames.orbit import system_arrays
from oracles import frame_operator_bruteforce, phi_coefficients

SYSTEM = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))

SCHEME_GRID = [
    SubsampleScheme(stride, offset, start)
    for stride in (1, 2, 3, 5)
    for start in (0, 3)
    for offset in range(stride)
]


def _criterion(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_carleson_certification():
    start = time.perf_counter()
    ok = True
    details = []
    for alpha in (1.5, 2.0, 4.0):
        seq = GeometricApproach(alpha)
        report = carleson_inf_estimate(seq, 30, 200)
        good = report.verdict is Verdict.CERTIFIED_HOLDS and report.certified_c == 1.0 / alpha
        ok = ok and good
        details.append(f"alpha={alpha:g}: {report.verdict.value}, c={report.certified_c}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _criterion(1, "geometric Carleson certification", ok, f"{'; '.join(details)}; {elapsed:.2f}s")


def test_criterion_2_counterexample_reproduction():
    start = time.perf_counter()
    ok = True
    for q in (0.1, 0.3, 0.7):
        seq = PowerSequence(TwoPointAugmented(q, GeometricApproach(2.0)), 2)
        report = carleson_inf_estimate(seq, 10, 100)
        ok = ok and report.verdict is Verdict.CERTIFIED_FAILS and report.inf_estimate == 0.0
        ok = ok and any(entry.value == 0.0 for entry in report.products)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _criterion(2, "squared two-point counterexample", ok, f"{elapsed:.2f}s")


def test_criterion_3_subsampling_frame_property():
    # S_(N,j,K) = D S_(N,0,0) D* with D = diag(lambda_n^(j+NK)), so
    # lambda_min(S_(N,j,K)) >= (min_n |lambda_n|)^(2(j+NK)) lambda_min(S_(N,0,0)):
    # the guaranteed floor of a scheme scales with its first exponent, and
    # only the base families (N,0,0) carry the flat 1e-6 floor
    start = time.perf_counter()
    dim = 40
    min_modulus = float(np.min(np.abs(system_arrays(SYSTEM, dim).lam)))
    base = {
        stride: frame_bounds(SYSTEM, SubsampleScheme(stride), dim).a_est
        for stride in {scheme.stride for scheme in SCHEME_GRID}
    }
    threshold_failures = []
    for scheme in SCHEME_GRID:
        estimate = frame_bounds(SYSTEM, scheme, dim)
        diagonal = frame_operator_matrix(SYSTEM, scheme, dim)[0, 0].real
        floor = min_modulus ** (2 * scheme.exponent(scheme.start)) * base[scheme.stride]
        if not (
            base[scheme.stride] >= 1e-6
            and 0.0 < estimate.a_est
            and estimate.a_est >= floor * (1 - 1e-6)
            and estimate.a_est <= diagonal
            and estimate.b_est <= 1e3
        ):
            threshold_failures.append(
                f"(N={scheme.stride},j={scheme.offset},K={scheme.start}): "
                f"A_est={estimate.a_est:.3e}, floor={floor:.3e}, S11={diagonal:.3e}, "
                f"A_(N,0,0)={base[scheme.stride]:.3e}, B_est={estimate.b_est:.3e}"
            )
    interlacing_ok = True
    for scheme in SCHEME_GRID:
        previous = None
        for size in (10, 20, 40, 80):
            estimate = frame_bounds(SYSTEM, scheme, size)
            if previous is not None:
                interlacing_ok = interlacing_ok and estimate.a_est <= previous.a_est * (1 + 1e-6)
                interlacing_ok = interlacing_ok and estimate.b_est >= previous.b_est * (1 - 1e-6)
            previous = estimate
    elapsed = time.perf_counter() - start
    ok = not threshold_failures and interlacing_ok and elapsed < 30.0
    detail = f"interlacing {'ok' if interlacing_ok else 'VIOLATED'}; {elapsed:.1f}s"
    if threshold_failures:
        detail += (
            f"; {len(threshold_failures)}/{len(SCHEME_GRID)} schemes violate their bounds: "
            + "; ".join(threshold_failures)
        )
    _criterion(
        3,
        "A_(N,0,0) >= 1e-6, min|lambda|^(2(j+NK)) A_(N,0,0) <= A_est <= S11, "
        "B_est <= 1e3 + interlacing",
        ok,
        detail,
    )


def test_criterion_4_oracle_equivalence():
    worst = -math.inf
    ok = True
    for scheme in SCHEME_GRID:
        closed = frame_operator_matrix(SYSTEM, scheme, 20)
        brute = frame_operator_bruteforce(SYSTEM, scheme, 20, 512)
        excess = float(np.max(np.abs(closed - brute.matrix) - brute.tail_bound))
        worst = max(worst, excess)
        ok = ok and excess <= 1e-12
    _criterion(4, "closed form vs 512-term brute force", ok, f"worst excess {worst:.2e}")


def test_criterion_5_reweighting_identity():
    ok = True
    worst_ulps = 0.0
    for stride in (2, 3, 5):
        mtilde, bounds_ok = retilde_weights(SYSTEM, stride, 200)
        ok = ok and bounds_ok
        gaps = system_arrays(SYSTEM, 200).gaps
        regenerated = mtilde * np.sqrt(one_minus_pow(gaps, 2 * stride))
        phi = phi_coefficients(SYSTEM, 200)
        ulps = np.abs(regenerated - phi) / np.spacing(np.abs(phi))
        worst_ulps = max(worst_ulps, float(np.max(ulps)))
        ok = ok and bool(np.all(ulps <= 4.0))
        magnitudes = np.abs(mtilde)
        lower = 1.0 / math.sqrt(2.0 * stride)
        ok = ok and bool(np.all(magnitudes >= lower * (1 - 4e-16)))
        ok = ok and bool(np.all(magnitudes <= 1.0 + 4e-16))
    _criterion(5, "reweighting identity to 4 ulps + bounds", ok, f"worst {worst_ulps:.2f} ulps")


def test_criterion_6_defect_lemma_bound():
    ok = True
    details = []
    for stride in (2, 3):
        for label, pattern in (
            ("constant:1", ConstantPattern(stride, 1)),
            ("seeded:42", SeededPattern(stride, 42, 128)),
        ):
            universal = defect_upper_bound(SYSTEM, 40)
            points = list(defect_points(SYSTEM, pattern, 40, 1000))
            values, bound = [point.value for point in points], points[0].truncation_bound
            value0 = values[0]
            ok = ok and value0 <= universal + bound
            grid = [values[j] + bound for j in (0, 1, 2, 5, 10, 20)]
            ok = ok and all(a >= b - 1e-18 for a, b in zip(grid, grid[1:]))
            crossing = next((j for j, value in enumerate(values) if value + bound < 1e-6), None)
            ok = ok and crossing is not None
            details.append(f"N={stride} {label}: D(0)={value0:.3e}, <1e-6 at J={crossing}")
    _criterion(6, "defect sum bound and decay", ok, "; ".join(details))


def test_criterion_7_weaving_index():
    start = time.perf_counter()
    ok = True
    details = []
    for stride in (2, 3):
        result = find_weaving_index(SYSTEM, ConstantPattern(stride, 1), 40)
        reference = result.reference_bounds
        good = result.verified_bounds.a_est >= result.predicted_lower_bound - 1e-8
        good = good and reference == frame_bounds(SYSTEM, SubsampleScheme(stride), 40)
        ok = ok and good and result.defect < 0.5 * reference.a_est
        details.append(
            f"N={stride}: J={result.start_index}, "
            f"lambda_min={result.verified_bounds.a_est:.3e} >= "
            f"predicted={result.predicted_lower_bound:.3e}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _criterion(7, "weaving index with perturbation bound", ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_8_adversarial_certificate():
    start = time.perf_counter()
    ok = True
    for oracle in (OrbitFrameOracle(SYSTEM), OrthonormalBasisOracle()):
        certificate = build_adversarial_subsequence(oracle, 6)
        for level, bound in enumerate(certificate.step_bounds, start=1):
            ok = ok and bound <= 2.0 ** (-level)
        ok = ok and reverify_certificate(oracle, certificate) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _criterion(8, "adversarial subsequence certificates (L=6)", ok, f"{elapsed:.2f}s")


def test_criterion_9_union_decomposition():
    worst = 0.0
    ok = True
    for stride in (2, 3, 4):
        full = frame_operator_matrix(SYSTEM, SubsampleScheme(1, 0, 0), 20)
        union = sum(
            frame_operator_matrix(SYSTEM, SubsampleScheme(stride, offset, 0), 20)
            for offset in range(stride)
        )
        deviation = float(np.max(np.abs(union - full)))
        worst = max(worst, deviation)
        ok = ok and deviation <= 1e-12
    _criterion(9, "union decomposition of the full orbit", ok, f"worst deviation {worst:.2e}")


def test_criterion_10_reproduction_determinism(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["reproduce-paper", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli.main(["reproduce-paper", "--out", str(out)]) == 0
    second = out.read_bytes()
    first_lines = first.splitlines()
    second_lines = second.splitlines()
    ok = len(first_lines) == len(second_lines)
    differing = [
        (a, b) for a, b in zip(first_lines, second_lines) if a != b
    ]
    ok = ok and all(b"generated_at" in a for a, _ in differing)
    ok = ok and json.loads(first)["result"]["all_pass"] is True
    _criterion(
        10,
        "byte-identical reproduction reports",
        ok,
        f"{len(differing)} differing line(s), timestamp only",
    )
