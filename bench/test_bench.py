"""Tests of the benchmark itself: job lists, reference coverage, output check, tracing.

    python3 -m pytest bench -q
"""

import copy
import json
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SIZE_FLAGS = ("--M", "--k-trunc", "--n-max", "--L", "--estimate-dim", "--N", "--K", "--J-max")


@pytest.fixture(scope="module")
def references():
    return json.loads((BENCH / "references.json").read_text(encoding="utf-8"))["jobs"]


def _sizes(job):
    options = dict(zip(job.argv[1::2], job.argv[2::2]))
    return (job.argv[0], job.slot) + tuple(options.get(flag) for flag in SIZE_FLAGS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_job_lists(workload):
    assert workloads.passes(workload, 11) == workloads.passes(workload, 11)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_parameters_at_the_same_sizes(workload):
    first, second = workloads.passes(workload, 1), workloads.passes(workload, 2)
    for one, other in zip(first, second):
        assert Counter(map(_sizes, one)) == Counter(map(_sizes, other))
    assert {job.key for job in first[0]} != {job.key for job in second[0]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_run_contains_duplicate_jobs(workload):
    for seed in (1, 2, 3):
        keys = Counter(job.key for jobs in workloads.passes(workload, seed) for job in jobs)
        duplicated = {key for key, count in keys.items() if count > 1}
        # reproduce-paper takes no parameter besides M
        assert duplicated <= {"reproduce-paper --M 40"}


def test_desk_has_at_least_100_jobs_of_every_subcommand():
    for jobs in workloads.passes("desk", 5):
        assert len(jobs) >= 100
        commands = {job.argv[0] for job in jobs}
        assert commands == {"check-carleson", "bounds", "subsample-sweep", "weave", "adversary", "reproduce-paper"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_candidate_job_has_a_reference(workload, references):
    missing = [argv for _, argv in workloads.all_candidates(workload) if workloads.reference_key(argv) not in references]
    assert not missing


def test_benchmark_json_names_the_metrics_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_every_workload_has_a_kernel_and_enough_passes_to_time():
    assert set(run.KERNELS) == set(workloads.WORKLOADS)
    assert run.TIMED_PASSES <= workloads.MAX_PASSES
    for workload in workloads.WORKLOADS:
        times = run.Kernel(*run.KERNELS[workload]).times(2)
        assert len(times) == 2 and min(times) > 0


def test_calibration_scales_by_nominal_over_measured_kernel_time():
    kernel = run.Kernel(10, 4, 0.002, 1.0)
    assert kernel.calibrate(6.0, 0.003) == pytest.approx(4.0)
    assert kernel.calibrate(6.0, 0.002) == 6.0
    damped = run.Kernel(10, 4, 0.002, 0.5)
    assert damped.calibrate(6.0, 0.008) == pytest.approx(3.0)


def _run_and_load(argv, tmp_path):
    from carleson_frames import cli

    job = workloads.Job("t-000", "test", tuple(argv))
    outcome = run.run_job(cli, job, tmp_path, None)
    report = json.loads(outcome.report_path.read_text(encoding="utf-8"))
    return outcome, report


def _desk_job(references, command, **require):
    for _, argv in workloads.all_candidates("desk"):
        reference = references[workloads.reference_key(argv)]
        if argv[0] == command and "known_defect" not in reference and all(
            reference.get("exact", {}).get(k) == v for k, v in require.items()
        ):
            return argv, reference
    raise AssertionError(f"no desk job for {command}")


def test_output_check_rejects_a_flipped_verdict(references, tmp_path):
    argv, reference = _desk_job(references, "check-carleson", verdict="CertifiedHolds")
    outcome, report = _run_and_load(argv, tmp_path)
    assert checks.check(argv[0], outcome.exit_code, report, outcome.stderr, reference) == []
    report["result"]["verdict"] = "Inconclusive"
    assert checks.check(argv[0], outcome.exit_code, report, outcome.stderr, reference)


def test_output_check_rejects_a_perturbed_picked_index(references, tmp_path):
    argv, reference = _desk_job(references, "adversary", built=True)
    outcome, report = _run_and_load(argv, tmp_path)
    assert checks.check(argv[0], outcome.exit_code, report, outcome.stderr, reference) == []
    report["result"]["picked_indices"][-1] += 1
    assert checks.check(argv[0], outcome.exit_code, report, outcome.stderr, reference)


def test_output_check_rejects_b_est_off_by_1e_6_relative(references, tmp_path):
    argv, reference = _desk_job(references, "bounds")
    outcome, report = _run_and_load(argv, tmp_path)
    assert checks.check(argv[0], outcome.exit_code, report, outcome.stderr, reference) == []
    perturbed = copy.deepcopy(report)
    perturbed["result"]["b_est"] *= 1.0 + 1e-6
    assert checks.check(argv[0], outcome.exit_code, perturbed, outcome.stderr, reference)
    above = copy.deepcopy(report)
    above["result"]["a_est"] = reference["upper"]["a_est"] * 1.01
    assert checks.check(argv[0], outcome.exit_code, above, outcome.stderr, reference)


def test_digits_against_the_accuracy_reference():
    assert checks.digits(0.0, 2.7e-55) == 0.0
    assert checks.digits(2.7e-55, 2.7e-55) == 17.0
    assert 9.9 < checks.digits(1.0 + 1e-10, 1.0) < 10.1


KNOWN_DEFECT_SLOTS = {"frames": {"weave-alpha-1.05"}, "desk": {"invalid-parameters"}}


@pytest.mark.parametrize("workload", sorted(KNOWN_DEFECT_SLOTS))
def test_known_failing_jobs_are_in_every_pass(workload, references):
    for seed in (1, 2):
        for jobs in workloads.passes(workload, seed):
            defects = [job for job in jobs if references[job.key].get("known_defect")]
            assert {job.slot for job in defects} == KNOWN_DEFECT_SLOTS[workload]


def test_a_raising_known_defect_counts_as_failed_but_not_wrong(references, tmp_path):
    job = next(job for job in workloads.passes("desk", 1)[0] if references[job.key].get("known_defect"))
    outcome = run.Outcome(job, None, "Traceback ...\nValueError: dimension must be >= 1\n", 0.001,
                          tmp_path / "none.json", "")
    run.check_outcome(outcome, references[job.key])
    assert outcome.problems
    assert not run.is_wrong(outcome, references[job.key])
    wrong_exit = run.Outcome(job, 1, None, 0.001, tmp_path / "none.json", "error\n")
    run.check_outcome(wrong_exit, references[job.key])
    assert run.is_wrong(wrong_exit, references[job.key])


def test_known_defects_expect_the_documented_outcome(references):
    for _, argv in workloads.all_candidates("desk"):
        reference = references[workloads.reference_key(argv)]
        if argv[0] == "bounds" and "--M" in argv and argv[argv.index("--M") + 1] == "0":
            assert reference["exit"] == 2 and reference["message_lines"] == 1
    for _, argv in workloads.all_candidates("frames"):
        reference = references[workloads.reference_key(argv)]
        if reference.get("known_defect"):
            assert reference["exit"] == [0, 1] and reference["report"] == "any"


def test_tracer_records_spans_and_restores_the_package(tmp_path):
    from carleson_frames import cli, numerics, orbit

    original = orbit.extremal_eigenvalues
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert orbit.extremal_eigenvalues is not original
        job = workloads.Job("t-000", "test", ("bounds", "--alpha", "2.0", "--N", "2", "--M", "30"))
        outcome = run.run_job(cli, job, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert outcome.exit_code == 0
    assert orbit.extremal_eigenvalues is original is numerics.extremal_eigenvalues
    assert not tracer.missing
    metrics = tracer.metrics(1, [1.0], [0.5])
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    assert metrics["numerics.eigensolve.calls"] == 1
    assert metrics["numerics.eigensolve.dim_max"] == 30
    assert metrics["orbit.assembly.entries"] == 900
    assert metrics["reporting.files"] == 1
    assert metrics["sequences.point_evals"] > 0
    names = {span[1] for span in tracer.spans}
    assert {tracing.JOB_SPAN, "numerics.eigensolve", tracing.HERMITIAN_SPAN, "sequences.validate"} <= names
