"""Benchmark: time to a checked answer for seeded job mixes of the carleson-frames CLI.

    python3 bench/run.py --workload desk --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

One run is one fresh process and one workload. It drives
``carleson_frames.cli.main(argv)`` in-process as a single closed-loop client:
one job at a time, each writing its JSON report. Before each timed pass it
also times set-up in two fresh interpreters.
Jobs come in passes, each pass the workload's whole job list with new
parameters (see ``workloads.py``); passes run until the next one would
overrun ``--seconds`` or the distinct inputs are used up, and never fewer
than ``TIMED_PASSES``. After each pass every job's exit code and report are
checked against ``references.json``.

A fixed reference kernel, timed before every job, measures how fast the
shared host runs at that moment. A pass's calibrated time is its wall time
scaled by the kernel's nominal time over its median time in the pass, raised
to the workload's measured elasticity, so a slow spell of the host, which
slows the kernel and the jobs together, cancels. Each workload's kernel does
the kind of work its time goes to (``KERNELS``).
The wall-time metrics come from the first ``TIMED_PASSES`` passes only, so
two runs with the same seed time the same inputs whatever their speed.

With ``--trace 1`` the run alternates untraced and traced passes and reports
per-layer metrics from the traced ones (see ``tracing.py``), plus the
traced-minus-untraced overhead. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a result
file with the environment and every job's outcome goes to ``.bench_out/``.
``--workload all`` runs each workload in its own process and prints every
end-to-end metric by name and unit.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = "1"
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters timed before each timed pass: spread over the run, not one spell
SETUP_SAMPLES_PER_PASS = 2
SETUP_TIMEOUT_S = 60
# every run times these first passes of its seeded order; the wall metrics use no others
TIMED_PASSES = 8
# kernel runs before each job, and after the last job of a pass
KERNEL_REPEATS = 3
# workload: (pure-Python loop steps, size of one Hermitian eigh, nominal
# seconds, elasticity). The nominal time is the kernel's 10th percentile over
# 400 runs on the 2-vCPU Xeon host the benchmark was defined on, so calibrated
# seconds are about seconds on that host in a quiet spell. frames spends 85 %
# of its time in eigensolves of size 400 to 800, which a slow spell slows less
# than the size-128 kernel: its passes move as the kernel's time to the power
# 0.7. The others spend most of their time in pure Python, like their kernel
# (see NOTES.md).
KERNELS = {
    "certify": (2000, 64, 0.00105, 1.0),
    "frames": (0, 128, 0.0034, 0.7),
    "adversary": (2000, 64, 0.00105, 1.0),
    "desk": (2000, 64, 0.00105, 1.0),
}

# the bounded metrics of BENCHMARK.json; the uncalibrated wall time, job
# percentiles, error rate and accuracy digits are printed beside them (see
# NOTES.md for why)
END_TO_END = (
    ("wall_cal_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# fresh interpreter to ready: the CLI imported and LAPACK loaded by one eigensolve
_READY_PROBE = (
    "import carleson_frames.cli\n"
    "from carleson_frames.numerics import extremal_eigenvalues\n"
    "extremal_eigenvalues([[2.0, 0.0], [0.0, 1.0]])\n"
    "print('ready', flush=True)\n"
)


class Kernel:
    """Fixed work that does not use the package, timed to gauge the host's speed."""

    def __init__(self, loop_steps: int, eigen_size: int, nominal_s: float, elasticity: float):
        import numpy

        values = numpy.random.default_rng(0).standard_normal((2, eigen_size, eigen_size))
        matrix = values[0] + 1j * values[1]
        self._matrix = matrix + matrix.conj().T
        self._eigh = numpy.linalg.eigh
        self.loop_steps = loop_steps
        self.nominal_s = nominal_s
        self.elasticity = elasticity

    def run(self) -> None:
        z, total = 0.5 + 0.25j, 0.0
        for k in range(1, self.loop_steps):
            z = z * 0.999 + 0.001j
            total += abs(z) / (k + 1.0)
        self._eigh(self._matrix)

    def calibrate(self, wall_s: float, kernel_s: float) -> float:
        """``wall_s`` as it would read with the kernel at its nominal time."""
        return wall_s * (self.nominal_s / kernel_s) ** self.elasticity

    def times(self, repeats: int) -> list:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - start)
        return times


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def measure_setup(samples: int) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _READY_PROBE], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        ) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.communicate(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        times.append(ready - start)
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_library = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_library = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_library,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "notes": [tracing.FLOPS_NOTE],
    }


class Outcome:
    __slots__ = ("job", "exit_code", "error", "seconds", "report_path", "stderr", "problems", "digits", "kernel_s")

    def __init__(self, job, exit_code, error, seconds, report_path, stderr):
        self.job = job
        self.exit_code = exit_code
        self.error = error
        self.seconds = seconds
        self.report_path = report_path
        self.stderr = stderr
        self.problems = []
        self.digits = None
        self.kernel_s = None  # median reference-kernel time just before the job


def run_job(cli, job, workdir: Path, tracer) -> Outcome:
    path = workdir / f"{job.id}.json"
    argv = list(job.argv) + ["--out", str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code, error = None, None
    if tracer is not None:
        tracer.job = job.id
        tracer.begin(tracing.JOB_SPAN)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = cli.main(argv)
    except Exception:  # the job counts as failed; the run goes on
        error = traceback.format_exc(limit=-2)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    return Outcome(job, exit_code, error, seconds, path, stderr.getvalue())


def check_outcome(outcome: Outcome, reference) -> None:
    if reference is None:
        outcome.problems = ["no reference for this job"]
        return
    if outcome.error is not None:
        outcome.problems = ["raised " + outcome.error.strip().splitlines()[-1]]
        return
    report = None
    if outcome.report_path.exists():
        try:
            report = json.loads(outcome.report_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            outcome.problems = [f"report is not valid JSON: {exc}"]
            return
    outcome.problems = checks.check(outcome.job.argv[0], outcome.exit_code, report, outcome.stderr, reference)
    if "a_ref" in reference and report is not None:
        outcome.digits = checks.digits(report["result"].get("a_est"), reference["a_ref"])


def is_wrong(outcome: Outcome, reference) -> bool:
    """A failure that is not a documented defect raising as it does today."""
    if not outcome.problems:
        return False
    return not (reference and reference.get("known_defect") and outcome.error is not None)


class Pass:
    __slots__ = ("traced", "wall_s", "kernel_s", "calibrated_s")

    def __init__(self, traced, wall_s, kernel_s, calibrated_s):
        self.traced = traced
        self.wall_s = wall_s  # the sum of the pass's job times
        self.kernel_s = kernel_s  # median reference-kernel time around the pass's jobs
        self.calibrated_s = calibrated_s


def run_passes(cli, job_passes, references: dict, seconds: float, kernel: Kernel, tracer, setup_times):
    """Run passes until the next one would end after ``seconds``, checking each.

    At least TIMED_PASSES passes run (two with a tracer, which traces every
    second pass). Without a tracer, set-up is timed before each timed pass
    and appended to ``setup_times``. Returns the (traced, outcome) pairs and
    the Pass records.
    """
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    outcomes = []
    passes = []
    durations = []
    minimum = 2 if tracer is not None else TIMED_PASSES
    kernel.times(KERNEL_REPEATS)  # warm: the first eigensolve loads LAPACK
    try:
        start = time.perf_counter()
        for number, jobs in enumerate(job_passes):
            traced = tracer is not None and number % 2 == 1
            if number >= minimum and time.perf_counter() - start + statistics.median(durations) > seconds:
                break
            pass_start = time.perf_counter()
            if tracer is None and number < TIMED_PASSES:
                setup_times.extend(measure_setup(SETUP_SAMPLES_PER_PASS))
            kernel_s = []
            pass_outcomes = []
            if traced:
                tracer.install()
            try:
                for job in jobs:
                    before = kernel.times(KERNEL_REPEATS)
                    kernel_s.extend(before)
                    pass_outcomes.append(run_job(cli, job, workdir, tracer if traced else None))
                    pass_outcomes[-1].kernel_s = statistics.median(before)
                kernel_s.extend(kernel.times(KERNEL_REPEATS))
            finally:
                if traced:
                    tracer.uninstall()
            wall_s = sum(o.seconds for o in pass_outcomes)
            pass_kernel_s = statistics.median(kernel_s)
            passes.append(Pass(traced, wall_s, pass_kernel_s, kernel.calibrate(wall_s, pass_kernel_s)))
            for outcome in pass_outcomes:
                check_outcome(outcome, references.get(outcome.job.key))
                outcome.report_path.unlink(missing_ok=True)
            outcomes.extend((traced, o) for o in pass_outcomes)
            durations.append(time.perf_counter() - pass_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcomes, passes


def run(args) -> int:
    if not (SRC / "carleson_frames" / "cli.py").is_file():
        print(f"bench: no package source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"bench: missing {REFERENCES}; write it with bench/make_references.py", file=sys.stderr)
        return 2
    for name in _THREAD_VARIABLES:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))["jobs"]
    job_passes = workloads.passes(args.workload, args.seed)

    from carleson_frames import cli

    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    kernel = Kernel(*KERNELS[args.workload])
    outcomes, passes = run_passes(cli, job_passes, references, args.seconds, kernel, tracer, setup_times)
    untraced = [p for p in passes if not p.traced]
    timed = untraced[:TIMED_PASSES]

    failed = [o for _, o in outcomes if o.problems]
    wrong = [o for o in failed if is_wrong(o, references.get(o.job.key))]
    untraced_times = [o.seconds for traced, o in outcomes if not traced]
    digits = [o.digits for _, o in outcomes if o.digits is not None]
    if args.trace:
        traced = [p.calibrated_s for p in passes if p.traced]
        metrics = tracer.metrics(len(traced), traced, [p.calibrated_s for p in untraced])
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "wall_cal_s": statistics.median(p.calibrated_s for p in timed),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    samples = f"{len(untraced_times)} untraced jobs"
    extra = {
        "wall_s": (statistics.median(p.wall_s for p in timed), "s", f"median of {len(timed)} passes, not calibrated"),
        "kernel_s": (statistics.median(p.kernel_s for p in passes), "s", "median reference-kernel time"),
        "job_s_p50": (percentile(untraced_times, 0.5), "s", samples),
        "job_s_p90": (percentile(untraced_times, 0.9), "s", samples),
        "error_rate": (len(failed) / len(outcomes), "ratio", f"{len(failed)} failed of {len(outcomes)} attempted"),
    }
    if digits:
        extra["a_est_digits_min"] = (min(digits), "digits", f"{len(digits)} accuracy-case jobs")

    env = environment()
    print(
        f"bench: workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(passes)} passes, "
        f"{len(outcomes)} jobs, {sum(p.wall_s for p in passes):.2f} s in jobs"
        + (", distinct inputs used up" if len(passes) == len(job_passes) else "")
    )
    print(f"bench: environment {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for name, (value, unit, note) in extra.items():
        print(f"metric {name} {value:.6g} {unit} ({note})")
    for outcome in failed:
        reference = references.get(outcome.job.key) or {}
        known = f" [known defect: {reference['known_defect']}]" if reference.get("known_defect") else ""
        print(f"failed {outcome.job.id} {outcome.job.slot}: {'; '.join(outcome.problems)}{known}")

    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result)
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "extra_metrics": {name: {"value": v, "unit": u, "note": n} for name, (v, u, n) in extra.items()},
            "passes": [{"traced": p.traced, "wall_s": p.wall_s, "kernel_s": p.kernel_s} for p in passes],
            "setup_samples_s": setup_times,
            "jobs": [
                {
                    "id": o.job.id,
                    "slot": o.job.slot,
                    "key": o.job.key,
                    "traced": traced,
                    "seconds": o.seconds,
                    "kernel_s": o.kernel_s,
                    "exit_code": o.exit_code,
                    "problems": o.problems,
                    "error": o.error,
                }
                for traced, o in outcomes
            ],
        }
    )
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    if args.trace:
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
        if tracer.missing:
            print(f"bench: not traced, names missing from the package: {', '.join(tracer.missing)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric by name and unit."""
    status = 0
    rows = []
    for workload in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exit code {completed.returncode}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            if line.startswith(("metric ", "failed ")):
                rows.append(f"{workload:<10} {line}")
        result = json.loads(lines[-1])
        rows.append(f"{workload:<10} check correct={result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']}")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
