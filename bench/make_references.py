"""Write bench/references.json: the expected outcome of every job a run can draw.

    python3 bench/make_references.py

Discrete outcomes and floats come from running each job once with the
package as it is when this script runs, so the references pin today's
answers. The bounds that need no trust in the package are computed here
with ``mpmath`` from closed forms:

- ``upper``: the smallest diagonal entry of each operator, a Rayleigh bound
  that any correct smallest eigenvalue (``A_est``) must stay under;
- ``a_ref``: the smallest eigenvalue of the three accuracy-reference frame
  operators, taken at two working precisions that must agree to 15 digits.

Every run rewrites the whole file from every workload's candidates. The
known defects are written without running them.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "references.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

# precision of the Rayleigh bounds; two working precisions for the eigenvalues
BOUND_DPS = 40
EIGEN_DPS = (120, 160)
AGREE_DIGITS = 15

KNOWN_DEFECTS = {
    "weave-alpha-1.05": "eigh clamps A_est to 0, so the weave search raises ValueError (ROADMAP item 3)",
    "bounds --M 0": "ValueError escapes main instead of exit 2 (ROADMAP item 5)",
    "check-carleson --n-max 300": "ValueError escapes main instead of exit 2 (ROADMAP item 5)",
}

_DEFAULTS = {"--alpha": "2.0", "--weight-value": "1.0", "--j": "0", "--K": "0"}


def _options(argv) -> dict:
    options = dict(_DEFAULTS)
    options.update(zip(argv[1::2], argv[2::2]))
    return options


def _gap(alpha, n):
    return mpmath.power(alpha, -n)


def _diagonal(alpha, weight, stride, exponent, n):
    """S_nn = |w|^2 (1 - l^2) l^(2p) / (1 - l^(2N)) for l = 1 - alpha^-n, via gaps."""
    g = _gap(alpha, n)
    log_l = mpmath.log1p(-g)
    return weight**2 * g * (2 - g) * mpmath.exp(2 * exponent * log_l) / -mpmath.expm1(2 * stride * log_l)


def scheme_upper(alpha: float, weight: float, stride: int, offset: int, start: int, dimension: int) -> float:
    with mp.workdps(BOUND_DPS):
        a, w = mpmath.mpf(alpha), mpmath.mpf(weight)
        exponent = offset + stride * start
        return float(min(_diagonal(a, w, stride, exponent, n) for n in range(1, dimension + 1)))


def estimate_upper(alpha: float, weight: float, picks, dimension: int) -> tuple:
    """(smallest diagonal entry, trace) of sum_{k in picks} |<e_j, T^k phi>|^2 over j <= dimension."""
    with mp.workdps(BOUND_DPS):
        a, w = mpmath.mpf(alpha), mpmath.mpf(weight)
        entries = []
        for j in range(1, dimension + 1):
            g = _gap(a, j)
            log_l = mpmath.log1p(-g)
            entries.append(w**2 * g * (2 - g) * mpmath.fsum(mpmath.exp(2 * k * log_l) for k in picks))
        return float(min(entries)), float(mpmath.fsum(entries))


def accuracy_reference(alpha: float, stride: int, offset: int, start: int, dimension: int) -> float:
    """Smallest eigenvalue of the unit-weight frame operator at two precisions."""
    values = []
    for dps in EIGEN_DPS:
        with mp.workdps(dps):
            a = mpmath.mpf(alpha)
            lam = [1 - _gap(a, n) for n in range(1, dimension + 1)]
            c = [mpmath.sqrt(1 - x * x) for x in lam]
            exponent = offset + stride * start
            matrix = mpmath.matrix(dimension, dimension)
            for m in range(dimension):
                for n in range(dimension):
                    w = lam[m] * lam[n]
                    matrix[m, n] = c[m] * c[n] * w**exponent / (1 - w**stride)
            values.append(min(mpmath.eigsy(matrix, eigvals_only=True)))
    with mp.workdps(EIGEN_DPS[-1]):
        agreement = abs(values[0] - values[1]) / abs(values[1])
        if agreement > mpmath.mpf(10) ** -AGREE_DIGITS:
            raise SystemExit(f"precisions {EIGEN_DPS} agree only to {agreement} for {alpha, stride}")
    return float(values[1])


def _run(argv, workdir: str):
    from carleson_frames.cli import main

    path = os.path.join(workdir, "report.json")
    if os.path.exists(path):
        os.unlink(path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv) + ["--out", path])
    report = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    return code, report, stderr.getvalue()


def record(slot: str, argv, workdir: str, accuracy: dict) -> dict:
    key = workloads.reference_key(argv)
    command = argv[0]
    options = _options(argv)
    reason = _defect_reason(slot, argv)
    if reason is not None:
        if command == "weave":
            return {"exit": [0, 1], "report": "any", "known_defect": reason}
        return {"exit": 2, "message_lines": 1, "known_defect": reason}
    code, report, stderr_text = _run(argv, workdir)
    if code == 2:
        lines = [line for line in stderr_text.splitlines() if line.strip()]
        return {"exit": 2, "message_lines": len(lines)}
    if report is None:
        raise SystemExit(f"{key}: exit {code} without a report")
    exact, close, floor = checks.extract(command, report["result"])
    entry = {"exit": code, "exact": exact, "close": close, "upper": {}}
    result = report["result"]
    alpha = float(options["--alpha"])
    weight = float(options["--weight-value"])
    if command == "bounds":
        stride, offset, start = int(options.get("--N", 1)), int(options["--j"]), int(options["--K"])
        dimension = int(options.get("--M", 40))
        bound = scheme_upper(alpha, weight, stride, offset, start, dimension)
        entry["upper"]["a_est"] = checks.upper_with_slack(bound, result["b_est"], dimension)
        case = (alpha, stride, offset, start, dimension)
        if case in workloads.ACCURACY_CASES:
            if case not in accuracy:
                accuracy[case] = accuracy_reference(*case)
            entry["a_ref"] = accuracy[case] * weight * weight
    elif command == "subsample-sweep":
        dimension = int(options.get("--M", 40))
        for i, row in enumerate(result["rows"]):
            bound = scheme_upper(alpha, weight, row["stride"], row["offset"], row["start"], dimension)
            entry["upper"][f"rows[{i}].a_est"] = checks.upper_with_slack(bound, row["b_est"], dimension)
    elif command == "weave":
        dimension = int(options.get("--M", 40))
        stride = int(options.get("--N", 2))
        reference = result["reference_bounds"]
        bound = scheme_upper(alpha, weight, stride, 0, 0, dimension)
        entry["upper"]["reference_bounds.a_est"] = checks.upper_with_slack(bound, reference["b_est"], dimension)
    elif command == "adversary" and result.get("built"):
        entry["upper"]["reverification_deviation"] = 1e-12
        if "picked_lower_bound_estimate" in result:
            dimension = int(options["--estimate-dim"])
            # the trace bounds the norm of the positive semidefinite estimate operator
            bound, trace = estimate_upper(alpha, weight, result["picked_indices"], dimension)
            entry["upper"]["picked_lower_bound_estimate"] = checks.upper_with_slack(bound, trace, dimension)
    return entry


def _defect_reason(slot: str, argv):
    if slot == "weave-alpha-1.05":
        return KNOWN_DEFECTS[slot]
    options = _options(argv)
    if argv[0] == "bounds" and options.get("--M") == "0":
        return KNOWN_DEFECTS["bounds --M 0"]
    if argv[0] == "check-carleson" and options.get("--n-max") == "300":
        return KNOWN_DEFECTS["check-carleson --n-max 300"]
    return None


def main() -> int:
    jobs = {}
    accuracy: dict = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as workdir:
        for workload in workloads.WORKLOADS:
            candidates = list(workloads.all_candidates(workload))
            for done, (slot, argv) in enumerate(candidates, 1):
                key = workloads.reference_key(argv)
                jobs[key] = record(slot, argv, workdir, accuracy)
                print(f"{workload} {done}/{len(candidates)} {key[:90]}", file=sys.stderr, flush=True)
    # one job per line, so a regenerated file diffs job by job
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in sorted(jobs.items())]
    REFERENCES.write_text('{"jobs": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
