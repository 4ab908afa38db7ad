"""Output check: compare a job's exit code and JSON report with its reference.

A reference record has four parts:

- ``exit``: the expected exit code, or a list of acceptable codes;
- ``exact``: discrete outcomes (verdicts, picked indices, witnesses, weaving J,
  pass flags) that must match exactly;
- ``close``: floats (``B_est``, ``inf_estimate``, defect values, step bounds)
  that must match to a relative ``REL_TOL``;
- ``upper``: quantities that sit on an eigensolver noise floor (``A_est`` and
  other smallest eigenvalues). Each must lie in ``[0, upper]``, where ``upper``
  is a rigorous bound computed independently of the package (the smallest
  diagonal entry of the operator, a Rayleigh quotient), widened by the
  eigensolver's backward error.

Records with ``"message_lines": 1`` expect no report and exactly one line on
standard error; ``"report": "any"`` accepts any report whose ``found`` flag
agrees with the exit code.
"""

import math

REL_TOL = 1e-9
_EPS = 2.0**-52

# floats that depend on the smallest eigenvalue of an operator: range-checked
# through `upper`, or not checked where no independent bound is at hand
_NOISE_FLOOR_KEYS = {
    "a_est",
    "a_est_used",
    "predicted_lower_bound",
    "verified_lambda_min",
    "j0_probe_lambda_min",
    "picked_lower_bound_estimate",
    "reverification_deviation",
    "eig_residual",
}


def _sum(values) -> float:
    return math.fsum(values)


def extract(command: str, result: dict) -> tuple:
    """(exact, close, floor) views of one report's ``result`` section.

    ``floor`` maps noise-floor quantities to their values, for the ``upper``
    check.
    """
    exact, close, floor = {}, {}, {}
    if command == "check-carleson":
        products = result["products"]
        exact["verdict"] = result["verdict"]
        exact["n_products"] = len(products)
        exact["zero_products"] = sum(1 for p in products if p["value"] == 0.0)
        exact["infinite_tails"] = sum(1 for p in products if p["tail_error"] == "inf")
        close["inf_estimate"] = result["inf_estimate"]
        close["certified_c"] = result["certified_c"]
        close["ratio_sup"] = result["ratio_sup"]
        close["products_sum"] = _sum(p["value"] for p in products)
        close["tails_sum"] = _sum(p["tail_error"] for p in products if p["tail_error"] != "inf")
        if result.get("n_drop"):
            exact["n_drop"] = result["n_drop"]
            close["dropped_sum"] = _sum(p["value"] for p in result["dropped_products"])
    elif command == "bounds":
        exact["dimension"] = result["dimension"]
        exact["scheme"] = result["scheme"]
        close["b_est"] = result["b_est"]
        floor["a_est"] = result["a_est"]
    elif command == "subsample-sweep":
        rows = result["rows"]
        exact["schemes"] = [[r["stride"], r["offset"], r["start"]] for r in rows]
        close["b_est"] = [r["b_est"] for r in rows]
        for i, r in enumerate(rows):
            floor[f"rows[{i}].a_est"] = r["a_est"]
    elif command == "weave":
        exact["found"] = result["found"]
        sweep = result["sweep"]
        exact["sweep_points"] = len(sweep)
        close["sweep_values_sum"] = _sum(p["value"] for p in sweep)
        close["last_sweep_value"] = sweep[-1]["value"] if sweep else 0.0
        close["reference_b_est"] = result["reference_bounds"]["b_est"]
        reference = result["reference_bounds"]
        floor["reference_bounds.a_est"] = reference["a_est"]
        if result["found"]:
            exact["start_index"] = result["start_index"]
            close["defect"] = result["defect"]
            close["verified_b_est"] = result["verified_bounds"]["b_est"]
    elif command == "adversary":
        exact["built"] = result["built"]
        if result["built"]:
            exact["picked_indices"] = result["picked_indices"]
            exact["witnesses"] = result["witnesses"]
            close["step_bounds"] = result["step_bounds"]
            close["initial_tail"] = result["initial_tail"]
            floor["reverification_deviation"] = result["reverification_deviation"]
            if "picked_lower_bound_estimate" in result:
                floor["picked_lower_bound_estimate"] = result["picked_lower_bound_estimate"]
    elif command == "reproduce-paper":
        exact["all_pass"] = result["all_pass"]
        for check in result["checks"]:
            prefix = check["name"]
            for key, value in check.items():
                if key == "name" or key in _NOISE_FLOOR_KEYS:
                    continue
                if isinstance(value, float) or (
                    isinstance(value, list) and value and isinstance(value[0], float)
                ):
                    close[f"{prefix}.{key}"] = value
                else:
                    exact[f"{prefix}.{key}"] = value
    else:
        raise ValueError(f"no extractor for command {command!r}")
    return exact, close, floor


def _close(actual, expected) -> bool:
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_close(a, e) for a, e in zip(actual, expected))
        )
    if expected is None or actual is None:
        return actual is expected
    if actual == expected:
        return True
    if not (math.isfinite(actual) and math.isfinite(expected)):
        return False
    return abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected))


def upper_with_slack(upper: float, b_est: float, dimension: int) -> float:
    """A Rayleigh bound widened by the eigensolver's backward error, ~ M eps ||S||."""
    return upper + 4.0 * dimension * _EPS * abs(b_est)


def check(command: str, exit_code, report, stderr_text: str, reference: dict) -> list:
    """Every way the outputs disagree with the reference; empty when they agree."""
    problems = []
    allowed = reference["exit"] if isinstance(reference["exit"], list) else [reference["exit"]]
    if exit_code not in allowed:
        problems.append(f"exit code {exit_code}, expected {reference['exit']}")
        return problems
    if reference.get("message_lines") is not None:
        lines = [line for line in stderr_text.splitlines() if line.strip()]
        if len(lines) != reference["message_lines"]:
            problems.append(f"{len(lines)} lines on standard error, expected {reference['message_lines']}")
        return problems
    if report is None:
        return ["no report written"]
    result = report.get("result")
    if not isinstance(result, dict):
        return ["report has no result section"]
    if reference.get("report") == "any":
        if command == "weave" and result.get("found") is not (exit_code == 0):
            problems.append("weave report's found flag disagrees with its exit code")
        return problems
    try:
        exact, close, floor = extract(command, result)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report is missing a field: {exc!r}"]
    for key, expected in reference.get("exact", {}).items():
        if exact.get(key) != expected:
            problems.append(f"{key}: {exact.get(key)!r} != expected {expected!r}")
    for key, expected in reference.get("close", {}).items():
        if not _close(close.get(key), expected):
            problems.append(f"{key}: {close.get(key)!r} differs from {expected!r} beyond {REL_TOL:g}")
    for key, bound in reference.get("upper", {}).items():
        if key not in floor:
            problems.append(f"{key}: missing")
            continue
        value = floor[key]
        if not (isinstance(value, (int, float)) and 0.0 <= value <= bound):
            problems.append(f"{key}: {value!r} outside [0, {bound!r}]")
    return problems


def digits(value: float, reference: float) -> float:
    """Correct significant digits of ``value`` against ``reference`` (0 to 17)."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)) or value <= 0.0:
        return 0.0
    error = abs(value - reference) / abs(reference)
    if error == 0.0:
        return 17.0
    return min(17.0, max(0.0, -math.log10(error)))
