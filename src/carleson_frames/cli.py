"""Batch front end: JSON experiment configs in, deterministic reports out.

One analysis per invocation. Exit codes: 0 success, 1 negative analysis
verdict (where the run asserts one) or numerical non-convergence, 2 usage or
config errors. Reports embed the fully resolved configuration; the only
nondeterministic field is the `generated_at` timestamp in the meta header.
"""

import argparse
import datetime
import json
import math
import os
import sys

from . import __version__
from .adversarial import (
    OrbitFrameOracle,
    OrthonormalBasisOracle,
    SearchBudgetExceededError,
    build_adversarial_subsequence,
    estimate_subsequence_lower_bound,
    reverify_certificate,
)
from .carleson import Verdict, carleson_inf_estimate, drop_prefix_check, ratio_test
from .numerics import EigensolverError
from .orbit import (
    OrbitSystem,
    SubsampleScheme,
    bounds_from_matrix,
    frame_bounds,
    retilde_weights,
)
from .reporting import write_csv, write_json
from .sequences import (
    ConstantWeights,
    ExplicitSequence,
    ExplicitWeights,
    GeometricApproach,
    InvariantViolation,
    PowerSequence,
    TwoPointAugmented,
)
from .weaving import (
    ConstantPattern,
    ExplicitPattern,
    PeriodicPattern,
    SeededPattern,
    WeavingSearchError,
    defect_upper_bound,
    find_weaving_index,
    tail_defect,
    woven_frame_operator,
)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2

THREADS_ENV = "CARLESON_FRAMES_THREADS"

_SEQUENCE_KEYS = {
    "geometric": {"alpha"},
    "explicit": {"values"},
    "two_point": {"q", "base"},
    "power": {"exponent", "base"},
}
_WEIGHT_KEYS = {
    "constant": {"value"},
    "explicit": {"values", "c1", "c2"},
}
_PARAM_KEYS = {
    "check-carleson": {"n_max", "k_trunc", "fail_threshold", "drop_prefix", "assert_carleson"},
    "bounds": {"stride", "offset", "start", "dimension", "tol"},
    "subsample-sweep": {"strides", "starts", "dimension", "tol"},
    "weave": {"stride", "pattern", "safety", "dimension", "j_max", "tol"},
    "adversary": {"oracle", "levels", "budget", "estimate_dimension"},
    "reproduce-paper": {"dimension"},
}


class ConfigError(ValueError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_keys(mapping: dict, allowed: set, context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")


def _parse_complex(value):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"cannot parse complex number from {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"cannot parse complex number from {value!r}")


def sequence_from_config(config: dict):
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("sequence config must be an object with a 'kind' field")
    kind = config["kind"]
    if kind not in _SEQUENCE_KEYS:
        raise ConfigError(f"unknown sequence kind {kind!r}")
    _require_keys({k: v for k, v in config.items() if k != "kind"}, _SEQUENCE_KEYS[kind], "sequence")
    try:
        if kind == "geometric":
            return GeometricApproach(float(config["alpha"]))
        if kind == "explicit":
            return ExplicitSequence(tuple(_parse_complex(v) for v in config["values"]))
        if kind == "two_point":
            return TwoPointAugmented(float(config["q"]), sequence_from_config(config["base"]))
        return PowerSequence(sequence_from_config(config["base"]), int(config["exponent"]))
    except (KeyError, TypeError, ValueError, InvariantViolation) as exc:
        raise ConfigError(f"invalid sequence config: {exc}") from exc


def weights_from_config(config: dict):
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("weights config must be an object with a 'kind' field")
    kind = config["kind"]
    if kind not in _WEIGHT_KEYS:
        raise ConfigError(f"unknown weights kind {kind!r}")
    _require_keys({k: v for k, v in config.items() if k != "kind"}, _WEIGHT_KEYS[kind], "weights")
    try:
        if kind == "constant":
            return ConstantWeights(_parse_complex(config["value"]))
        return ExplicitWeights(
            tuple(_parse_complex(v) for v in config["values"]),
            float(config["c1"]),
            float(config["c2"]),
        )
    except (KeyError, TypeError, ValueError, InvariantViolation) as exc:
        raise ConfigError(f"invalid weights config: {exc}") from exc


def pattern_from_spec(spec: str, stride: int):
    try:
        kind, _, rest = spec.partition(":")
        if kind == "constant":
            return ConstantPattern(stride, int(rest))
        if kind == "periodic":
            return PeriodicPattern(stride, tuple(int(v) for v in rest.split(",")))
        if kind == "explicit":
            return ExplicitPattern(stride, tuple(int(v) for v in rest.split(",")) if rest else ())
        if kind == "seeded":
            seed_text, _, length_text = rest.partition(":")
            return SeededPattern(stride, int(seed_text), int(length_text))
    except (ValueError, InvariantViolation) as exc:
        raise ConfigError(f"invalid pattern spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown pattern kind in {spec!r}")


def _threads() -> int | None:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {value}")
    return value


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    _require_keys(data, {"sequence", "weights", "analysis", "params", "output"}, "config")
    return data


def _resolve(args, command: str):
    """Merge defaults <- config file <- flags into one resolved config dict."""
    file_config = _load_config_file(args.config) if getattr(args, "config", None) else {}
    analysis = file_config.get("analysis")
    if analysis is not None and analysis != command:
        raise ConfigError(f"config analysis {analysis!r} does not match subcommand {command!r}")

    sequence_config = file_config.get("sequence", {"kind": "geometric", "alpha": 2.0})
    if getattr(args, "values", None):
        sequence_config = {"kind": "explicit", "values": args.values.split(",")}
    elif getattr(args, "alpha", None) is not None:
        sequence_config = {"kind": "geometric", "alpha": args.alpha}
    if getattr(args, "two_point_q", None) is not None:
        sequence_config = {"kind": "two_point", "q": args.two_point_q, "base": sequence_config}
    if getattr(args, "power", None) is not None:
        sequence_config = {"kind": "power", "exponent": args.power, "base": sequence_config}

    weights_config = file_config.get("weights", {"kind": "constant", "value": 1.0})
    if getattr(args, "weight_value", None) is not None:
        weights_config = {"kind": "constant", "value": args.weight_value}

    params = dict(file_config.get("params", {}))
    _require_keys(params, _PARAM_KEYS[command], f"{command} params")

    output = dict(file_config.get("output", {}))
    _require_keys(output, {"json", "csv"}, "output")
    if getattr(args, "out", None):
        output["json"] = args.out
    if getattr(args, "csv", None):
        output["csv"] = args.csv

    return {
        "analysis": command,
        "sequence": sequence_config,
        "weights": weights_config,
        "params": params,
        "output": output,
    }


def _param(args, params: dict, flag_name: str, key: str, default, cast):
    value = getattr(args, flag_name, None)
    if value is not None:
        return cast(value)
    if key in params:
        return cast(params[key])
    return default


def _dimension(args, params: dict) -> int:
    dimension = _param(args, params, "dimension", "dimension", 40, int)
    _require(dimension >= 1, f"dimension (--M) must be >= 1, got {dimension}")
    return dimension


def _int_list(text) -> list:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    return [int(part) for part in str(text).split(",") if part != ""]


def _report(command: str, resolved: dict, result: dict) -> dict:
    return {
        "meta": {
            "tool": "carleson-frames",
            "version": __version__,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "threads": _threads(),
        },
        "config": resolved,
        "result": result,
    }


def _emit(report: dict, resolved: dict) -> None:
    path = resolved["output"].get("json")
    if path:
        write_json(path, report)


def _finite_or_inf(value: float):
    return value if math.isfinite(value) else "inf"


def _cmd_check_carleson(args) -> int:
    resolved = _resolve(args, "check-carleson")
    params = resolved["params"]
    sequence = sequence_from_config(resolved["sequence"])
    n_max = _param(args, params, "n_max", "n_max", 30, int)
    k_trunc = _param(args, params, "k_trunc", "k_trunc", 200, int)
    fail_threshold = _param(args, params, "fail_threshold", "fail_threshold", 1e-12, float)
    n_drop = _param(args, params, "drop_prefix", "drop_prefix", 0, int)
    do_assert = bool(getattr(args, "assert_carleson", False) or params.get("assert_carleson", False))
    _require(n_max >= 1, f"n_max (--n-max) must be >= 1, got {n_max}")
    _require(k_trunc >= n_max, f"k_trunc (--k-trunc) must be >= n_max = {n_max}, got {k_trunc}")
    _require(n_drop >= 0, f"drop_prefix (--drop-prefix) must be >= 0, got {n_drop}")
    resolved["params"] = {
        "n_max": n_max,
        "k_trunc": k_trunc,
        "fail_threshold": fail_threshold,
        "drop_prefix": n_drop,
        "assert_carleson": do_assert,
    }

    if n_drop > 0:
        report_data = drop_prefix_check(sequence, n_drop, n_max, k_trunc, fail_threshold)
    else:
        report_data = carleson_inf_estimate(sequence, n_max, k_trunc, fail_threshold)
    report = _report("check-carleson", resolved, report_data.to_jsonable())
    _emit(report, resolved)
    csv_path = resolved["output"].get("csv")
    if csv_path:
        write_csv(csv_path, ("n", "P_n", "tail_error"), report_data.csv_rows())
    print(report_data.to_text())
    if do_assert and report_data.verdict is not Verdict.CERTIFIED_HOLDS:
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_bounds(args) -> int:
    resolved = _resolve(args, "bounds")
    params = resolved["params"]
    system = OrbitSystem(
        sequence_from_config(resolved["sequence"]), weights_from_config(resolved["weights"])
    )
    scheme = SubsampleScheme(
        _param(args, params, "stride", "stride", 1, int),
        _param(args, params, "offset", "offset", 0, int),
        _param(args, params, "start", "start", 0, int),
    )
    dimension = _dimension(args, params)
    tol = _param(args, params, "tol", "tol", 1e-10, float)
    resolved["params"] = {
        "stride": scheme.stride,
        "offset": scheme.offset,
        "start": scheme.start,
        "dimension": dimension,
        "tol": tol,
    }
    estimate = frame_bounds(system, scheme, dimension, tol)
    report = _report("bounds", resolved, estimate.to_jsonable())
    _emit(report, resolved)
    print(
        f"scheme (N={scheme.stride}, j={scheme.offset}, K={scheme.start})  "
        f"M={dimension}  A_est={estimate.a_est:.17g}  B_est={estimate.b_est:.17g}"
    )
    return EXIT_OK


def _cmd_subsample_sweep(args) -> int:
    resolved = _resolve(args, "subsample-sweep")
    params = resolved["params"]
    system = OrbitSystem(
        sequence_from_config(resolved["sequence"]), weights_from_config(resolved["weights"])
    )
    strides = _param(args, params, "strides", "strides", [1, 2, 3, 5], _int_list)
    starts = _param(args, params, "starts", "starts", [0], _int_list)
    dimension = _dimension(args, params)
    tol = _param(args, params, "tol", "tol", 1e-10, float)
    resolved["params"] = {
        "strides": strides,
        "starts": starts,
        "dimension": dimension,
        "tol": tol,
    }
    rows = []
    for stride in strides:
        for start in starts:
            for offset in range(stride):
                estimate = frame_bounds(system, SubsampleScheme(stride, offset, start), dimension, tol)
                rows.append(
                    {
                        "stride": stride,
                        "offset": offset,
                        "start": start,
                        "a_est": estimate.a_est,
                        "b_est": estimate.b_est,
                    }
                )
    report = _report("subsample-sweep", resolved, {"dimension": dimension, "rows": rows})
    _emit(report, resolved)
    csv_path = resolved["output"].get("csv")
    if csv_path:
        write_csv(
            csv_path,
            ("N", "j", "K", "A_est", "B_est"),
            ((r["stride"], r["offset"], r["start"], r["a_est"], r["b_est"]) for r in rows),
        )
    print(f"{'N':>4} {'j':>4} {'K':>4} {'A_est':>24} {'B_est':>24}")
    for row in rows:
        print(
            f"{row['stride']:>4} {row['offset']:>4} {row['start']:>4} "
            f"{row['a_est']:>24.17g} {row['b_est']:>24.17g}"
        )
    return EXIT_OK


def _weave_not_found(resolved: dict, reference, message: str, sweep) -> int:
    report = _report(
        "weave",
        resolved,
        {
            "found": False,
            "message": message,
            "reference_bounds": reference.to_jsonable(),
            "sweep": [
                {
                    "start_index": point.start_index,
                    "value": point.value,
                    "truncation_bound": _finite_or_inf(point.truncation_bound),
                }
                for point in sweep
            ],
        },
    )
    _emit(report, resolved)
    print(f"weaving index not found: {message}")
    return EXIT_ANALYSIS


def _cmd_weave(args) -> int:
    resolved = _resolve(args, "weave")
    params = resolved["params"]
    system = OrbitSystem(
        sequence_from_config(resolved["sequence"]), weights_from_config(resolved["weights"])
    )
    stride = _param(args, params, "stride", "stride", 2, int)
    pattern_spec = _param(args, params, "pattern", "pattern", "constant:1", str)
    safety = _param(args, params, "safety", "safety", 0.5, float)
    dimension = _dimension(args, params)
    j_max = _param(args, params, "j_max", "j_max", 10_000, int)
    tol = _param(args, params, "tol", "tol", 1e-10, float)
    _require(0.0 < safety <= 1.0, f"safety (--safety) must lie in (0, 1], got {safety}")
    resolved["params"] = {
        "stride": stride,
        "pattern": pattern_spec,
        "safety": safety,
        "dimension": dimension,
        "j_max": j_max,
        "tol": tol,
    }
    pattern = pattern_from_spec(pattern_spec, stride)
    reference = frame_bounds(system, SubsampleScheme(stride), dimension, tol)
    if reference.a_est <= 0.0:
        message = (
            f"reference A_est = {reference.a_est!r} at M={dimension} is below the "
            "eigensolver's resolution, so no defect threshold can be set"
        )
        return _weave_not_found(resolved, reference, message, ())
    try:
        result = find_weaving_index(
            system, pattern, reference.a_est, safety, dimension, j_max, tol
        )
    except WeavingSearchError as exc:
        return _weave_not_found(resolved, reference, str(exc), exc.sweep)
    payload = result.to_jsonable()
    payload["found"] = True
    payload["reference_bounds"] = reference.to_jsonable()
    report = _report("weave", resolved, payload)
    _emit(report, resolved)
    csv_path = resolved["output"].get("csv")
    if csv_path:
        write_csv(
            csv_path,
            ("J", "defect", "truncation_bound"),
            ((p.start_index, p.value, p.truncation_bound) for p in result.sweep),
        )
    print(
        f"weaving index J={result.start_index}  defect={result.defect:.17g}  "
        f"predicted lower bound={result.predicted_lower_bound:.17g}  "
        f"verified lambda_min={result.verified_bounds.a_est:.17g}"
    )
    return EXIT_OK


def _cmd_adversary(args) -> int:
    resolved = _resolve(args, "adversary")
    params = resolved["params"]
    oracle_kind = _param(args, params, "oracle", "oracle", "orbit", str)
    levels = _param(args, params, "levels", "levels", 6, int)
    budget = _param(args, params, "budget", "budget", 10**6, int)
    estimate_dimension = _param(args, params, "estimate_dimension", "estimate_dimension", 0, int)
    _require(levels >= 1, f"levels (--L) must be >= 1, got {levels}")
    _require(budget >= 1, f"budget (--budget) must be >= 1, got {budget}")
    resolved["params"] = {
        "oracle": oracle_kind,
        "levels": levels,
        "budget": budget,
        "estimate_dimension": estimate_dimension,
    }
    if oracle_kind == "orbit":
        oracle = OrbitFrameOracle(
            OrbitSystem(
                sequence_from_config(resolved["sequence"]),
                weights_from_config(resolved["weights"]),
            )
        )
    elif oracle_kind == "orthonormal":
        oracle = OrthonormalBasisOracle()
    else:
        raise ConfigError(f"unknown oracle kind {oracle_kind!r}")
    try:
        certificate = build_adversarial_subsequence(oracle, levels, budget)
    except SearchBudgetExceededError as exc:
        report = _report("adversary", resolved, {"built": False, "message": str(exc)})
        _emit(report, resolved)
        print(f"adversarial construction failed: {exc}")
        return EXIT_ANALYSIS
    deviation = reverify_certificate(oracle, certificate)
    payload = certificate.to_jsonable()
    payload["built"] = True
    payload["reverification_deviation"] = deviation
    if estimate_dimension > 0:
        payload["picked_lower_bound_estimate"] = estimate_subsequence_lower_bound(
            oracle, certificate.picked_indices, estimate_dimension
        )
    report = _report("adversary", resolved, payload)
    _emit(report, resolved)
    print(f"picked indices: {list(certificate.picked_indices)}")
    print(f"witnesses:      {list(certificate.witnesses)}")
    for step in certificate.steps:
        print(
            f"level {step.level}: bound {step.bound:.17g} <= 2^-{step.level} = {step.threshold:.17g}"
        )
    print(f"reverification deviation: {deviation:.3e}")
    return EXIT_OK


def _reproduction_checks(dimension: int) -> list:
    """The deterministic desk-scale reproduction suite."""
    checks = []
    system = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))

    for alpha in (1.5, 2.0, 4.0):
        seq = GeometricApproach(alpha)
        report = carleson_inf_estimate(seq, 30, 200)
        ratio = ratio_test(seq, 200)
        checks.append(
            {
                "name": f"carleson-geometric-alpha-{alpha:g}",
                "pass": report.verdict is Verdict.CERTIFIED_HOLDS
                and ratio.certified_c == 1.0 / alpha,
                "verdict": report.verdict.value,
                "ratio_sup": ratio.ratio_sup,
                "certified_c": ratio.certified_c,
                "inf_estimate": report.inf_estimate,
            }
        )

    for q in (0.1, 0.3, 0.7):
        seq = PowerSequence(TwoPointAugmented(q, GeometricApproach(2.0)), 2)
        report = carleson_inf_estimate(seq, 10, 100)
        checks.append(
            {
                "name": f"squared-two-point-counterexample-q-{q:g}",
                "pass": report.verdict is Verdict.CERTIFIED_FAILS and report.inf_estimate == 0.0,
                "verdict": report.verdict.value,
                "inf_estimate": report.inf_estimate,
            }
        )

    for stride in (2, 3, 5):
        mtilde, bounds_ok = retilde_weights(system, stride, 200)
        magnitudes = [abs(value) for value in mtilde]
        checks.append(
            {
                "name": f"reweighting-bounds-N-{stride}",
                "pass": bounds_ok,
                "lower_required": system.weights.c1 / math.sqrt(2.0 * stride),
                "upper_required": system.weights.c2,
                "min_magnitude": min(magnitudes),
                "max_magnitude": max(magnitudes),
            }
        )

    for stride in (2, 3):
        for label, pattern in (
            ("constant-1", ConstantPattern(stride, 1)),
            ("seeded-42", SeededPattern(stride, 42, 128)),
        ):
            universal = defect_upper_bound(system, dimension)
            grid = [tail_defect(system, pattern, j, dimension) for j in (0, 1, 2, 5, 10, 20)]
            values = [value + bound for value, bound in grid]
            monotone = all(values[i] >= values[i + 1] for i in range(len(values) - 1))
            below_threshold = None
            for j in range(0, 1001):
                value, bound = tail_defect(system, pattern, j, dimension)
                if value + bound < 1e-6:
                    below_threshold = j
                    break
            checks.append(
                {
                    "name": f"defect-bound-N-{stride}-{label}",
                    "pass": grid[0][0] <= universal + grid[0][1]
                    and monotone
                    and below_threshold is not None,
                    "defect_at_0": grid[0][0],
                    "universal_bound": universal,
                    "monotone_on_grid": monotone,
                    "first_index_below_1e-6": below_threshold,
                }
            )

    for stride in (2, 3):
        reference = frame_bounds(system, SubsampleScheme(stride), dimension)
        result = find_weaving_index(
            system, ConstantPattern(stride, 1), reference.a_est, 0.5, dimension
        )
        verified_ok = (
            result.verified_bounds.a_est >= result.predicted_lower_bound - 1e-8
        )
        # empirical probe of the J=0 weaving question: reported, never asserted
        j0_matrix = woven_frame_operator(system, ConstantPattern(stride, 1), 0, dimension)
        j0_bounds = bounds_from_matrix(j0_matrix, dimension)
        checks.append(
            {
                "name": f"weaving-index-N-{stride}",
                "pass": verified_ok,
                "J": result.start_index,
                "defect": result.defect,
                "predicted_lower_bound": result.predicted_lower_bound,
                "verified_lambda_min": result.verified_bounds.a_est,
                "j0_probe_lambda_min": j0_bounds.a_est,
            }
        )

    for label, oracle in (
        ("orbit", OrbitFrameOracle(system)),
        ("orthonormal", OrthonormalBasisOracle()),
    ):
        certificate = build_adversarial_subsequence(oracle, 6)
        deviation = reverify_certificate(oracle, certificate)
        bounds_ok = all(
            step.bound <= step.threshold for step in certificate.steps
        )
        checks.append(
            {
                "name": f"adversary-L6-{label}",
                "pass": bounds_ok and deviation <= 1e-12,
                "picked_indices": list(certificate.picked_indices),
                "witnesses": list(certificate.witnesses),
                "step_bounds": list(certificate.step_bounds),
                "reverification_deviation": deviation,
            }
        )

    return checks


def _cmd_reproduce_paper(args) -> int:
    resolved = _resolve(args, "reproduce-paper")
    params = resolved["params"]
    dimension = _dimension(args, params)
    resolved["params"] = {"dimension": dimension}
    # the suite pins its own systems; defaults would be misleading audit trail
    resolved.pop("sequence", None)
    resolved.pop("weights", None)
    checks = _reproduction_checks(dimension)
    all_pass = all(check["pass"] for check in checks)
    report = _report(
        "reproduce-paper", resolved, {"checks": checks, "all_pass": all_pass}
    )
    _emit(report, resolved)
    for check in checks:
        print(f"{'PASS' if check['pass'] else 'FAIL'}  {check['name']}")
    print(f"{'PASS' if all_pass else 'FAIL'}  overall")
    return EXIT_OK if all_pass else EXIT_ANALYSIS


def _add_sequence_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, help="geometric sequence 1 - alpha^-k")
    parser.add_argument(
        "--values", type=str, help="comma-separated explicit sequence values (complex literals)"
    )
    parser.add_argument(
        "--two-point-q", dest="two_point_q", type=float, help="prepend q, -q to the sequence"
    )
    parser.add_argument("--power", type=int, help="raise the sequence entrywise to this power")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, help="JSON experiment config file")
    parser.add_argument("--out", type=str, help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carleson-frames",
        description="Operator-orbit frame analyses on the unit disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-carleson", help="certify or refute the Carleson condition")
    _add_common_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--k-trunc", dest="k_trunc", type=int)
    p.add_argument("--fail-threshold", dest="fail_threshold", type=float)
    p.add_argument("--drop-prefix", dest="drop_prefix", type=int)
    p.add_argument("--assert-carleson", dest="assert_carleson", action="store_true")
    p.add_argument("--csv", type=str)
    p.set_defaults(func=_cmd_check_carleson)

    p = sub.add_parser("bounds", help="frame-bound estimates for one subsample scheme")
    _add_common_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--weight-value", dest="weight_value", type=float)
    p.add_argument("--N", dest="stride", type=int)
    p.add_argument("--j", dest="offset", type=int)
    p.add_argument("--K", dest="start", type=int)
    p.add_argument("--M", dest="dimension", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("subsample-sweep", help="sweep (N, j, K) schemes and tabulate bounds")
    _add_common_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--weight-value", dest="weight_value", type=float)
    p.add_argument("--N", dest="strides", type=str, help="comma-separated stride list")
    p.add_argument("--K", dest="starts", type=str, help="comma-separated start list")
    p.add_argument("--M", dest="dimension", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--csv", type=str)
    p.set_defaults(func=_cmd_subsample_sweep)

    p = sub.add_parser("weave", help="find and verify a weaving index")
    _add_common_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--weight-value", dest="weight_value", type=float)
    p.add_argument("--N", dest="stride", type=int)
    p.add_argument("--pattern", type=str, help="constant:J | periodic:a,b,.. | explicit:a,b,.. | seeded:SEED:LEN")
    p.add_argument("--safety", type=float)
    p.add_argument("--M", dest="dimension", type=int)
    p.add_argument("--J-max", dest="j_max", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--csv", type=str)
    p.set_defaults(func=_cmd_weave)

    p = sub.add_parser("adversary", help="build an adversarial non-frame subsequence certificate")
    _add_common_flags(p)
    _add_sequence_flags(p)
    p.add_argument("--weight-value", dest="weight_value", type=float)
    p.add_argument("--oracle", type=str, choices=("orbit", "orthonormal"))
    p.add_argument("--L", dest="levels", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--estimate-dim", dest="estimate_dimension", type=int)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("reproduce-paper", help="run the full desk-scale reproduction suite")
    _add_common_flags(p)
    p.add_argument("--M", dest="dimension", type=int)
    p.set_defaults(func=_cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EigensolverError, SearchBudgetExceededError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except InvariantViolation as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
