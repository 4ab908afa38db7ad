"""Batch front end: JSON experiment configs in, deterministic reports out.

One analysis per invocation. Exit codes: 0 success, 1 negative analysis
verdict (where the run asserts one) or numerical non-convergence, 2 usage or
config errors, including out-of-range or malformed parameters and inputs the
library rejects (each with one line on standard error and no report).
Reports embed the fully resolved configuration; the only nondeterministic
field is the `generated_at` timestamp in the meta header.

Every subcommand parameter is one row of `PARAMS`, which gives its flag, its
config-file key, its default, its range check and its echo in `config.params`;
flags override file values, which override defaults.
"""

import argparse
import datetime
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

from . import __version__
from .adversarial import (
    DEFAULT_SEARCH_BUDGET,
    OrbitFrameOracle,
    OrthonormalBasisOracle,
    SearchBudgetExceededError,
    build_adversarial_subsequence,
    estimate_subsequence_lower_bound,
    reverify_certificate,
)
from .carleson import (
    DEFAULT_FAIL_THRESHOLD,
    Verdict,
    carleson_inf_estimate,
    drop_prefix_check,
)
from .numerics import EigensolverError
from .orbit import (
    DEFAULT_DIMENSION,
    DEFAULT_EIG_TOL,
    OrbitSystem,
    SubsampleScheme,
    _bounds,
    frame_bounds,
    retilde_weights,
    sweep_bounds,
)
from .reporting import jsonable, write_csv, write_json
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
    DEFAULT_J_MAX,
    DEFAULT_SAFETY,
    ConstantPattern,
    ExplicitPattern,
    PeriodicPattern,
    SeededPattern,
    WeavingSearchError,
    defect_curve,
    defect_points,
    defect_upper_bound,
    find_weaving_index,
    woven_frame_operator,
)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2

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


class ConfigError(ValueError):
    pass


# Casts of a flag string or a config-file value. A JSON value of the wrong
# type raises rather than being coerced: 2.7 is no integer, "false" no boolean.
def _integer(value) -> int:
    if isinstance(value, (bool, float)):
        raise TypeError(value)
    return int(value)


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _number(value) -> float:  # a config-file real: a JSON number only
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _int_list(text) -> list:
    if isinstance(text, (list, tuple)):
        return [_integer(v) for v in text]
    return [int(part) for part in str(text).split(",") if part != ""]


class Param(NamedTuple):
    """One parameter of one subcommand. `name` is its config-file key and report
    field; `cast` reads a flag string or a file value; `valid` is (description,
    predicate) on the cast value, or None when every castable value is valid."""

    command: str
    name: str
    flag: str
    default: object
    cast: Callable
    valid: tuple | None


_AT_LEAST_0 = (">= 0", lambda v: v >= 0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_FINITE_POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)

PARAMS = (
    Param("check-carleson", "n_max", "--n-max", 30, _integer, _AT_LEAST_1),
    Param("check-carleson", "k_trunc", "--k-trunc", 200, _integer, None),
    Param("check-carleson", "fail_threshold", "--fail-threshold", DEFAULT_FAIL_THRESHOLD, _real,
          ("finite", math.isfinite)),
    Param("check-carleson", "drop_prefix", "--drop-prefix", 0, _integer, _AT_LEAST_0),
    Param("check-carleson", "assert_carleson", "--assert-carleson", False, _boolean, None),
    Param("bounds", "stride", "--N", 1, _integer, _AT_LEAST_1),
    Param("bounds", "offset", "--j", 0, _integer, None),
    Param("bounds", "start", "--K", 0, _integer, _AT_LEAST_0),
    Param("bounds", "dimension", "--M", DEFAULT_DIMENSION, _integer, _AT_LEAST_1),
    Param("bounds", "tol", "--tol", DEFAULT_EIG_TOL, _real, _FINITE_POSITIVE),
    Param("subsample-sweep", "strides", "--N", "1,2,3,5", _int_list,
          ("a nonempty list of integers >= 1", lambda v: bool(v) and min(v) >= 1)),
    Param("subsample-sweep", "starts", "--K", "0", _int_list,
          ("a nonempty list of integers >= 0", lambda v: bool(v) and min(v) >= 0)),
    Param("subsample-sweep", "dimension", "--M", DEFAULT_DIMENSION, _integer, _AT_LEAST_1),
    Param("subsample-sweep", "tol", "--tol", DEFAULT_EIG_TOL, _real, _FINITE_POSITIVE),
    Param("weave", "stride", "--N", 2, _integer, _AT_LEAST_1),
    Param("weave", "pattern", "--pattern", "constant:1", str, None),
    Param("weave", "safety", "--safety", DEFAULT_SAFETY, _real, ("in (0, 1]", lambda v: 0.0 < v <= 1.0)),
    Param("weave", "dimension", "--M", DEFAULT_DIMENSION, _integer, _AT_LEAST_1),
    Param("weave", "j_max", "--J-max", DEFAULT_J_MAX, _integer, _AT_LEAST_0),
    Param("weave", "tol", "--tol", DEFAULT_EIG_TOL, _real, _FINITE_POSITIVE),
    Param("adversary", "oracle", "--oracle", "orbit", str,
          ("orbit or orthonormal", lambda v: v in ("orbit", "orthonormal"))),
    Param("adversary", "levels", "--L", 6, _integer, _AT_LEAST_1),
    Param("adversary", "budget", "--budget", DEFAULT_SEARCH_BUDGET, _integer, _AT_LEAST_1),
    Param("adversary", "estimate_dimension", "--estimate-dim", 0, _integer, _AT_LEAST_0),
    Param("reproduce-paper", "dimension", "--M", DEFAULT_DIMENSION, _integer, _AT_LEAST_1),
)


def _require_keys(mapping: dict, allowed: set, context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")


def _parse_complex(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"cannot parse complex number from {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0]), _number(value[1]))
    raise ConfigError(f"cannot parse complex number from {value!r}")


def _config_kind(config, kinds: dict, what: str) -> str:
    """The `kind` of a sequence or weights config, after checking its keys."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError(f"{what} config must be an object with a 'kind' field")
    kind = config["kind"]
    if kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    _require_keys({k: v for k, v in config.items() if k != "kind"}, kinds[kind], what)
    if not isinstance(config.get("values", []), list):  # a string would be read one character a point
        raise ConfigError(f"invalid {what} config: values must be a JSON list, got {config['values']!r}")
    return kind


def sequence_from_config(config: dict):
    kind = _config_kind(config, _SEQUENCE_KEYS, "sequence")
    try:
        if kind == "geometric":
            return GeometricApproach(_number(config["alpha"]))
        if kind == "explicit":
            return ExplicitSequence(tuple(_parse_complex(v) for v in config["values"]))
        if kind == "two_point":
            return TwoPointAugmented(_number(config["q"]), sequence_from_config(config["base"]))
        return PowerSequence(sequence_from_config(config["base"]), _integer(config["exponent"]))
    except (KeyError, TypeError, ValueError, OverflowError, InvariantViolation) as exc:
        raise ConfigError(f"invalid sequence config: {exc}") from exc


def weights_from_config(config: dict):
    kind = _config_kind(config, _WEIGHT_KEYS, "weights")
    try:
        if kind == "constant":
            return ConstantWeights(_parse_complex(config["value"]))
        return ExplicitWeights(
            tuple(_parse_complex(v) for v in config["values"]),
            _number(config["c1"]),
            _number(config["c2"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError, InvariantViolation) as exc:
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
    for section in ("params", "output"):
        if not isinstance(data.get(section, {}), dict):
            raise ConfigError(f"config {section} must be a JSON object")
    return data


def _resolve_params(args, command: str, file_params: dict) -> dict:
    """Each param of `command`: flag, else config-file value, else default;
    cast and range-checked."""
    rows = [row for row in PARAMS if row.command == command]
    _require_keys(file_params, {row.name for row in rows}, f"{command} params")
    params = {}
    for row in rows:
        raw = getattr(args, row.name)
        if raw is None:
            raw = file_params.get(row.name, row.default)
        try:
            value = row.cast(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"cannot parse {row.name} ({row.flag}) from {raw!r}") from exc
        if row.valid is not None and not row.valid[1](value):
            raise ConfigError(f"{row.name} ({row.flag}) must be {row.valid[0]}, got {value!r}")
        params[row.name] = value
    return params


def _resolve(args) -> dict:
    """Merge defaults <- config file <- flags into one resolved config dict."""
    command = args.command
    file_config = _load_config_file(args.config) if args.config else {}
    analysis = file_config.get("analysis")
    if analysis is not None and analysis != command:
        raise ConfigError(f"config analysis {analysis!r} does not match subcommand {command!r}")

    output = dict(file_config.get("output", {}))
    _require_keys(output, {"json", "csv"}, "output")
    if args.out:
        output["json"] = args.out
    if getattr(args, "csv", None):
        output["csv"] = args.csv
    resolved = {
        "analysis": command,
        "params": _resolve_params(args, command, file_config.get("params", {})),
        "output": output,
    }
    # reproduce-paper pins its own systems; defaults would be a misleading audit trail
    if "sequence" not in _COMMANDS[command][2]:
        return resolved

    sequence_config = file_config.get("sequence", {"kind": "geometric", "alpha": 2.0})
    if args.values:
        sequence_config = {"kind": "explicit", "values": args.values.split(",")}
    elif args.alpha is not None:
        sequence_config = {"kind": "geometric", "alpha": args.alpha}
    if args.two_point_q is not None:
        sequence_config = {"kind": "two_point", "q": args.two_point_q, "base": sequence_config}
    if args.power is not None:
        sequence_config = {"kind": "power", "exponent": args.power, "base": sequence_config}

    weights_config = file_config.get("weights", {"kind": "constant", "value": 1.0})
    if getattr(args, "weight_value", None) is not None:
        weights_config = {"kind": "constant", "value": args.weight_value}

    resolved["sequence"] = sequence_config
    resolved["weights"] = weights_config
    return resolved


def _system(resolved: dict) -> OrbitSystem:
    return OrbitSystem(
        sequence_from_config(resolved["sequence"]), weights_from_config(resolved["weights"])
    )


def _emit_csv(resolved: dict, header, rows) -> None:
    path = resolved["output"].get("csv")
    if path:
        write_csv(path, header, rows)


# Each handler runs one analysis on the resolved config, prints its summary,
# writes its CSV table if asked, and returns (exit code, report result).


def _cmd_check_carleson(resolved: dict) -> tuple:
    p = resolved["params"]
    for name in ("n_max", "drop_prefix"):
        if p["k_trunc"] < p[name]:
            raise ConfigError(f"k_trunc (--k-trunc) must be >= {name} = {p[name]}, got {p['k_trunc']}")
    sequence = sequence_from_config(resolved["sequence"])
    # with drop_prefix 0 this is carleson_inf_estimate on the whole sequence
    report = drop_prefix_check(
        sequence, p["drop_prefix"], p["n_max"], p["k_trunc"], p["fail_threshold"]
    )
    products = [(entry.n, entry.value, entry.tail_error) for entry in report.products]
    _emit_csv(resolved, ("n", "P_n", "tail_error"), products)
    lines = [f"verdict: {report.verdict.value}", f"inf estimate over tested n: {report.inf_estimate:.17g}"]
    if report.ratio_sup is not None:
        lines.append(f"gap-ratio sup over window: {report.ratio_sup:.17g}")
    if report.certified_c is not None:
        lines.append(f"analytic ratio certificate: {report.certified_c:.17g}")
    lines.append(f"{'n':>6}  {'P_n':>24}  {'tail_error':>24}")
    lines += [f"{n:>6}  {value:>24.17g}  {tail:>24.17g}" for n, value, tail in products]
    if report.n_drop is not None:
        lines.append(f"dropped prefix products (full sequence, n <= {report.n_drop}):")
        lines += [f"{entry.n:>6}  {entry.value:>24.17g}" for entry in report.dropped_products]
    print("\n".join(lines))
    failed = p["assert_carleson"] and report.verdict is not Verdict.CERTIFIED_HOLDS
    return EXIT_ANALYSIS if failed else EXIT_OK, report


def _cmd_bounds(resolved: dict) -> tuple:
    p = resolved["params"]
    scheme = SubsampleScheme(p["stride"], p["offset"], p["start"])
    estimate = frame_bounds(_system(resolved), scheme, p["dimension"], p["tol"])
    print(
        f"scheme (N={scheme.stride}, j={scheme.offset}, K={scheme.start})  "
        f"M={p['dimension']}  A_est={estimate.a_est:.17g}  B_est={estimate.b_est:.17g}"
    )
    return EXIT_OK, estimate


def _cmd_subsample_sweep(resolved: dict) -> tuple:
    p = resolved["params"]
    estimates = sweep_bounds(_system(resolved), p["strides"], p["starts"], p["dimension"], p["tol"])
    table = [(e.scheme.stride, e.scheme.offset, e.scheme.start, e.a_est, e.b_est) for e in estimates]
    _emit_csv(resolved, ("N", "j", "K", "A_est", "B_est"), table)
    print(f"{'N':>4} {'j':>4} {'K':>4} {'A_est':>24} {'B_est':>24}")
    for n, j, k, a_est, b_est in table:
        print(f"{n:>4} {j:>4} {k:>4} {a_est:>24.17g} {b_est:>24.17g}")
    rows = [dict(zip(("stride", "offset", "start", "a_est", "b_est"), row)) for row in table]
    return EXIT_OK, {"dimension": p["dimension"], "rows": rows}


def _cmd_weave(resolved: dict) -> tuple:
    p = resolved["params"]
    system = _system(resolved)
    dimension = p["dimension"]
    pattern = pattern_from_spec(p["pattern"], p["stride"])
    reference = frame_bounds(system, SubsampleScheme(p["stride"]), dimension, p["tol"])
    try:
        if reference.a_est <= 0.0:
            raise WeavingSearchError(
                f"reference A_est = {reference.a_est!r} at M={dimension} is below the "
                "eigensolver's resolution, so no defect threshold can be set",
                (),
            )
        result = find_weaving_index(
            system, pattern, reference.a_est, p["safety"], dimension, p["j_max"], p["tol"]
        )
    except WeavingSearchError as exc:
        print(f"weaving index not found: {exc}")
        return EXIT_ANALYSIS, {
            "found": False, "message": str(exc), "reference_bounds": reference, "sweep": exc.sweep
        }
    _emit_csv(
        resolved,
        ("J", "defect", "truncation_bound"),
        ((point.start_index, point.value, point.truncation_bound) for point in result.sweep),
    )
    print(
        f"weaving index J={result.start_index}  defect={result.defect:.17g}  "
        f"predicted lower bound={result.predicted_lower_bound:.17g}  "
        f"verified lambda_min={result.verified_bounds.a_est:.17g}"
    )
    return EXIT_OK, dict(jsonable(result), found=True, reference_bounds=reference)


def _cmd_adversary(resolved: dict) -> tuple:
    p = resolved["params"]
    if p["oracle"] == "orbit":
        oracle = OrbitFrameOracle(_system(resolved))
    else:
        oracle = OrthonormalBasisOracle()
    try:
        certificate = build_adversarial_subsequence(oracle, p["levels"], p["budget"])
    except SearchBudgetExceededError as exc:
        print(f"adversarial construction failed: {exc}")
        return EXIT_ANALYSIS, {"built": False, "message": str(exc)}
    deviation = reverify_certificate(oracle, certificate)
    payload = dict(jsonable(certificate), built=True, reverification_deviation=deviation)
    if p["estimate_dimension"] > 0:
        payload["picked_lower_bound_estimate"] = estimate_subsequence_lower_bound(
            oracle, certificate.picked_indices, p["estimate_dimension"]
        )
    print(f"picked indices: {list(certificate.picked_indices)}")
    print(f"witnesses:      {list(certificate.witnesses)}")
    for step in certificate.steps:
        print(
            f"level {step.level}: bound {step.bound:.17g} <= 2^-{step.level} = {step.threshold:.17g}"
        )
    print(f"reverification deviation: {deviation:.3e}")
    return EXIT_OK, payload


_DEFECT_GRID = (0, 1, 2, 5, 10, 20)


def _reproduction_checks(dimension: int) -> list:
    """The deterministic desk-scale reproduction suite."""
    checks = []
    system = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))

    for alpha in (1.5, 2.0, 4.0):
        seq = GeometricApproach(alpha)
        # the report carries the gap-ratio test over its own k <= 200 window
        report = carleson_inf_estimate(seq, 30, 200)
        checks.append(
            {
                "name": f"carleson-geometric-alpha-{alpha:g}",
                "pass": report.verdict is Verdict.CERTIFIED_HOLDS
                and report.certified_c == 1.0 / alpha,
                "verdict": report.verdict,
                "ratio_sup": report.ratio_sup,
                "certified_c": report.certified_c,
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
                "verdict": report.verdict,
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
            values, bound = defect_curve(system, pattern, 0, _DEFECT_GRID[-1], dimension)
            grid = [values[j] + bound for j in _DEFECT_GRID]
            monotone = all(grid[i] >= grid[i + 1] for i in range(len(grid) - 1))
            # the first J <= 1000 with D(J) + bound below 1e-6; the bound does
            # not depend on J, so at or above 1e-6 no J can pass
            points = defect_points(system, pattern, dimension, 1000) if bound < 1e-6 else ()
            below_threshold = next(
                (p.start_index for p in points if p.value + p.truncation_bound < 1e-6), None
            )
            checks.append(
                {
                    "name": f"defect-bound-N-{stride}-{label}",
                    "pass": values[0] <= universal + bound and monotone and below_threshold is not None,
                    "defect_at_0": values[0],
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
        j0_bounds = _bounds(woven_frame_operator(system, ConstantPattern(stride, 1), 0, dimension))
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
                "picked_indices": certificate.picked_indices,
                "witnesses": certificate.witnesses,
                "step_bounds": certificate.step_bounds,
                "reverification_deviation": deviation,
            }
        )

    return checks


def _cmd_reproduce_paper(resolved: dict) -> tuple:
    checks = _reproduction_checks(resolved["params"]["dimension"])
    all_pass = all(check["pass"] for check in checks)
    for check in checks:
        print(f"{'PASS' if check['pass'] else 'FAIL'}  {check['name']}")
    print(f"{'PASS' if all_pass else 'FAIL'}  overall")
    return EXIT_OK if all_pass else EXIT_ANALYSIS, {"checks": checks, "all_pass": all_pass}


# subcommand -> (handler, help, flag groups besides --config, --out and PARAMS)
_COMMANDS = {
    "check-carleson": (_cmd_check_carleson, "certify or refute the Carleson condition", ("sequence", "csv")),
    "bounds": (_cmd_bounds, "frame-bound estimates for one subsample scheme", ("sequence", "weights")),
    "subsample-sweep": (_cmd_subsample_sweep, "sweep (N, j, K) schemes and tabulate bounds",
                        ("sequence", "weights", "csv")),
    "weave": (_cmd_weave, "find and verify a weaving index; --pattern is constant:J | periodic:a,b,.. | "
              "explicit:a,b,.. | seeded:SEED:LEN", ("sequence", "weights", "csv")),
    "adversary": (_cmd_adversary, "build an adversarial non-frame subsequence certificate", ("sequence", "weights")),
    "reproduce-paper": (_cmd_reproduce_paper, "run the full desk-scale reproduction suite", ()),
}


def _add_sequence_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, help="geometric sequence 1 - alpha^-k")
    parser.add_argument(
        "--values", type=str, help="comma-separated explicit sequence values (complex literals)"
    )
    parser.add_argument(
        "--two-point-q", dest="two_point_q", type=float, help="prepend q, -q to the sequence"
    )
    parser.add_argument("--power", type=int, help="raise the sequence entrywise to this power")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every `main`
    call in the process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="carleson-frames",
        description="Operator-orbit frame analyses on the unit disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, groups) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=str, help="JSON experiment config file")
        p.add_argument("--out", type=str, help="write the JSON report here")
        if "sequence" in groups:
            _add_sequence_flags(p)
        if "weights" in groups:
            p.add_argument("--weight-value", dest="weight_value", type=float)
        if "csv" in groups:
            p.add_argument("--csv", type=str, help="write the table as CSV here")
        for row in PARAMS:
            if row.command != command:
                continue
            help_text = f"config key {row.name}, default {row.default}"
            if row.valid is not None:
                help_text += f", must be {row.valid[0]}"
            if row.cast is _boolean:
                p.add_argument(row.flag, dest=row.name, action="store_true", default=None, help=help_text)
            else:
                p.add_argument(row.flag, dest=row.name, help=help_text)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        resolved = _resolve(args)
        code, result = args.func(resolved)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EigensolverError, SearchBudgetExceededError, WeavingSearchError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (ValueError, IndexError) as exc:
        # InvariantViolation, and the library's other checks on its inputs,
        # such as an explicit sequence shorter than the truncation dimension
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    path = resolved["output"].get("json")
    if path:
        meta = {
            "tool": "carleson-frames",
            "version": __version__,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        write_json(path, {"meta": meta, "config": resolved, "result": result})
    return code


if __name__ == "__main__":
    sys.exit(main())
