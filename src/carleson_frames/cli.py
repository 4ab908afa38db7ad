"""Batch front end: JSON experiment configs in, deterministic reports out.

One analysis per invocation. Exit codes: 0 success, 1 negative analysis
verdict (where the run asserts one) or numerical non-convergence, 2 usage or
config errors, including out-of-range or malformed parameters, inputs the
library rejects and output files that cannot be written (each with one line
on standard error and no report).
Reports embed the fully resolved configuration; the only nondeterministic
field is the `generated_at` timestamp in the meta header.

Every subcommand parameter is one row of `PARAMS`, which gives its flag, its
config-file key, its default, its range check and its echo in `config.params`;
flags override file values, which override defaults. Every sequence and
weights kind is one entry of `_KINDS`, and every flag that rewrites a
sequence or weights config one row of `SYSTEM_FLAGS`.
"""

import argparse
import datetime
import functools
import itertools
import json
import math
import sys
from typing import Callable, NamedTuple

from . import __version__
from .numerics import (
    DEFAULT_DIMENSION,
    DEFAULT_J_MAX,
    EigensolverError,
    SearchBudgetExceededError,
    WeavingSearchError,
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

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


# Casts of a flag string or a config-file value. A JSON value of the wrong
# type raises rather than being coerced: 2.7 is no integer, "false" no boolean.
def _integer(value) -> int:
    if isinstance(value, (bool, float)):
        raise TypeError(value)
    return int(value)


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
    return [int(part) for part in str(text).split(",")]  # int("") refuses an empty item


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

PARAMS = (
    Param("check-carleson", "n_max", "--n-max", 30, _integer, _AT_LEAST_1),
    Param("check-carleson", "k_trunc", "--k-trunc", 200, _integer, None),
    Param("check-carleson", "assert_carleson", "--assert-carleson", False, _boolean, None),
    Param("bounds", "stride", "--N", 1, _integer, _AT_LEAST_1),
    Param("bounds", "offset", "--j", 0, _integer, None),
    Param("bounds", "start", "--K", 0, _integer, _AT_LEAST_0),
    Param("bounds", "dimension", "--M", DEFAULT_DIMENSION, _integer, _AT_LEAST_1),
    Param("subsample-sweep", "strides", "--N", "1,2,3,5", _int_list,
          ("a nonempty list of integers >= 1", lambda v: bool(v) and min(v) >= 1)),
    Param("subsample-sweep", "starts", "--K", "0", _int_list,
          ("a nonempty list of integers >= 0", lambda v: bool(v) and min(v) >= 0)),
    Param("subsample-sweep", "dimension", "--M", DEFAULT_DIMENSION, _integer, _AT_LEAST_1),
    Param("weave", "stride", "--N", 2, _integer, _AT_LEAST_1),
    Param("weave", "pattern", "--pattern", "constant:1", str, None),
    Param("weave", "dimension", "--M", DEFAULT_DIMENSION, _integer, _AT_LEAST_1),
    Param("weave", "j_max", "--J-max", DEFAULT_J_MAX, _integer, _AT_LEAST_0),
    Param("adversary", "oracle", "--oracle", "orbit", str,
          ("orbit or orthonormal", lambda v: v in ("orbit", "orthonormal"))),
    Param("adversary", "levels", "--L", 6, _integer, _AT_LEAST_1),
    Param("adversary", "estimate_dimension", "--estimate-dim", 0, _integer, _AT_LEAST_0),
    Param("reproduce-paper", "dimension", "--M", DEFAULT_DIMENSION, _integer, _AT_LEAST_1),
)


# (section, flag, dest, help, the section's config as the flag's text rewrites it),
# applied in this order: --values beats --alpha, then --two-point-q and --power wrap
SYSTEM_FLAGS = (
    ("sequence", "--alpha", "alpha", "geometric sequence 1 - alpha^-k",
     lambda text, config: {"kind": "geometric", "alpha": float(text)}),
    ("sequence", "--values", "values", "comma-separated explicit sequence values (complex literals)",
     lambda text, config: {"kind": "explicit", "values": text.split(",")}),
    ("sequence", "--two-point-q", "two_point_q", "prepend q, -q to the sequence",
     lambda text, config: {"kind": "two_point", "q": float(text), "base": config}),
    ("sequence", "--power", "power", "raise the sequence entrywise to this power",
     lambda text, config: {"kind": "power", "exponent": _integer(text), "base": config}),
    ("weights", "--weight-value", "weight_value", "constant weights of this value",
     lambda text, config: {"kind": "constant", "value": float(text)}),
)


def _require_keys(mapping: dict, allowed: set, context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")


def _parse_complex(value) -> complex:  # a number, a [re, im] pair of numbers or a complex literal
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ValueError(f"cannot parse complex number from {value!r}") from exc
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0]), _number(value[1]))
    return complex(_number(value))


def _points(values) -> tuple:
    if not isinstance(values, list):  # a string would be read one character a point
        raise TypeError(f"values must be a JSON list, got {values!r}")
    return tuple(_parse_complex(v) for v in values)


# section -> kind -> (constructor, its config keys in argument order, each with its cast)
_KINDS = {
    "sequence": {
        "geometric": (GeometricApproach, (("alpha", _number),)),
        "explicit": (ExplicitSequence, (("values", _points),)),
        "two_point": (TwoPointAugmented, (("q", _number), ("base", lambda base: _build("sequence", base)))),
        "power": (PowerSequence, (("base", lambda base: _build("sequence", base)), ("exponent", _integer))),
    },
    "weights": {
        "constant": (ConstantWeights, (("value", _parse_complex),)),
        "explicit": (ExplicitWeights, (("values", _points), ("c1", _number), ("c2", _number))),
    },
}


def _build(section: str, config):
    """The sequence or weights object a config describes: its kind's
    constructor on its keys, each cast; a nested base is built the same way."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError(f"{section} config must be an object with a 'kind' field")
    kind = config["kind"]
    if not isinstance(kind, str) or kind not in _KINDS[section]:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    constructor, fields = _KINDS[section][kind]
    names = [name for name, _ in fields]
    _require_keys(config, {"kind", *names}, section)
    missing = [name for name in names if name not in config]
    if missing:
        raise ConfigError(f"{section} config is missing fields {missing}")
    try:
        return constructor(*[cast(config[name]) for name, cast in fields])
    except (TypeError, ValueError, OverflowError, InvariantViolation) as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from exc


def pattern_from_spec(spec: str, stride: int):
    from .weaving import ConstantPattern, ExplicitPattern, PeriodicPattern, SeededPattern

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
    for key, path in output.items():
        if not isinstance(path, str):
            raise ConfigError(f"output {key} must be a path string, got {path!r}")
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

    resolved["sequence"] = file_config.get("sequence", {"kind": "geometric", "alpha": 2.0})
    resolved["weights"] = file_config.get("weights", {"kind": "constant", "value": 1.0})
    for section, flag, dest, _, rewrite in SYSTEM_FLAGS:
        text = getattr(args, dest, None)
        if text is not None:
            try:
                resolved[section] = rewrite(text, resolved[section])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"cannot parse {flag} from {text!r}") from exc
    return resolved


def _system(resolved: dict):
    from .orbit import OrbitSystem

    return OrbitSystem(_build("sequence", resolved["sequence"]), _build("weights", resolved["weights"]))


def _emit_csv(resolved: dict, header, rows) -> None:
    path = resolved["output"].get("csv")
    if path:
        write_csv(path, header, rows)


# Each handler runs one analysis on the resolved config, prints its summary,
# writes its CSV table if asked, and returns (exit code, report result). It
# imports the analysis modules it runs, so that no subcommand loads another's.


def _cmd_check_carleson(resolved: dict) -> tuple:
    from .carleson import Verdict, carleson_inf_estimate

    p = resolved["params"]
    if p["k_trunc"] < p["n_max"]:
        raise ConfigError(f"k_trunc (--k-trunc) must be >= n_max = {p['n_max']}, got {p['k_trunc']}")
    sequence = _build("sequence", resolved["sequence"])
    _build("weights", resolved["weights"])  # the weights the report echoes are built, so checked, too
    report = carleson_inf_estimate(sequence, p["n_max"], p["k_trunc"])
    products = [(entry.n, entry.value, entry.tail_error) for entry in report.products]
    _emit_csv(resolved, ("n", "P_n", "tail_error"), products)
    lines = [f"verdict: {report.verdict.value}", f"inf estimate over tested n: {report.inf_estimate:.17g}"]
    if report.ratio_sup is not None:
        lines.append(f"gap-ratio sup over window: {report.ratio_sup:.17g}")
    if report.certified_c is not None:
        lines.append(f"analytic ratio certificate: {report.certified_c:.17g}")
    lines.append(f"{'n':>6}  {'P_n':>24}  {'tail_error':>24}")
    lines += [f"{n:>6}  {value:>24.17g}  {tail:>24.17g}" for n, value, tail in products]
    print("\n".join(lines))
    failed = p["assert_carleson"] and report.verdict is not Verdict.CERTIFIED_HOLDS
    return EXIT_ANALYSIS if failed else EXIT_OK, report


def _cmd_bounds(resolved: dict) -> tuple:
    from .orbit import SubsampleScheme, frame_bounds

    p = resolved["params"]
    scheme = SubsampleScheme(p["stride"], p["offset"], p["start"])
    estimate = frame_bounds(_system(resolved), scheme, p["dimension"])
    print(
        f"scheme (N={scheme.stride}, j={scheme.offset}, K={scheme.start})  "
        f"M={p['dimension']}  A_est={estimate.a_est:.17g}  B_est={estimate.b_est:.17g}"
    )
    return EXIT_OK, estimate


def _cmd_subsample_sweep(resolved: dict) -> tuple:
    from .orbit import sweep_bounds

    p = resolved["params"]
    estimates = sweep_bounds(_system(resolved), p["strides"], p["starts"], p["dimension"])
    table = [(e.scheme.stride, e.scheme.offset, e.scheme.start, e.a_est, e.b_est) for e in estimates]
    _emit_csv(resolved, ("N", "j", "K", "A_est", "B_est"), table)
    print(f"{'N':>4} {'j':>4} {'K':>4} {'A_est':>24} {'B_est':>24}")
    for n, j, k, a_est, b_est in table:
        print(f"{n:>4} {j:>4} {k:>4} {a_est:>24.17g} {b_est:>24.17g}")
    rows = [dict(zip(("stride", "offset", "start", "a_est", "b_est"), row)) for row in table]
    return EXIT_OK, {"dimension": p["dimension"], "rows": rows}


def _cmd_weave(resolved: dict) -> tuple:
    from .weaving import find_weaving_index

    p = resolved["params"]
    system = _system(resolved)
    pattern = pattern_from_spec(p["pattern"], p["stride"])
    try:
        result = find_weaving_index(system, pattern, p["dimension"], p["j_max"])
    except WeavingSearchError as exc:
        print(f"weaving index not found: {exc}")
        return EXIT_ANALYSIS, {
            "found": False, "message": str(exc), "reference_bounds": exc.reference_bounds, "sweep": exc.sweep
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
    # the fields as `write_json` converts them, once
    return EXIT_OK, dict(vars(result), found=True)


def _cmd_adversary(resolved: dict) -> tuple:
    from .adversarial import (
        OrbitFrameOracle,
        OrthonormalBasisOracle,
        build_adversarial_subsequence,
        estimate_subsequence_lower_bound,
        reverify_certificate,
    )

    p = resolved["params"]
    if p["oracle"] == "orbit":
        oracle = OrbitFrameOracle(_system(resolved))
    else:
        oracle = OrthonormalBasisOracle()
    try:
        certificate = build_adversarial_subsequence(oracle, p["levels"])
    except SearchBudgetExceededError as exc:
        print(f"adversarial construction failed: {exc}")
        return EXIT_ANALYSIS, {"built": False, "message": str(exc)}
    deviation = reverify_certificate(oracle, certificate)
    payload = dict(vars(certificate), built=True, reverification_deviation=deviation)
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
    from .adversarial import (
        OrbitFrameOracle,
        OrthonormalBasisOracle,
        build_adversarial_subsequence,
        reverify_certificate,
    )
    from .carleson import Verdict, carleson_inf_estimate
    from .orbit import OrbitSystem, SubsampleScheme, frame_bounds, retilde_weights
    from .weaving import ConstantPattern, SeededPattern, defect_points, defect_upper_bound, find_weaving_index

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

    universal = defect_upper_bound(system, dimension)
    for stride in (2, 3):
        for label, pattern in (
            ("constant-1", ConstantPattern(stride, 1)),
            ("seeded-42", SeededPattern(stride, 42, 128)),
        ):
            points = defect_points(system, pattern, dimension, 1000)
            head = list(itertools.islice(points, _DEFECT_GRID[-1] + 1))  # the grid; the walk goes on
            bound = head[0].truncation_bound  # the same at every J
            below = next((p.start_index for p in itertools.chain(head, points) if p.value + bound < 1e-6), None)
            grid = [head[j].value + bound for j in _DEFECT_GRID]
            monotone = all(grid[i] >= grid[i + 1] for i in range(len(grid) - 1))
            checks.append(
                {
                    "name": f"defect-bound-N-{stride}-{label}",
                    "pass": head[0].value <= universal + bound and monotone and below is not None,
                    "defect_at_0": head[0].value,
                    "universal_bound": universal,
                    "monotone_on_grid": monotone,
                    "first_index_below_1e-6": below,
                }
            )

    for stride in (2, 3):
        result = find_weaving_index(system, ConstantPattern(stride, 1), dimension)
        verified_ok = (
            result.verified_bounds.a_est >= result.predicted_lower_bound - 1e-8
        )
        # empirical probe of the J=0 weaving question: reported, never asserted;
        # swapping every k from J = 0 gives exactly the subfamily (N, 1, 0)
        j0_bounds = frame_bounds(system, SubsampleScheme(stride, 1), dimension)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's own errors (an unknown flag, a missing or unknown
        subcommand) as one line, without the usage block."""
        self.exit(EXIT_USAGE, f"usage error: {self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every `main`
    call in the process; parsing never changes it."""
    parser = _Parser(
        prog="carleson-frames",
        description="Operator-orbit frame analyses on the unit disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, groups) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=str, help="JSON experiment config file")
        p.add_argument("--out", type=str, help="write the JSON report here")
        for section, flag, dest, flag_help, _ in SYSTEM_FLAGS:
            if section in groups:
                p.add_argument(flag, dest=dest, help=flag_help)
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
        path = resolved["output"].get("json")
        if path:
            meta = {
                "tool": "carleson-frames",
                "version": __version__,
                "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            }
            write_json(path, {"meta": meta, "config": resolved, "result": result})
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
    except OSError as exc:  # writing the JSON report, a CSV table or standard output
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an --M or --k-trunc too large for an M x M operator or a window
        print(f"cannot allocate: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
