"""Start-up: the package resolves its names on first use, and the CLI loads
only the analysis modules of the subcommand it runs."""

import importlib
import json
import subprocess
import sys

import pytest

import carleson_frames

# the public names of the package, by the submodule they come from
EXPORTS = {
    "adversarial": (
        "AdversarialCertificate", "AdversarialStep", "FrameOracle", "OrbitFrameOracle",
        "OrthonormalBasisOracle", "SearchBudgetExceededError", "build_adversarial_subsequence",
        "estimate_subsequence_lower_bound", "reverify_certificate",
    ),
    "carleson": ("CarlesonReport", "ProductEntry", "Verdict", "carleson_inf_estimate"),
    "numerics": (
        "EigensolverError", "ExtremalEigenvalues", "NonHermitianError", "compensated_sum",
        "complex_pow", "extremal_eigenvalues", "one_minus_pow",
    ),
    "orbit": (
        "FrameBoundEstimate", "OrbitSystem", "SubsampleScheme", "frame_bounds",
        "frame_operator_matrix", "phi_norm_squared", "retilde_weights",
    ),
    "sequences": (
        "ConstantWeights", "ExplicitSequence", "ExplicitWeights", "GeometricApproach",
        "InvariantViolation", "LambdaSequence", "PowerSequence", "TwoPointAugmented",
        "ValidationReport", "Weights", "validate",
    ),
    "weaving": (
        "ConstantPattern", "DefectPoint", "ExplicitPattern", "PeriodicPattern", "SeededPattern",
        "WeavePattern", "WeavingResult", "WeavingSearchError", "defect_points",
        "defect_upper_bound", "find_weaving_index", "woven_frame_operator",
    ),
}
SUBMODULES = (*EXPORTS, "cli", "reporting")
CLI_MODULES = {"carleson_frames", "carleson_frames.cli", "carleson_frames.numerics",
               "carleson_frames.reporting", "carleson_frames.sequences"}


# an expression, for `fresh_interpreter`'s code: the package modules loaded so far
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'carleson_frames')"


def fresh_interpreter(code: str) -> list:
    """The JSON list that `code`, run in a new interpreter, prints on its last line."""
    completed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


def test_every_export_is_its_submodules_object():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == len(set(names)) == 50
    assert sorted(carleson_frames.__all__) == sorted(names)
    for module, group in EXPORTS.items():
        source = importlib.import_module(f"carleson_frames.{module}")
        for name in group:
            assert getattr(carleson_frames, name) is getattr(source, name), name


def test_names_the_cli_reads_from_numerics_keep_their_module_names():
    from carleson_frames import adversarial, numerics, orbit, weaving

    assert orbit.DEFAULT_DIMENSION == numerics.DEFAULT_DIMENSION == 40
    assert weaving.DEFAULT_J_MAX == numerics.DEFAULT_J_MAX == 10_000
    assert adversarial.SearchBudgetExceededError is numerics.SearchBudgetExceededError
    assert weaving.WeavingSearchError is numerics.WeavingSearchError


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from carleson_frames import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for group in EXPORTS.values() for name in group}


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'carleson_frames' has no attribute 'frame_bound'"):
        carleson_frames.frame_bound  # noqa: B018


def test_submodules_resolve_on_first_access():
    before, listed, names = fresh_interpreter(
        "import json, sys\n"
        "import carleson_frames\n"
        f"before = {LOADED}\n"
        "listed = dir(carleson_frames)\n"
        f"names = {{name: getattr(carleson_frames, name).__name__ for name in {SUBMODULES!r}}}\n"
        "print(json.dumps([before, listed, names]))\n"
    )
    assert before == ["carleson_frames"]
    assert set(SUBMODULES) | set(carleson_frames.__all__) <= set(listed)
    assert names == {name: f"carleson_frames.{name}" for name in SUBMODULES}


def test_importing_the_cli_loads_no_analysis_module():
    loaded = fresh_interpreter(f"import json, sys\nimport carleson_frames.cli\nprint(json.dumps({LOADED}))\n")
    assert set(loaded) == CLI_MODULES


# one run per subcommand, with the analysis modules it loads beside the CLI's
RUNS = (
    (("check-carleson", "--n-max", "3", "--k-trunc", "30"), {"carleson"}),
    (("bounds", "--M", "6"), {"orbit"}),
    (("subsample-sweep", "--M", "6"), {"orbit"}),
    (("weave", "--M", "20"), {"orbit", "weaving"}),
    (("adversary", "--L", "2"), {"orbit", "adversarial"}),
    (("reproduce-paper",), {"adversarial", "carleson", "orbit", "weaving"}),
)


@pytest.mark.parametrize("argv,modules", RUNS, ids=[argv[0] for argv, _ in RUNS])
def test_each_subcommand_loads_only_its_own_modules(argv, modules):
    code, loaded = fresh_interpreter(
        "import json, sys\n"
        "from carleson_frames import cli\n"
        f"code = cli.main({list(argv)!r})\n"
        f"print(json.dumps([code, {LOADED}]))\n"
    )
    assert code == 0
    assert set(loaded) == CLI_MODULES | {f"carleson_frames.{name}" for name in modules}
