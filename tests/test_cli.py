import csv
import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from carleson_frames import (
    ConstantWeights,
    EigensolverError,
    GeometricApproach,
    OrbitSystem,
    SubsampleScheme,
    adversarial,
    cli,
    frame_bounds,
)
from carleson_frames.weaving import ExplicitPattern


def run_cli(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_check_carleson_geometric(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "products.csv"
    code = run_cli(
        "check-carleson", "--alpha", "2", "--n-max", "30", "--k-trunc", "200",
        "--assert-carleson", "--out", str(out), "--csv", str(csv_path),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "CertifiedHolds" in stdout
    report = read_json(out)
    assert report["result"]["verdict"] == "CertifiedHolds"
    assert report["result"]["ratio_sup"] == 0.5
    assert report["config"]["params"]["n_max"] == 30
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n", "P_n", "tail_error"]
    assert len(rows) == 31


def test_check_carleson_counterexample_assertion_fails(tmp_path):
    code = run_cli(
        "check-carleson", "--alpha", "2", "--two-point-q", "0.3", "--power", "2",
        "--n-max", "5", "--k-trunc", "50", "--assert-carleson",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 1
    report = read_json(tmp_path / "r.json")
    assert report["result"]["verdict"] == "CertifiedFails"
    assert report["result"]["inf_estimate"] == 0.0


def test_check_carleson_small_products_are_inconclusive(capsys):
    argv = ("check-carleson", "--alpha", "1.1", "--power", "2", "--n-max", "20", "--k-trunc", "1000")
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.startswith("verdict: Inconclusive\n")
    assert run_cli(*argv, "--assert-carleson") == 1
    assert capsys.readouterr().out.startswith("verdict: Inconclusive\n")


@pytest.mark.parametrize(
    "q,n_max,k_trunc,verdict",
    [
        ("0.3", "5", "50", "CertifiedHolds"),
        ("0.9", "5", "20", "CertifiedHolds"),
        # the tail reaches modulus 1 - 2^-18 in a 20-point window; q = 1 - 1e-10
        # lies beyond it and could meet a later point
        ("0.9999999999", "5", "20", "Inconclusive"),
        ("0.75", "5", "20", "CertifiedFails"),  # the base point 1 - 2^-2
        ("0.5", "30", "200", "CertifiedFails"),  # the base point 1 - 2^-1, at the default sizes
    ],
)
def test_check_carleson_certifies_a_finite_head(capsys, q, n_max, k_trunc, verdict):
    argv = ("check-carleson", "--alpha", "2", "--two-point-q", q, "--n-max", n_max, "--k-trunc", k_trunc)
    assert run_cli(*argv, "--assert-carleson") == (0 if verdict == "CertifiedHolds" else 1)
    assert capsys.readouterr().out.startswith(f"verdict: {verdict}\n")


@pytest.mark.parametrize(
    "values", ["0.1,0.10000000000000002,0.5", "0.9,-0.75,-0.7500000000000001", "0.49999999999999994,0.5,0.9"]
)
@pytest.mark.parametrize("n_max", ["1", "3"])
def test_near_duplicate_points_are_distinct(capsys, values, n_max):
    # two of the points share a rounded signed gap 1 - lambda; the points do not
    assert run_cli("check-carleson", f"--values={values}", "--n-max", n_max, "--k-trunc", "3") == 0
    assert capsys.readouterr().out.startswith("verdict: Inconclusive\n")
    assert run_cli("bounds", f"--values={values}", "--M", "3") == 0
    assert capsys.readouterr().err == ""


def test_underflowed_powers_are_no_repeat(capsys):
    # 0.5^2600 and 0.75^2600 are distinct points that both round to 0.0;
    # listed zeros are one point, also under a prepended pair
    argv = ("check-carleson", "--alpha", "2", "--power", "2600", "--n-max", "5", "--k-trunc", "10")
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.startswith("verdict: Inconclusive\n")
    assert run_cli("bounds", "--alpha", "2", "--power", "2600", "--M", "5") == 0
    assert capsys.readouterr().out == "scheme (N=1, j=0, K=0)  M=5  A_est=0  B_est=5\n"
    for values in (("--values", "0,0"), ("--values", "0,0", "--two-point-q", "0.3")):
        assert run_cli("check-carleson", *values, "--n-max", "2", "--k-trunc", "4") == 0
        assert capsys.readouterr().out.startswith("verdict: CertifiedFails\n")
        assert run_cli("bounds", *values, "--M", "4") == 2
        assert "repeated eigenvalue at indices" in capsys.readouterr().err


@pytest.mark.parametrize("alpha,k_trunc", [("1.5", "1835"), ("1.1", "7817"), ("1.05", "15272")])
def test_gaps_that_underflow_alike_are_no_repeat(capsys, alpha, k_trunc):
    # the last gaps alpha^-k of the window round to the same subnormal: they
    # tell no points apart, so the ratio certificate stands
    gaps = GeometricApproach(float(alpha))._points(np.arange(int(k_trunc) - 1, int(k_trunc) + 1))[1]
    assert gaps[0] == gaps[1] < np.finfo(np.float64).tiny
    assert run_cli("check-carleson", "--alpha", alpha, "--n-max", "5", "--k-trunc", k_trunc) == 0
    assert capsys.readouterr().out.startswith("verdict: CertifiedHolds\n")


def test_a_complex_list_with_increasing_positive_powers_weaves(capsys):
    # (0.5i, .., 0.9i)^4 are the real points 0.0625 .. 0.6561, the squares of
    # the squares listed as reals, so both weave at the same J
    for values, power in (("0.5j,0.6j,0.7j,0.8j,0.9j", "4"), ("0.25,0.36,0.49,0.64,0.81", "2")):
        assert run_cli("weave", "--values", values, "--power", power, "--N", "2", "--M", "5") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("weaving index J=12 ")


@pytest.mark.parametrize(
    "argv,real_positive,increasing,ratio_sup,tails",
    [
        # the powered complex list is real positive, so its tails are bounded
        (
            ("--values", "0.5j,0.6j,0.7j,0.8j,0.9j", "--power", "4", "--n-max", "3", "--k-trunc", "3"),
            True, True, 0.9284266666666667, [1.3599999999999997, 1.55735294117647, 1.9583103039873662],
        ),
        # a window of the two positive points of a list with a negative one; the tails past it stay unbounded
        (
            ("--values", "0.1,0.5,0.6,-0.9", "--n-max", "2", "--k-trunc", "2"),
            True, True, 0.5555555555555556, ["inf", "inf"],
        ),
        # the last two gaps round to one subnormal: the window does not show increasing moduli
        (("--alpha", "1.5", "--n-max", "5", "--k-trunc", "1835"), True, False, None, [4e-323, 7e-323, 1.14e-322]),
    ],
    ids=["complex-list-to-the-4th", "positive-head-of-a-list", "subnormal-gaps"],
)
def test_report_flags_and_ratio_sup_read_the_window(tmp_path, argv, real_positive, increasing, ratio_sup, tails):
    assert run_cli("check-carleson", *argv, "--out", str(tmp_path / "c.json")) == 0
    result = read_json(tmp_path / "c.json")["result"]
    assert result["parameters"]["real_positive"] is real_positive
    assert result["parameters"]["strictly_increasing_moduli"] is increasing
    assert result["ratio_sup"] == ratio_sup
    assert [entry["tail_error"] for entry in result["products"]][:3] == tails


def test_an_operator_over_gaps_that_underflow_alike_is_rejected_as_non_finite(capsys):
    # no repeated point, but 1 / (1 - |w|) overflows where the gaps are subnormal
    assert run_cli("bounds", "--alpha", "1.5", "--M", "1836") == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["analysis error: matrix has a non-finite entry (largest modulus inf)"]


def test_usage_error_exit_code():
    assert run_cli("check-carleson", "--no-such-flag") == 2
    assert run_cli("bounds", "--N", "not-an-int") == 2


def test_argparse_errors_are_one_usage_line(capsys):
    for argv in (("bounds", "--no-such-flag", "1"), (), ("no-such-command",)):
        assert run_cli(*argv) == 2, argv
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:"), argv
        assert captured.out == ""
    assert run_cli("bounds", "--help") == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--alpha", "--values", "--two-point-q", "--power", "--weight-value",
                 "--N", "--j", "--K", "--M"):
        assert f" {flag} " in out


def test_an_unallocatable_size_is_one_usage_line(monkeypatch, capsys):
    # numpy's refusal of a 7.28 TiB operator (--M 1000000) or of a --k-trunc
    # window, simulated: nothing that large is allocated here, since a host
    # that overcommits may grant it and only fail once it is written
    from carleson_frames import carleson, orbit

    message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(orbit, "_progression_matrix", refuse)
    monkeypatch.setattr(carleson, "validate", refuse)
    for argv in (("bounds", "--alpha", "1.0001", "--M", "50"), ("check-carleson", "--k-trunc", "50")):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"cannot allocate: {message}\n"
        assert captured.out == ""


def test_tol_is_no_parameter(tmp_path, capsys):
    # the certificate's residual bound is fixed, verdicts come from proofs
    # only and read finite heads themselves, the weaving threshold is half the
    # reference bound and the adversary's picks are searched up to the float
    # range: no subcommand takes tol, fail_threshold, safety, budget or
    # drop_prefix as a flag or a key
    config = tmp_path / "config.json"
    for name, value in (("tol", 1e-10), ("fail_threshold", 1e-10), ("safety", 0.5), ("budget", 5),
                        ("drop_prefix", 2)):
        flag = "--" + name.replace("_", "-")
        config.write_text(json.dumps({"params": {name: value}}))
        for command in sorted({row.command for row in cli.PARAMS}):
            for argv, text in (((command, flag, str(value)), flag), ((command, "--config", str(config)), name)):
                assert run_cli(*argv) == 2, argv
                lines = capsys.readouterr().err.splitlines()
                assert len(lines) == 1 and text in lines[0], argv


@pytest.mark.parametrize(
    "content,message",
    [(None, "cannot read config file"), ("{not json", "config file is not valid JSON")],
)
def test_unreadable_config_file_exits_two(tmp_path, capsys, content, message):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    out = tmp_path / "report.json"
    assert run_cli("bounds", "--config", str(config), "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_exits_two(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "report"
    argv = ["check-carleson", "--n-max", "3", "--k-trunc", "30", flag, str(path)]
    if flag == "--csv":
        argv += ["--out", str(tmp_path / "report.json")]
    assert run_cli(*argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write output:") and str(path) in lines[0]
    assert list(tmp_path.rglob("*")) == []  # no report, no CSV table, no temp file


@pytest.mark.parametrize(
    "argv", [("bounds", "--M", "5", "--out"), ("subsample-sweep", "--M", "5", "--csv")], ids=["--out", "--csv"]
)
def test_an_existing_directory_as_output_is_named_without_its_temp(tmp_path, capsys, argv):
    path = tmp_path / "taken"
    path.mkdir()
    assert run_cli(*argv, str(path)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write output:")
    assert lines[0].endswith(f": {str(path)!r}") and ".tmp" not in lines[0]
    assert list(tmp_path.rglob("*")) == [path]  # the directory as it was, and no temp file


def test_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "analysis": "check-carleson",
                "sequence": {"kind": "geometric", "alpha": 4.0},
                "params": {"n_max": 5, "k_trunc": 50},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "r.json"
    code = run_cli("check-carleson", "--config", str(config), "--n-max", "7", "--out", str(out))
    assert code == 0
    report = read_json(out)
    assert report["config"]["sequence"]["alpha"] == 4.0
    assert report["config"]["params"]["n_max"] == 7  # flag wins over file
    assert report["config"]["params"]["k_trunc"] == 50


def test_unknown_config_fields_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sequence": {"kind": "geometric", "alpha": 2.0, "beta": 1}}))
    assert run_cli("check-carleson", "--config", str(config)) == 2
    config.write_text(json.dumps({"mystery": True}))
    assert run_cli("check-carleson", "--config", str(config)) == 2
    config.write_text(json.dumps({"analysis": "weave"}))
    assert run_cli("check-carleson", "--config", str(config)) == 2
    config.write_text(json.dumps({"params": [1]}))
    assert run_cli("check-carleson", "--config", str(config)) == 2


def test_explicit_sequence_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "sequence": {"kind": "explicit", "values": [0.3, -0.3]},
                "params": {"n_max": 2, "k_trunc": 2},
            }
        )
    )
    out = tmp_path / "r.json"
    assert run_cli("check-carleson", "--config", str(config), "--out", str(out)) == 0
    report = read_json(out)
    assert report["result"]["verdict"] == "Inconclusive"
    assert report["result"]["products"][0]["value"] == pytest.approx(0.6 / 1.09, rel=1e-12)


def test_explicit_values_flag(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        "check-carleson", "--values", "0.3,-0.3", "--n-max", "2", "--k-trunc", "2",
        "--out", str(out),
    )
    assert code == 0
    report = read_json(out)
    assert report["config"]["sequence"]["kind"] == "explicit"
    assert report["result"]["products"][0]["value"] == pytest.approx(0.6 / 1.09, rel=1e-12)


def test_explicit_weights_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "sequence": {"kind": "geometric", "alpha": 2.0},
                "weights": {"kind": "explicit", "values": [1.0, 2.0, 1.5], "c1": 1.0, "c2": 2.0},
                "params": {"stride": 1, "dimension": 3},
            }
        )
    )
    out = tmp_path / "r.json"
    assert run_cli("bounds", "--config", str(config), "--out", str(out)) == 0
    report = read_json(out)
    assert report["config"]["weights"]["c2"] == 2.0
    assert report["result"]["b_est"] > 0.0


@pytest.mark.parametrize(
    "section,kind", [(section, kind) for section, kinds in cli._KINDS.items() for kind in kinds]
)
def test_config_keys_are_the_constructor_fields(section, kind):
    # configs pass their keys positionally: names and order must be the dataclass fields'
    constructor, keys = cli._KINDS[section][kind]
    assert [name for name, _ in keys] == [field.name for field in dataclasses.fields(constructor)]


def test_bounds_command(tmp_path):
    out = tmp_path / "bounds.json"
    code = run_cli(
        "bounds", "--alpha", "2", "--N", "2", "--j", "1", "--K", "0", "--M", "40",
        "--out", str(out),
    )
    assert code == 0
    report = read_json(out)
    assert report["result"]["a_est"] > 0.0
    assert report["result"]["scheme"] == {"stride": 2, "offset": 1, "start": 0}


def test_in_process_runs_share_the_parser_but_not_its_flags(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run_cli("bounds", "--N", "2", "--out", str(first)) == 0
    assert run_cli("bounds", "--out", str(second)) == 0
    assert cli.build_parser() is cli.build_parser()
    assert read_json(first)["config"]["params"]["stride"] == 2
    assert read_json(second)["config"]["params"]["stride"] == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scheme (N=2,") and lines[1].startswith("scheme (N=1,")


def test_non_finite_operator_exits_one(tmp_path, capsys):
    # the gaps 2^-k are subnormal past k = 1022, so 1/h overflows in assembly
    out = tmp_path / "bounds.json"
    assert run_cli("bounds", "--alpha", "2", "--M", "1074", "--out", str(out)) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("analysis error:")
    assert "non-finite" in lines[0]
    assert captured.out == "" and not out.exists()


def test_a_failed_eigvalsh_is_an_eigensolver_error(monkeypatch, tmp_path, capsys):
    # LAPACK's LinAlgError reaches frame_bounds' caller as EigensolverError,
    # and the CLI's as one analysis error line with no report
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    system = OrbitSystem(GeometricApproach(2.0), ConstantWeights(1.0))
    with pytest.raises(EigensolverError, match="^Eigenvalues did not converge$"):
        frame_bounds(system, SubsampleScheme(1), 10)
    out = tmp_path / "bounds.json"
    assert run_cli("bounds", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err == "analysis error: Eigenvalues did not converge\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--weight-value", "1e200", "--M", "5"],
        ["bounds", "--weight-value", "1e200", "--M", "5", "--values", "0.5j,0.3,0.1,0.2,0.4"],
        ["subsample-sweep", "--weight-value", "1e200", "--M", "5"],
        ["weave", "--weight-value", "1e200", "--M", "5"],
        # finite entries, but LAPACK's largest eigenvalue overflows to inf
        ["bounds", "--weight-value", "1e154", "--M", "20"],
        # every |c_n|^2 underflows to 0: a zero operator gives no frame bounds
        ["bounds", "--weight-value", "1e-162", "--M", "5"],
        # every power lambda_n^K underflows to 0, which zeroes the operator too
        ["bounds", "--M", "5", "--K", "1000000"],
        ["subsample-sweep", "--M", "5", "--K", "0,1000000"],
        # the adversary's step bounds would read the underflowed |c_n|^2 as 0
        ["adversary", "--alpha", "2", "--L", "3", "--weight-value", "1e-162"],
        # and every tail would read the overflowed |m_n|^2 as inf or NaN
        ["adversary", "--alpha", "2", "--L", "3", "--weight-value", "1.4e154"],
        ["adversary", "--alpha", "2", "--L", "3", "--weight-value", "1e155"],
    ],
    ids=[
        "overflow", "complex-overflow", "sweep", "weave", "eigenvalue-overflow", "underflow",
        "deep-underflow", "sweep-deep-underflow", "adversary-underflow", "adversary-overflow",
        "adversary-coefficient-overflow",
    ],
)
def test_huge_weights_exit_one_without_a_warning(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--out", str(out)) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("analysis error:")
    assert captured.out == "" and not out.exists()


def test_subsample_sweep_csv(tmp_path):
    out = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    code = run_cli(
        "subsample-sweep", "--alpha", "2", "--N", "1,2,3,5", "--M", "40",
        "--out", str(out), "--csv", str(csv_path),
    )
    assert code == 0
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["N", "j", "K", "A_est", "B_est"]
    assert len(rows) == 1 + 1 + 2 + 3 + 5
    for row in rows[1:]:
        assert float(row[3]) > 0.0
        assert float(row[4]) < 1e3


def test_subsample_sweep_builds_one_base_per_stride(tmp_path, monkeypatch):
    # 4 strides and 22 schemes: each row conjugates a copy of its stride's base,
    # the operator of that stride's derived window
    from carleson_frames import orbit

    derived, bases, derive, build = [], [], orbit._stride_window, orbit._progression_matrix

    def counted_window(arrays, stride):
        derived.append((stride, derive(arrays, stride)))
        return derived[-1][1]

    def counted_base(window):
        bases.append(window)
        return build(window)

    monkeypatch.setattr(orbit, "_stride_window", counted_window)
    monkeypatch.setattr(orbit, "_progression_matrix", counted_base)
    out = tmp_path / "sweep.json"
    code = run_cli("subsample-sweep", "--alpha", "1.9", "--N", "1,2,3,5", "--K", "0,3", "--M", "60", "--out", str(out))
    assert code == 0
    assert [stride for stride, _ in derived] == [1, 2, 3, 5]
    assert len(bases) == 4 and all(base is window for base, (_, window) in zip(bases, derived))
    rows = read_json(out)["result"]["rows"]
    assert [(r["stride"], r["offset"], r["start"]) for r in rows] == [
        (stride, offset, start) for stride in (1, 2, 3, 5) for start in (0, 3) for offset in range(stride)
    ]


def test_weave_command(tmp_path):
    out = tmp_path / "weave.json"
    csv_path = tmp_path / "curve.csv"
    code = run_cli(
        "weave", "--alpha", "2", "--N", "2", "--pattern", "constant:1",
        "--M", "40", "--out", str(out), "--csv", str(csv_path),
    )
    assert code == 0
    report = read_json(out)
    assert report["result"]["found"] is True
    assert report["result"]["start_index"] == 84
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["J", "defect", "truncation_bound"]
    assert len(rows) == 2 + 84


def test_weave_not_found_exits_one(tmp_path):
    out = tmp_path / "weave.json"
    code = run_cli(
        "weave", "--alpha", "2", "--N", "2", "--pattern", "constant:1",
        "--M", "40", "--J-max", "0", "--out", str(out),
    )
    assert code == 1
    report = read_json(out)
    assert report["result"]["found"] is False
    assert len(report["result"]["sweep"]) == 1


def test_weave_reference_below_resolution_exits_one(tmp_path, capsys):
    # at alpha = 1.05 the reference A_est (about 3e-55) is below what the
    # eigensolver resolves, so it reads 0 and no defect threshold exists
    out = tmp_path / "weave.json"
    code = run_cli(
        "weave", "--alpha", "1.05", "--N", "2", "--M", "40", "--J-max", "200",
        "--out", str(out),
    )
    assert code == 1
    assert "below the eigensolver's resolution" in capsys.readouterr().out
    result = read_json(out)["result"]
    assert result["found"] is False
    assert "\n" not in result["message"]
    assert result["reference_bounds"]["a_est"] == 0.0
    assert result["reference_bounds"]["dimension"] == 40
    assert result["sweep"] == []


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("bounds", "--M", "0"), "--M"),
        (("subsample-sweep", "--M", "0"), "--M"),
        (("check-carleson", "--n-max", "300", "--k-trunc", "200"), "--k-trunc"),
        (("check-carleson", "--n-max", "0"), "--n-max"),
        (("weave", "--N", "0"), "--N"),
        (("adversary", "--L", "0"), "--L"),
        (("bounds", "--alpha", "2", "--K", "-1"), "--K"),
        (("subsample-sweep", "--alpha", "2", "--N", "1,x"), "--N"),
        (("subsample-sweep", "--N", "0"), "--N"),
        (("weave", "--J-max", "-1"), "--J-max"),
        (("adversary", "--estimate-dim", "-3"), "--estimate-dim"),
        (("bounds", "--N", "not-an-int"), "--N"),
        (("check-carleson", "--values", "0.3,nan,0.5", "--n-max", "3", "--k-trunc", "3"),
         "sequence config"),
        (("bounds", "--values", "nan,0.5,0.7", "--M", "3"), "sequence config"),
        (("bounds", "--alpha", "2", "--weight-value", "nan"), "weights config"),
        (("bounds", "--alpha", "2", "--weight-value", "inf"), "weights config"),
        (("check-carleson", "--k-trunc", "1e3"), "--k-trunc"),
        (("check-carleson", "--two-point-q", "1"), "sequence config"),
        (("check-carleson", "--k-trunc", "x"), "--k-trunc"),
        (("adversary", "--oracle", "bogus"), "--oracle"),
        (("bounds", "--alpha", "x"), "--alpha"),
        (("bounds", "--power", "2.5"), "--power"),
        (("bounds", "--weight-value", "abc"), "--weight-value"),
        (("check-carleson", "--two-point-q", "q"), "--two-point-q"),
        (("bounds", "--values", ""), "sequence config"),
        # an empty item of a list is refused, not dropped
        (("subsample-sweep", "--N", "1,,2", "--K", "0,,3", "--M", "6"), "cannot parse strides (--N) from '1,,2'"),
        (("subsample-sweep", "--K", "0,,3"), "cannot parse starts (--K) from '0,,3'"),
        (("subsample-sweep", "--N", "1,2,"), "cannot parse strides (--N) from '1,2,'"),
        (("subsample-sweep", "--K", ",0"), "cannot parse starts (--K) from ',0'"),
        (("subsample-sweep", "--N", ""), "cannot parse strides (--N) from ''"),
    ],
)
def test_out_of_range_parameters_exit_two(tmp_path, capsys, argv, flag):
    out = tmp_path / "report.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error:") and flag in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--values", "0.3,0.5"),
        ("weave", "--values", "0.1,0.2,0.3", "--M", "40"),
        ("adversary", "--values", "0.5", "--L", "2"),
    ],
)
def test_explicit_sequence_too_short_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid input:") and "entries" in lines[0]
    assert not out.exists()


SQUARED_TWO_POINT = {"kind": "power", "exponent": 2,
                     "base": {"kind": "two_point", "q": 0.3, "base": {"kind": "geometric", "alpha": 2.0}}}

# (command, config, the start of the error): values that do not parse, and
# JSON values of the wrong type, which are never coerced
MALFORMED_CONFIGS = (
    ("check-carleson", {"params": {"n_max": "x"}}, "cannot parse n_max (--n-max)"),
    ("check-carleson", {"sequence": SQUARED_TWO_POINT, "params": {"assert_carleson": "false"}},
     "cannot parse assert_carleson (--assert-carleson)"),
    ("check-carleson", {"params": {"assert_carleson": 0}}, "cannot parse assert_carleson (--assert-carleson)"),
    ("check-carleson", {"params": {"n_max": 2.7}}, "cannot parse n_max (--n-max)"),
    ("check-carleson", {"params": {"n_max": True}}, "cannot parse n_max (--n-max)"),
    ("bounds", {"params": {"dimension": 20.0}}, "cannot parse dimension (--M)"),
    ("weave", {"params": {"j_max": 1.5}}, "cannot parse j_max (--J-max)"),
    ("subsample-sweep", {"params": {"strides": [1, 2.5]}}, "cannot parse strides (--N)"),
    ("subsample-sweep", {"params": {"starts": [True]}}, "cannot parse starts (--K)"),
    ("subsample-sweep", {"params": {"strides": "1,,2"}}, "cannot parse strides (--N) from '1,,2'"),
    ("subsample-sweep", {"params": {"starts": "0,"}}, "cannot parse starts (--K) from '0,'"),
    ("check-carleson", {"sequence": dict(SQUARED_TWO_POINT, exponent=2.7)}, "invalid sequence config"),
    ("check-carleson", {"sequence": {"kind": "geometric", "alpha": "2"}}, "invalid sequence config"),
    ("check-carleson", {"sequence": {"kind": "geometric", "alpha": True}}, "invalid sequence config"),
    ("check-carleson", {"sequence": dict(SQUARED_TWO_POINT["base"], q="0.3")}, "invalid sequence config"),
    ("check-carleson", {"sequence": {"kind": "explicit", "values": [[0.5, False]]}}, "invalid sequence config"),
    ("bounds", {"sequence": {"kind": "explicit", "values": [0.5, True]}}, "invalid sequence config"),
    # a string is no list of points, not even of one-character ones
    ("bounds", {"sequence": {"kind": "explicit", "values": "0"}}, "invalid sequence config"),
    ("bounds", {"weights": {"kind": "explicit", "values": "12", "c1": 1.0, "c2": 2.0}},
     "invalid weights config"),
    ("bounds", {"weights": {"kind": "explicit", "values": [1.0, 2.0, 1.5], "c1": True, "c2": 2.0}},
     "invalid weights config"),
    ("bounds", {"weights": {"kind": "explicit", "values": [1.0, 2.0, 1.5], "c1": 1.0, "c2": "2"}},
     "invalid weights config"),
    ("bounds", {"weights": {"kind": "constant", "value": True}}, "invalid weights config"),
    # a 400-digit JSON integer has no float form
    ("check-carleson", {"sequence": {"kind": "geometric", "alpha": 10**400}}, "invalid sequence config"),
    ("bounds", {"weights": {"kind": "constant", "value": 10**400}}, "invalid weights config"),
    ("bounds", {"sequence": 5}, "sequence config must be an object with a 'kind' field"),
    ("bounds", [{"params": {}}], "config file must hold a JSON object"),
    ("check-carleson", {"sequence": {"kind": "power", "exponent": 2}}, "sequence config is missing fields ['base']"),
    ("check-carleson", {"sequence": {"kind": []}}, "unknown sequence kind []"),
    # check-carleson echoes the weights in its report, so it builds them too
    ("check-carleson", {"weights": {"kind": "bogus", "x": 1}}, "unknown weights kind 'bogus'"),
    # a path that is no string is refused before the analysis runs
    ("bounds", {"output": {"json": 5}}, "output json must be a path string"),
    ("check-carleson", {"output": {"csv": 7}}, "output csv must be a path string"),
)


def test_malformed_config_param_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    out = tmp_path / "report.json"
    for command, data, message in MALFORMED_CONFIGS:
        config.write_text(json.dumps(data))
        assert run_cli(command, "--config", str(config), "--out", str(out)) == 2, data
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {message}")
        assert not out.exists()


# per subcommand: a config-file value and a different flag value for every param
PARAM_CASES = {
    "check-carleson": (
        {"n_max": 4, "k_trunc": 40, "assert_carleson": True},
        {"n_max": ("--n-max", "5", 5), "k_trunc": ("--k-trunc", "50", 50),
         "assert_carleson": ("--assert-carleson", None, True)},
    ),
    "bounds": (
        {"stride": 3, "offset": 2, "start": 1, "dimension": 10},
        {"stride": ("--N", "2", 2), "offset": ("--j", "1", 1), "start": ("--K", "2", 2),
         "dimension": ("--M", "12", 12)},
    ),
    "subsample-sweep": (
        {"strides": [2], "starts": [1], "dimension": 10},
        {"strides": ("--N", "3", [3]), "starts": ("--K", "0,2", [0, 2]), "dimension": ("--M", "12", 12)},
    ),
    "weave": (
        {"stride": 3, "pattern": "constant:2", "dimension": 10, "j_max": 300},
        {"stride": ("--N", "2", 2), "pattern": ("--pattern", "periodic:0,1", "periodic:0,1"),
         "dimension": ("--M", "12", 12), "j_max": ("--J-max", "200", 200)},
    ),
    "adversary": (
        {"oracle": "orthonormal", "levels": 3, "estimate_dimension": 4},
        {"oracle": ("--oracle", "orbit", "orbit"), "levels": ("--L", "2", 2),
         "estimate_dimension": ("--estimate-dim", "5", 5)},
    ),
    "reproduce-paper": ({"dimension": 24}, {"dimension": ("--M", "30", 30)}),
}


@pytest.mark.parametrize("command", sorted(PARAM_CASES))
def test_every_param_from_config_file_and_flag(tmp_path, command):
    file_values, flags = PARAM_CASES[command]
    names = {row.name for row in cli.PARAMS if row.command == command}
    assert set(file_values) == set(flags) == names
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"analysis": command, "params": file_values}))
    out = tmp_path / "report.json"

    assert run_cli(command, "--config", str(config), "--out", str(out)) in (0, 1)
    assert read_json(out)["config"]["params"] == file_values

    argv = [command, "--config", str(config), "--out", str(out)]
    for flag, text, _ in flags.values():
        argv += [flag] if text is None else [flag, text]
    assert run_cli(*argv) in (0, 1)
    assert read_json(out)["config"]["params"] == {name: value for name, (_, _, value) in flags.items()}


def test_weave_explicit_pattern_spec(tmp_path):
    assert cli.pattern_from_spec("explicit:1,0,1", 2) == ExplicitPattern(2, (1, 0, 1))
    assert cli.pattern_from_spec("explicit:", 2) == ExplicitPattern(2, ())
    out = tmp_path / "weave.json"
    args = ("weave", "--alpha", "2", "--N", "2", "--out", str(out))
    # D(J) is 0 from the end of the support on, and the coordinate tail is far
    # below half the reference bound
    assert run_cli(*args, "--pattern", "explicit:1,0,1") == 0
    assert read_json(out)["result"]["start_index"] == 3
    # the empty list swaps nothing: the identity pattern, found at J = 0
    assert run_cli(*args, "--pattern", "explicit:") == 0
    result = read_json(out)["result"]
    assert result["start_index"] == 0 and result["defect"] == 0.0


def test_weave_pattern_specs():
    assert run_cli("weave", "--alpha", "2", "--N", "2", "--pattern", "seeded:42:32") == 0
    assert run_cli("weave", "--alpha", "2", "--N", "2", "--pattern", "periodic:0,1") == 0
    assert run_cli("weave", "--alpha", "2", "--N", "2", "--pattern", "bogus:1") == 2
    assert run_cli("weave", "--alpha", "2", "--N", "2", "--pattern", "constant:7") == 2


def test_adversary_command(tmp_path):
    out = tmp_path / "adversary.json"
    code = run_cli(
        "adversary", "--alpha", "2", "--oracle", "orbit", "--L", "6",
        "--estimate-dim", "12", "--out", str(out),
    )
    assert code == 0
    report = read_json(out)
    assert report["result"]["picked_indices"] == [0, 6, 33, 177, 443, 1064, 4968]
    assert report["result"]["reverification_deviation"] <= 1e-12
    assert report["result"]["picked_lower_bound_estimate"] <= 2.0**-6


def test_adversary_deep_levels_build_at_the_defaults(tmp_path):
    # picks grow about 2.2x per level and are searched up to the float range:
    # level 13 lies more than 10^6 indices past level 12, level 60 near 6e21
    out = tmp_path / "adversary.json"
    for levels, last in (("13", 2_543_859), ("60", 6_239_718_618_858_895_441_920)):
        assert run_cli("adversary", "--alpha", "2", "--L", levels, "--out", str(out)) == 0
        result = read_json(out)["result"]
        assert result["built"] is True and "search_budget" not in result
        assert result["picked_indices"][-1] == last


def test_adversary_witness_cap_exits_one_with_a_report(tmp_path, capsys, monkeypatch):
    # near alpha = 1 every |c_j|^2 = 1 - lambda_j^2 stays above 1/4 far past the
    # cap of witness candidates; a smaller cap keeps the run short
    monkeypatch.setattr(adversarial, "_WITNESS_CAP", 1000)
    out = tmp_path / "adversary.json"
    assert run_cli("adversary", "--alpha", "1.0000001", "--L", "1", "--out", str(out)) == 1
    captured = capsys.readouterr()
    message = "no qualifying witness coordinate among the 1000 indices from 2"
    assert captured.out == f"adversarial construction failed: {message}\n"
    assert captured.err == ""
    assert read_json(out)["result"] == {"built": False, "message": message}


def test_adversary_zero_point_builds(tmp_path):
    # lambda_1 = 0 lies in the open disc: its coefficients vanish past k = 0
    values = ",".join(["0"] + [repr(1.0 - 2.0**-k) for k in range(1, 60)])
    out = tmp_path / "adversary.json"
    assert run_cli("adversary", "--values", values, "--L", "6", "--out", str(out)) == 0
    result = read_json(out)["result"]
    assert result["built"] is True
    assert all(step["bound"] <= step["threshold"] for step in result["steps"])


def test_adversary_orthonormal(tmp_path):
    out = tmp_path / "adversary.json"
    assert run_cli("adversary", "--oracle", "orthonormal", "--L", "4", "--out", str(out)) == 0
    report = read_json(out)
    assert report["result"]["step_bounds"] == [0.0, 0.0, 0.0, 0.0]


def test_reproduce_paper_passes_and_is_deterministic(tmp_path, capsys):
    out = tmp_path / "repro.json"
    assert run_cli("reproduce-paper", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "PASS  overall" in stdout
    assert "FAIL" not in stdout
    first = out.read_bytes()
    assert run_cli("reproduce-paper", "--out", str(out)) == 0
    second = out.read_bytes()
    strip = lambda blob: [line for line in blob.splitlines() if b"generated_at" not in line]
    assert strip(first) == strip(second)
    assert len(first.splitlines()) == len(second.splitlines())


def test_reproduce_paper_search_exhaustion_exits_one(capsys):
    # at M = 10 the coordinate tail bound alone exceeds the weaving threshold
    assert run_cli("reproduce-paper", "--M", "10") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("analysis error:")


def test_console_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "carleson_frames.cli", "check-carleson", "--alpha", "2",
         "--n-max", "5", "--k-trunc", "50"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert "CertifiedHolds" in completed.stdout
