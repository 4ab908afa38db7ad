import csv
import json
import math
import os
import stat
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest

from carleson_frames import FrameBoundEstimate
from carleson_frames.reporting import canonical_json, format_float, jsonable, write_csv, write_json


def test_format_float_round_trips():
    for value in (1.0 / 3.0, 2.5623096045692228e-05, 8.636872214227688, 1e-300):
        assert float(format_float(value)) == value
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"


def test_canonical_json_is_sorted_and_newline_terminated():
    assert canonical_json({"b": 1, "a": [1.5, 2], "c": {"z": 0.1, "y": "\u00e9"}}) == (
        '{"a":[1.5,2],"b":1,"c":{"y":"\\u00e9","z":0.1}}\n'
    )


def test_write_json_atomic(tmp_path):
    path = tmp_path / "nested" / "report.json"
    path.parent.mkdir()
    write_json(str(path), {"x": 0.1})
    assert json.loads(path.read_text()) == {"x": 0.1}
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_failed_write_leaves_no_temp_file_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ("n",), [(1,)])
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no UTF-8 form
        write_csv(str(path), ("\ud800",), [(2,)])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_reports_follow_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        write_json(str(tmp_path / "report.json"), {"x": 1})
        write_csv(str(tmp_path / "table.csv"), ("n",), [(1,)])
    finally:
        os.umask(previous)
    for name in ("report.json", "table.csv"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_write_csv_rfc4180(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ("n", "value"), [(1, 1.0 / 3.0), (2, math.inf)])
    raw = path.read_bytes()
    assert b"\r\n" in raw
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[1] == ["1", format_float(1.0 / 3.0)]
    assert rows[2] == ["2", "inf"]



class _Shade(Enum):
    DARK = "dark"


@dataclass(frozen=True)
class _Row:
    value: object
    note: object = None


@pytest.mark.parametrize(
    "value, expected",
    [
        pytest.param(
            FrameBoundEstimate(1.0, 2.0, 3, 0.0, None),
            {"a_est": 1.0, "b_est": 2.0, "dimension": 3, "eig_residual": 0.0, "scheme": None},
            id="scheme-null-kept",
        ),
        pytest.param(_Shade.DARK, "dark", id="enum"),
        pytest.param((1, (2.5, "x"), [None]), [1, [2.5, "x"], [None]], id="tuple"),
        pytest.param({"t": (math.inf, -math.inf, np.float64(math.inf))}, {"t": ["inf", "-inf", "inf"]}, id="inf"),
        pytest.param([math.inf], ["inf"], id="top-level-list-inf"),
        pytest.param(_Row(math.nan, (math.nan,)), {"value": "nan", "note": ["nan"]}, id="nan"),
        pytest.param(_Row(_Row(math.inf, _Shade.DARK)), {"value": {"value": "inf", "note": "dark"}, "note": None},
                     id="nested"),
        pytest.param(object(), TypeError, id="object"),
        pytest.param(np.int64(1), TypeError, id="numpy-int"),
    ],
)
def test_jsonable_rules(value, expected):
    if expected is TypeError:
        with pytest.raises(TypeError, match="not JSON serializable"):
            jsonable(value)
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json(value)
        with pytest.raises(TypeError):
            json.dumps(value)  # the same values json.dumps refuses
    else:
        assert jsonable(value) == expected
        text = canonical_json(value)
        assert json.loads(text) == expected
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert "NaN" not in text and "Infinity" not in text
