import csv
import json
import math

from carleson_frames.reporting import canonical_json, format_float, write_csv, write_json


def test_format_float_round_trips():
    for value in (1.0 / 3.0, 2.5623096045692228e-05, 8.636872214227688, 1e-300):
        assert float(format_float(value)) == value
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [1.5, 2]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_write_json_atomic(tmp_path):
    path = tmp_path / "nested" / "report.json"
    path.parent.mkdir()
    write_json(str(path), {"x": 0.1})
    assert json.loads(path.read_text()) == {"x": 0.1}
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_write_csv_rfc4180(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ("n", "value"), [(1, 1.0 / 3.0), (2, math.inf)])
    raw = path.read_bytes()
    assert b"\r\n" in raw
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[1] == ["1", format_float(1.0 / 3.0)]
    assert rows[2] == ["2", "inf"]

