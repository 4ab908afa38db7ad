"""Serialization helpers: `jsonable`, the one conversion of result dataclasses
to JSON, one-line canonical JSON, RFC-4180 CSV at 17 significant digits
(round-trip safe), and atomic file writes (temp + rename)."""

import csv
import dataclasses
import functools
import io
import json
import math
import os
from enum import Enum

import numpy as np


def format_float(value) -> str:
    """17 significant digits; inf, -inf and nan as those words."""
    return f"{float(value):.17g}"


@functools.cache
def _fields(cls) -> tuple:
    """(name, whether its declared default is None) of each field of a dataclass type."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return tuple((f.name, f.default is None) for f in dataclasses.fields(cls))


def jsonable(value):
    """The JSON form of a report value: a dataclass becomes the object of its
    fields, without a field whose declared default is None while it is None;
    an enum becomes its value, a tuple a list, a non-finite float its
    `format_float` text ("inf"); anything else raises TypeError, as `json.dumps` does."""
    if isinstance(value, float):
        return value if math.isfinite(value) else format_float(value)
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, Enum):
        return value.value
    return {  # a dataclass; `_fields` raises TypeError for any other type
        name: jsonable(item)
        for name, optional in _fields(type(value))
        if (item := getattr(value, name)) is not None or not optional
    }


def canonical_json(data) -> str:
    """`jsonable(data)` as one line of sorted-key JSON plus a newline, written
    by Python's C encoder (pretty-printing would switch it off)."""
    return json.dumps(
        jsonable(data), sort_keys=True, ensure_ascii=True, allow_nan=False, separators=(",", ":")
    ) + "\n"


def _atomic_write(path: str, text: str) -> None:
    """Write `text` to a new temp file next to `path` (mode 0o666 less the umask,
    as `open` gives), then rename it over `path`; line endings are written as given."""
    temp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"  # O_EXCL: never an existing file
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    descriptor = os.open(temp, flags, 0o666)
    try:
        with open(descriptor, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def write_json(path: str, data) -> None:
    _atomic_write(path, canonical_json(data))


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def write_csv(path: str, header, rows) -> None:
    """RFC-4180 CSV ('.' decimal separator, CRLF, minimal quoting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    _atomic_write(path, buffer.getvalue())
