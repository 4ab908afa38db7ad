"""Serialization helpers: canonical JSON, RFC-4180 CSV at 17 significant
digits (round-trip safe), and atomic file writes (temp + rename)."""

import csv
import json
import os
import tempfile

import numpy as np


def format_float(value) -> str:
    """17 significant digits; inf, -inf and nan as those words."""
    return f"{float(value):.17g}"


def canonical_json(data) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _atomic_write(path: str, write) -> None:
    """Call write(handle) on a temp file next to `path`, then rename it over
    `path`; line endings are written as given."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle = tempfile.NamedTemporaryFile(
        mode="w", encoding="utf-8", newline="", dir=directory, delete=False, suffix=".tmp"
    )
    try:
        with handle:
            write(handle)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def write_json(path: str, data) -> None:
    text = canonical_json(data)
    _atomic_write(path, lambda handle: handle.write(text))


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

    def write(handle):
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(value) for value in row])

    _atomic_write(path, write)
