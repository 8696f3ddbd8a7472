"""Deterministic CSV/JSON emission.

All floats print with 17 significant digits; files are written via a
temporary file and an atomic rename, with LF line endings. JSON has no
inf or nan, so `write_json` refuses them.
"""

from __future__ import annotations

import math
import os
import tempfile


def format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=False)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in obj:
            items.append(f'{pad}  "{key}": {_json_render(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"JSON cannot hold the float {obj}")
    if isinstance(obj, (bool, int, float)):
        return format_value(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_json(path: str, obj):
    """Write JSON with the same float convention as the CSV output."""
    _atomic_write(path, _json_render(obj) + "\n")
