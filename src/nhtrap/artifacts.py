"""Atomic CSV/JSON artifact emission with 12-significant-digit floats."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

FLOAT_FORMAT = "%.12g"

GAPS_HEADER = ("h", "gap", "nu", "norm_axis_z0", "runtime_s", "nu_ratio")
EIGENVALUES_HEADER = ("h", "re_z", "im_z", "residual", "condition")
ORBIT_HEADER = (
    "t",
    "r",
    "theta",
    "phi",
    "xi",
    "alpha",
    "beta",
    "p",
    "carter",
)


def format_value(value) -> str:
    """Render one cell: floats at 12 significant digits, rest via str."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT % float(value)
    return str(value)


def write_atomic(path: Path, text: str) -> Path:
    """Write text to path via a same-directory temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def write_csv(path: Path, header, rows) -> Path:
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        cells = [format_value(cell) for cell in row]
        if len(cells) != width:
            raise ValueError(
                f"row width {len(cells)} does not match header width {width}"
            )
        lines.append(",".join(cells))
    return write_atomic(path, "\n".join(lines) + "\n")


def _quantized(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, dict):
        return {str(key): _quantized(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantized(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [_quantized(item) for item in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(FLOAT_FORMAT % float(obj))
    if isinstance(obj, complex):
        return {"re": _quantized(obj.real), "im": _quantized(obj.imag)}
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def write_json(path: Path, payload: dict) -> Path:
    text = json.dumps(_quantized(payload), indent=2, sort_keys=True)
    return write_atomic(path, text + "\n")


def write_failures(directory: Path, failures: list) -> Path:
    """failures.json always exists after a run; empty list means clean."""
    return write_json(
        Path(directory) / "failures.json", {"failures": list(failures)}
    )
