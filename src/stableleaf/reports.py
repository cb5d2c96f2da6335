"""Deterministic report emission.

JSON is emitted with sorted keys, floats in fixed 17-significant-digit
scientific notation, and a trailing newline, so identical reports serialize to
identical bytes and every emitted number reparses to the exact same double.
Infinities and NaN use the JSON-extension literals the stdlib parser accepts.
CSV uses LF line endings, a header row, and the same float format.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".16e")


def _emit(obj: Any, out: list[str]) -> None:
    """Append the JSON of plain values, dicts, lists, tuples (so points) and numpy values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for k in sorted(obj, key=str):
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot emit {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def emit_json(obj: Any, path) -> None:
    text = dumps_canonical(obj) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def leaf_csv_lines(leaf, k_override=None) -> list[str]:
    k = k_override if k_override is not None else leaf.k
    lines = ["t,x,y,theta,k"]
    for t, x, y, th in zip(leaf.t, leaf.xs, leaf.ys, leaf.thetas):
        lines.append(f"{_fmt_float(t)},{_fmt_float(x)},{_fmt_float(y)},{_fmt_float(th)},{k}")
    return lines


def emit_leaf_csv(leaf, path, k_override=None) -> None:
    """Write a leaf as CSV rows t,x,y,theta,k; the limit leaf uses k = -1."""
    text = "\n".join(leaf_csv_lines(leaf, k_override)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
