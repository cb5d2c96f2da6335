"""Deterministic report emission.

JSON is emitted with sorted keys, floats in fixed 17-significant-digit
scientific notation, and a trailing newline, so identical reports serialize to
identical bytes and every emitted number reparses to the exact same double.
Infinities and NaN use the JSON-extension literals the stdlib parser accepts.
CSV uses LF line endings, a header row, and the same float format.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

from .maps import Mat2, Point2


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".16e")


def to_jsonable(obj: Any) -> Any:
    """Reduce reports, dataclasses, numpy values, and points to plain structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (Point2, Mat2)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj: Any, out: list[str]) -> None:
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
        for k in sorted(obj):
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
    _emit(to_jsonable(obj), out)
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
