"""Deterministic JSON emission.

Reports must be byte-identical across runs and partitioning schemes, so
we control the serialization ourselves: insertion-ordered keys, floats
printed at 12 significant digits, two-space indent, LF line endings.

Geometry is the bulk of a choropleth, so a :class:`Ring` of 2D
positions is written as one string by :func:`format_ring`, one ``%``
template over the whole ring, in the same layout and float rule as a
nested list. :func:`parts` returns a text as the list of strings that
:func:`dumps` joins, so a large text can be written out without ever
being held whole.
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(x: float, mode: str = "12g") -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    if mode == "repr":  # shortest round-trip form, for ground-truth files
        return repr(x)
    return format(x, ".12g")


class Ring:
    """A sequence of (x, y) positions, such as a float64 ``(n, 2)``
    array, that :func:`dumps` writes as a list of [x, y] lists, through
    :func:`format_ring` (``12g`` mode only)."""

    __slots__ = ("positions",)

    def __init__(self, positions):
        self.positions = positions


def format_ring(positions, depth: int) -> str:
    """The text ``dumps`` gives a list of [x, y] lists written at
    ``depth``, built by one ``%.12g`` template, which prints each value
    as ``format(x, ".12g")`` does."""
    xy = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    if not len(xy):
        return "[]"
    if not np.isfinite(xy).all():
        format_float(float(xy[~np.isfinite(xy)][0]))  # raises
    pad = "  " * (depth + 1)
    inner = pad + "  "
    position = f"[\n{inner}%.12g,\n{inner}%.12g\n{pad}]"
    template = f",\n{pad}".join([position] * len(xy))
    return f"[\n{pad}{template % tuple(xy.ravel().tolist())}\n{'  ' * depth}]"


def parts(obj, float_mode: str = "12g") -> list[str]:
    """The JSON text of ``obj``, newline-terminated, as a list of strings
    in order."""
    out: list[str] = []
    _write(obj, out, 0, float_mode)
    out.append("\n")
    return out


def dumps(obj, float_mode: str = "12g") -> str:
    return "".join(parts(obj, float_mode))


def _write(obj, out: list[str], depth: int, float_mode: str = "12g") -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj, float_mode))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = "  " * (depth + 1)
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {k!r}")
            out.append(pad)
            out.append(json.dumps(k, ensure_ascii=False))
            out.append(": ")
            _write(v, out, depth + 1, float_mode)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append("  " * depth + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad = "  " * (depth + 1)
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _write(v, out, depth + 1, float_mode)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append("  " * depth + "]")
    elif isinstance(obj, Ring) and float_mode == "12g":
        out.append(format_ring(obj.positions, depth))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
