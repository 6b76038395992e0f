"""Deterministic JSON emission.

Reports must be byte-identical across runs and partitioning schemes, so
we control the serialization ourselves: insertion-ordered keys, floats
printed at 12 significant digits, two-space indent, LF line endings.
Strings and keys are written by ``json.encoder.encode_basestring``, the
function ``json.dumps(s, ensure_ascii=False)`` ends in, without the
encoder that each such call builds first.

Geometry is the bulk of a choropleth, so a float64 ``(n, 2)`` array of
2D positions, the form a tract's ring has, is written as one string by
:func:`format_ring`, one ``%`` template over the whole ring, in the same
layout and float rule as a nested list. :func:`parts` returns a text as
the list of strings that :func:`dumps` joins, so a large text can be
written out without ever being held whole.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring

import numpy as np


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    return format(x, ".12g")


def format_ring(xy: np.ndarray, depth: int) -> str:
    """The text ``dumps`` gives the (x, y) positions of an ``(n, 2)``
    array as a list of [x, y] lists written at ``depth``, built by one
    ``%.12g`` template, which prints each value as ``format(x, ".12g")``
    does."""
    if not len(xy):
        return "[]"
    if not np.isfinite(xy).all():
        format_float(float(xy[~np.isfinite(xy)][0]))  # raises
    pad = "  " * (depth + 1)
    inner = pad + "  "
    position = f"[\n{inner}%.12g,\n{inner}%.12g\n{pad}]"
    template = f",\n{pad}".join([position] * len(xy))
    return f"[\n{pad}{template % tuple(xy.ravel().tolist())}\n{'  ' * depth}]"


def parts(obj) -> list[str]:
    """The JSON text of ``obj``, newline-terminated, as a list of strings
    in order."""
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return out


def dumps(obj) -> str:
    return "".join(parts(obj))


def _write(obj, out: list[str], depth: int) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
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
            out.append(encode_basestring(k))
            out.append(": ")
            _write(v, out, depth + 1)
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
            _write(v, out, depth + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append("  " * depth + "]")
    elif isinstance(obj, np.ndarray):
        out.append(format_ring(obj, depth))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
