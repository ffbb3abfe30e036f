"""Serialization helpers shared by the CSV/JSON writers.

All floating-point output uses 17 significant digits, which is enough to
round-trip IEEE doubles exactly, and infinities are written as the string
"inf" so CSV and JSON files stay portable.
"""
from __future__ import annotations

import math


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits; infinities become 'inf'."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def json_float(x: float):
    """Value for embedding in a JSON document: plain float, or 'inf'/'nan' strings."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def csv_row(fields) -> str:
    """Comma-separated fields: floats as fmt_float writes them, the rest as str()."""
    return ",".join([fmt_float(f) if isinstance(f, float) else str(f) for f in fields])
