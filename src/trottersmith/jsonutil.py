"""JSON artifacts, and the one definition of a number taken from outside.

:func:`dump_json` is the standard library's C encoder with no whitespace.
It prints each float as its shortest ``repr``, which reads back to the same
double, keeps ``-0.0``, prints integral floats as ``1.0``, and rejects NaN
and infinity with ValueError and any other type with TypeError.  The same
document always gives the same bytes.  :func:`format_float` is the fixed
17-significant-digit format of QASM angles and ``verify`` CSVs.  Reading
goes through :func:`json_document`, which turns every malformed document
into a ValueError, and field names through :func:`known_fields`.  Every number
read or given goes through :func:`json_int`, :func:`json_real`, :func:`int_stack` or
:func:`real_stack`, which never take a bool, ``np.bool_`` or string for one.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
from contextlib import contextmanager
from itertools import chain

import numpy as np

_BOOLS = frozenset({bool, np.bool_})  # neither can be subclassed


def format_float(x: float) -> str:
    """``x`` with 17 significant digits, or with one decimal if integral below 1e16."""
    if x - x != 0.0:  # NaN or infinite
        raise ValueError(f"non-finite float {x!r} has no text form")
    if x.is_integer() and abs(x) < 1e16:
        # keep integral floats readable and unambiguous
        return f"{x:.1f}"
    return format(x, ".17g")


def dump_json(obj) -> str:
    """Render a JSON document compactly and deterministically; trailing newline included."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def json_int(value, what: str | None = None) -> int:
    """``value`` as an int through ``operator.index``, which would read a bool or ``np.bool_``
    as 1 or 0; else TypeError, which a loader reports as malformed, or given ``what`` ValueError."""
    try:
        if type(value) in _BOOLS:
            raise TypeError(f"expected an integer, got {value!r}")
        return operator.index(value)
    except TypeError:
        if what is None:
            raise
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def json_real(value, what: str) -> float:
    """``value``, a finite :class:`numbers.Real` other than a bool, as ``float()``
    converts it; else ValueError naming ``what`` (OverflowError for a huge int)."""
    if not isinstance(value, numbers.Real) or type(value) in _BOOLS:
        raise ValueError(f"{what} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {float(value)}")
    return float(value)


def _has_bool(rows, depth: int) -> bool:
    """Whether ``depth``-deep nested Python rows hold a bool, which NumPy
    reads beside numbers as a number; flattening and test run in C."""
    if isinstance(rows, np.ndarray):  # its dtype says it all
        return False
    for _ in range(depth - 1):
        rows = chain.from_iterable(rows)
    return not _BOOLS.isdisjoint(map(type, rows))


def int_stack(rows, width: int, what: str) -> np.ndarray:
    """Read-only int64 (len(rows), ``width``) array of integer rows; only when one
    ``np.array`` call or the bool scan fails does :func:`json_int` visit each entry."""
    arr = np.array(rows) if len(rows) else np.empty((0, width), dtype=np.int64)
    if arr.dtype.kind != "i" or _has_bool(rows, 2):
        arr = np.array([[json_int(v) for v in row] for row in rows], dtype=np.int64)
    if arr.shape[1:] != (width,):
        raise ValueError(f"{what} must come in rows of shape {(width,)}, got {arr.shape[1:]}")
    arr.flags.writeable = False
    return arr


def real_stack(rows, shape: tuple[int, ...], what: str, *, finite: bool = True) -> np.ndarray:
    """Read-only float64 array of real rows of ``shape`` from one ``np.array`` call, whose
    dtype rejects strings, complex and all-bool rows; the bool scan rejects a bool among
    numbers, and ``finite`` NaN and infinity.  ``what`` names the entries: "h_i entries"."""
    arr = np.array(rows) if len(rows) else np.empty((0, *shape))
    if arr.dtype.kind == "O":  # ints beyond int64, or entries of mixed types
        arr = np.array([json_real(x, what) for x in arr.flat]).reshape(arr.shape)
    elif arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be numbers, got dtype {arr.dtype}")
    if arr.shape[1:] != shape:
        raise ValueError(f"{what} must come in rows of shape {shape}, got {arr.shape[1:]}")
    if _has_bool(rows, len(shape) + 1):
        raise ValueError(f"{what} must be numbers, got a boolean")
    arr = arr.astype(float, copy=False)
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


def known_fields(objs, fields: frozenset, what: str) -> None:
    """Reject the first field, in any of the JSON objects ``objs``, outside
    ``fields``: a loader reads only the fields it knows, so a misspelled one
    would pass silently.  The common case is one set union in C."""
    extra = set().union(*objs) - fields
    if extra:  # a non-object among objs fails dict.keys, as malformed
        key = next(k for keys in map(dict.keys, objs) for k in keys if k in extra)
        raise ValueError(f"{what} has unknown field {key!r}")


@contextmanager
def json_document(text: str, what: str):
    """Parse ``text`` as a JSON object and yield it to the caller's reader.

    Malformed input of any shape (not JSON, not an object, a missing field,
    a field of the wrong type, an integer too large for a float) surfaces as
    ValueError, so the CLI reports it as bad input rather than an internal
    failure.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object, got {type(doc).__name__}")
    try:
        yield doc
    except KeyError as exc:
        raise ValueError(f"{what} document is missing field {exc}") from exc
    except (TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed {what} document: {exc}") from exc
