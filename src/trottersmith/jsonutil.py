"""JSON artifacts: compact, lossless and deterministic.

:func:`dump_json` is the standard library's C encoder with no whitespace.
It prints each float as its shortest ``repr``, which reads back to the same
double, keeps ``-0.0``, prints integral floats as ``1.0``, and rejects NaN
and infinity with ValueError and any other type with TypeError.  The same
document always gives the same bytes.  :func:`format_float` is the fixed
17-significant-digit format of QASM angles and ``verify`` CSVs.  Reading
goes through :func:`json_document`, which turns every malformed document
into a ValueError; integer fields go through :func:`json_int`, numeric
arrays through :func:`has_bool` and field names through :func:`known_fields`.
"""
from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from itertools import chain


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


def json_int(value) -> int:
    """``value`` as an int, through ``operator.index``, but never a bool.

    ``operator.index`` takes JSON ``true`` and ``false`` as 1 and 0; here they
    raise TypeError, as floats and strings do, which a loader reports as a
    malformed document.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def has_bool(rows, depth: int) -> bool:
    """Whether a ``depth``-deep nested sequence holds a bool anywhere.

    NumPy, ``float`` and ``complex`` read JSON ``true`` and ``false`` beside
    numbers as 1 and 0, so a loader checks the entries' own types; the
    flattening and the type test run in C.
    """
    for _ in range(depth - 1):
        rows = chain.from_iterable(rows)
    return bool in map(type, rows)


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
