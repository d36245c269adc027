"""Deterministic JSON writing with full-precision floats.

The standard library serializer renders floats with ``repr``, which is
shortest-round-trip but not a fixed digit count.  Artifacts here promise 17
significant digits (always lossless for IEEE doubles) and byte-stable output
for identical inputs, so we walk the structure ourselves.  Reading goes
through :func:`json_document`, which turns every malformed document into a
ValueError, and integer fields go through :func:`json_int`.
"""
from __future__ import annotations

import json
import math
import operator
from contextlib import contextmanager


def format_float(x: float) -> str:
    if x - x != 0.0:  # NaN or infinite
        raise ValueError("non-finite float in JSON document")
    if x.is_integer() and abs(x) < 1e16:
        # keep integral floats readable and unambiguous
        return f"{x:.1f}"
    return format(x, ".17g")


def _scalar(obj) -> str:
    if type(obj) is float:
        return format_float(obj)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _write(obj, out: list[str], indent: int, keys: dict) -> None:
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        last = len(obj) - 1
        for idx, (k, val) in enumerate(obj.items()):
            # str keys render once per indent; 1, True and 1.0 compare equal
            # but render apart, so other keys render every time
            cacheable = type(k) is str
            line = keys.get((k, indent)) if cacheable else None
            if line is None:
                line = f'{"  " * indent}  {json.dumps(str(k))}: '
                if cacheable:
                    keys[k, indent] = line
            out.append(line)
            _write(val, out, indent + 1, keys)
            out.append(",\n" if idx < last else "\n")
        out.append("  " * indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        try:
            # a list of scalars fits on one line; any container raises here
            out.append("[" + ", ".join(map(_scalar, obj)) + "]")
            return
        except TypeError:
            pass
        pad = "  " * indent
        last = len(obj) - 1
        out.append("[\n")
        for idx, val in enumerate(obj):
            out.append(pad + "  ")
            _write(val, out, indent + 1, keys)
            out.append(",\n" if idx < last else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def dump_json(obj) -> str:
    """Render a JSON document deterministically; trailing newline included."""
    out: list[str] = []
    # keys: (str key, indent) -> its rendered "key": prefix
    _write(obj, out, 0, {})
    out.append("\n")
    return "".join(out)


def json_int(value) -> int:
    """``value`` as an int, through ``operator.index``, but never a bool.

    ``operator.index`` takes JSON ``true`` and ``false`` as 1 and 0; here they
    raise TypeError, as floats and strings do, which a loader reports as a
    malformed document.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


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
