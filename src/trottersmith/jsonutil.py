"""Deterministic JSON writing with full-precision floats.

The standard library serializer renders floats with ``repr``, which is
shortest-round-trip but not a fixed digit count.  Artifacts here promise 17
significant digits (always lossless for IEEE doubles) and byte-stable output
for identical inputs, so we walk the structure ourselves.  A dict object that
appears more than once in a document is rendered once per indent and its text
reused, so a circuit whose gate slots share one gate dict costs one rendering
per distinct gate.  Reading goes through :func:`json_document`, which turns
every malformed document into a ValueError.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in JSON document")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable and unambiguous
        return f"{x:.1f}"
    return format(x, ".17g")


def _scalar(obj) -> str:
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _write(obj, out: list[str], indent: int, seen: dict) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        # a dict met again at the same indent reuses its first rendering
        key = (id(obj), indent)
        done = seen.get(key)
        if done is not None:
            if not isinstance(done, str):
                done = seen[key] = "".join(out[done[0]:done[1]])
            out.append(done)
            return
        start = len(out)
        out.append("{\n")
        for idx, (k, val) in enumerate(obj.items()):
            out.append(f'{pad}  {json.dumps(str(k))}: ')
            _write(val, out, indent + 1, seen)
            out.append(",\n" if idx < len(obj) - 1 else "\n")
        out.append(pad + "}")
        seen[key] = (start, len(out))
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        if all(not isinstance(v, (dict, list, tuple)) for v in items):
            out.append("[" + ", ".join(map(_scalar, items)) + "]")
            return
        out.append("[\n")
        for idx, val in enumerate(items):
            out.append(pad + "  ")
            _write(val, out, indent + 1, seen)
            out.append(",\n" if idx < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def dump_json(obj) -> str:
    """Render a JSON document deterministically; trailing newline included."""
    out: list[str] = []
    # (id, indent) -> span of ``out``, then its joined text once met again;
    # every keyed dict stays alive through ``obj``, so no id is reused
    _write(obj, out, 0, {})
    out.append("\n")
    return "".join(out)


@contextmanager
def json_document(text: str, what: str):
    """Parse ``text`` as a JSON object and yield it to the caller's reader.

    Malformed input of any shape (not JSON, not an object, a missing field,
    a field of the wrong type) surfaces as ValueError, so the CLI reports it
    as bad input rather than an internal failure.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object, got {type(doc).__name__}")
    try:
        yield doc
    except KeyError as exc:
        raise ValueError(f"{what} document is missing field {exc}") from exc
    except (TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"malformed {what} document: {exc}") from exc
