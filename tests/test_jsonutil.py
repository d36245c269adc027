"""Artifact JSON: compact, lossless round trips, and a fixed point under re-emit."""
from __future__ import annotations

import json
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottersmith import (
    CouplingTensor,
    TimeProfile,
    build_lattice,
    build_trotter_circuit,
    circuit_from_json,
    circuit_to_json,
    color_model,
    coloring_from_json,
    coloring_to_json,
    formula_for_order,
    model_from_json,
    model_to_json,
)
from trottersmith.jsonutil import dump_json, format_float

from conftest import ref_format_float

# edge values of the float formats: signed zero, subnormals, the integral
# cut-off at 1e16 and the largest doubles
_edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
    9999999999999998.0, 2.0**60, -(2.0**60), 1e300, 1.7976931348623157e308, 0.1, -2.5,
])
_scalars = (st.none() | st.booleans() | st.integers(-(10**20), 10**20)
            | st.floats(allow_nan=False, allow_infinity=False) | _edge_floats
            | st.text(max_size=3))
# JSON object keys are strings; a tuple reads back as a list
_keys = st.sampled_from(["kind", "qubits", "m", 'q"', "é", ""])
_docs = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=24,
)


def _same(doc, back) -> bool:
    """``back`` equals ``doc`` with the same scalar types, in the same key
    order, and with every float bit for bit; a tuple reads back as a list."""
    want = list if type(doc) is tuple else type(doc)
    if type(back) is not want:
        return False
    if isinstance(doc, dict):
        return list(doc) == list(back) and all(_same(doc[k], back[k]) for k in doc)
    if isinstance(doc, (list, tuple)):
        return len(doc) == len(back) and all(map(_same, doc, back))
    if isinstance(doc, float):
        return struct.pack("<d", doc) == struct.pack("<d", back)
    return doc == back


class TestDumpJson:
    @given(_docs)
    @example([-0.0, 5e-324, -5e-324, 1e16, 1.7976931348623157e308, 1.0, 2**70])
    @example({"a": {"b": [[], {}, ""]}, "é": [True, False, None]})
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_exact_and_a_fixed_point(self, doc):
        text = dump_json(doc)
        assert text.endswith("\n") and "\n" not in text[:-1]
        back = json.loads(text)
        assert _same(doc, back)
        assert dump_json(back) == text

    def test_compact_spelling(self):
        doc = {"J": [-1.0, -0.0, 0.5], "n": 3, "tau": -0.0, "kind": "uij", "x": [None, True]}
        assert dump_json(doc) == ('{"J":[-1.0,-0.0,0.5],"n":3,"tau":-0.0,"kind":"uij",'
                                  '"x":[null,true]}\n')

    @pytest.mark.parametrize("doc", [
        [1, object()],
        {"a": [{"b": {1, 2}}]},
        [[1.0, 2.0], [3.0, 1j]],
        {"a": [None, True, b"x"]},
    ])
    def test_unsupported_scalar_raises_type_error(self, doc):
        with pytest.raises(TypeError, match=r"^Object of type (object|set|complex|bytes) "
                                            r"is not JSON serializable$"):
            dump_json(doc)

    @pytest.mark.parametrize("doc", [[math.nan], {"a": [1, {"b": math.inf}]}, [-math.inf, {}]])
    def test_nonfinite_float_raises_value_error(self, doc):
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            dump_json(doc)


def _chain6():
    return build_lattice("chain", 6, coupling=CouplingTensor.diagonal(1.0, 0.7, 0.4),
                         field=(0.3, -0.0, 1 / 3),
                         profile=TimeProfile("piecewise", (1.0, 0.25, -0.0)))


def _circuit(mode):
    model = build_lattice("chain", 6, coupling=CouplingTensor.diagonal(1.0, 0.7, 0.4),
                          field=(0.3, 0.0, 0.5))
    col = color_model(model)
    return build_trotter_circuit(model, col, formula_for_order(2, col.num_classes), 3, 1.0,
                                 mode=mode)


class TestArtifactFixedPoint:
    @pytest.mark.parametrize("make, emit, load", [
        (_chain6, model_to_json, model_from_json),
        (lambda: color_model(_chain6()), coloring_to_json, coloring_from_json),
        (lambda: _circuit("decomposed"), circuit_to_json, circuit_from_json),
        (lambda: _circuit("scaled"), circuit_to_json, circuit_from_json),
    ], ids=["model-fields-piecewise", "coloring", "circuit-decomposed", "circuit-scaled"])
    def test_emit_load_emit_is_identical(self, make, emit, load):
        text = emit(make())
        assert emit(load(text)) == text
        assert text == dump_json(json.loads(text))


class TestFormatFloat:
    @given(st.floats(allow_nan=False, allow_infinity=False) | _edge_floats)
    @example(-0.0)
    @example(1e16)
    @example(-9999999999999998.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, x):
        assert format_float(x) == ref_format_float(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, x):
        with pytest.raises(ValueError, match="non-finite"):
            format_float(x)
