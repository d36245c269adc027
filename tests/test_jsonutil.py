"""Artifact JSON writer: byte-equal to the reference renderer, shared or not."""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottersmith.jsonutil import dump_json, format_float

from conftest import ref_dump_json, ref_format_float

# edge values of the float format: signed zero, subnormals, the integral
# cut-off at 1e16 and the largest doubles
_edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
    9999999999999998.0, 2.0**60, -(2.0**60), 1e300, 1.7976931348623157e308, 0.1, -2.5,
])
_scalars = (st.none() | st.booleans() | st.integers(-(10**20), 10**20)
            | st.floats(allow_nan=False, allow_infinity=False) | _edge_floats
            | st.text(max_size=3))
# a few keys repeated across dicts, plus non-str keys that compare equal
# (1 and True) but render apart
_keys = st.sampled_from(["kind", "qubits", "m", 'q"', "é"]) | st.integers(0, 2) | st.booleans()
_docs = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=24,
)


class TestDumpJson:
    @given(_docs, st.dictionaries(_keys, _docs, min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_renderer(self, doc, shared):
        # ``shared`` appears at three indents and twice at one of them
        wrapped = {"a": shared, "b": [doc, shared, [shared]], "c": {"d": shared},
                   "e": [1, {"f": shared}, [2.5, -0.0, True]], "doc": doc}
        assert dump_json(doc) == ref_dump_json(doc)
        assert dump_json(wrapped) == ref_dump_json(wrapped)

    @pytest.mark.parametrize("doc", [
        [1, object()],
        {"a": [{"b": {1, 2}}]},
        [[1.0, 2.0], [3.0, 1j]],
        {"a": [None, True, b"x"]},
    ])
    def test_unsupported_scalar_raises_type_error(self, doc):
        with pytest.raises(TypeError, match="cannot serialize"):
            dump_json(doc)
        with pytest.raises(TypeError, match="cannot serialize"):
            ref_dump_json(doc)

    @pytest.mark.parametrize("doc", [[math.nan], {"a": [1, {"b": math.inf}]}, [-math.inf, {}]])
    def test_nonfinite_float_raises_value_error(self, doc):
        with pytest.raises(ValueError, match="non-finite"):
            dump_json(doc)


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
