"""Artifact JSON: compact, lossless round trips, and a fixed point under re-emit."""
from __future__ import annotations

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottersmith import (
    Circuit,
    CouplingTensor,
    Gate,
    GateKind,
    GateTimingModel,
    SpinModel,
    TimeProfile,
    build_lattice,
    build_trotter_circuit,
    circuit_from_json,
    circuit_to_json,
    color_model,
    coloring_from_json,
    coloring_to_json,
    expand,
    first_order,
    formula_for_order,
    from_edges,
    model_from_json,
    model_to_json,
    steps_for_accuracy,
    synth_edge,
)
from trottersmith import circuits as circuits_mod
from trottersmith import coloring as coloring_mod
from trottersmith import model as model_mod
from trottersmith.circuits import _uij_gates
from trottersmith.jsonutil import (dump_json, format_float, int_stack, json_int, json_real,
                                   real_stack)
from trottersmith.oracle import exact_evolution

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


class TestWrittenFieldsAreRead:
    def test_each_writer_emits_the_fields_its_reader_accepts(self):
        # loaders reject unknown fields, so a field a writer emits but its
        # reader does not know would break the round trip; the one field read
        # but never written is the legacy uij ``edge``
        piecewise = json.loads(model_to_json(_chain6()))
        constant = json.loads(model_to_json(build_lattice("chain", 4)))
        assert set(piecewise) == set(constant) == model_mod._MODEL_FIELDS
        assert set().union(*piecewise["edges"], *constant["edges"]) == model_mod._EDGE_FIELDS
        assert set(piecewise["profile"]) | set(constant["profile"]) == model_mod._PROFILE_FIELDS
        col = json.loads(coloring_to_json(color_model(_chain6())))
        assert set(col) == coloring_mod._COLORING_FIELDS
        docs = [json.loads(circuit_to_json(_circuit(mode))) for mode in ("decomposed", "scaled")]
        assert all(set(doc) == circuits_mod._CIRCUIT_FIELDS for doc in docs)
        gates = set().union(*(g for doc in docs for g in doc["gates"]))
        assert gates == circuits_mod._GATE_FIELDS - {"edge"}


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


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestJsonInt:
    @pytest.mark.parametrize("value", [True, np.True_, np.False_, 2.0, "2", None])
    def test_non_integers_raise_type_error_or_value_error_naming_what(self, value):
        with pytest.raises(TypeError):
            json_int(value)
        with pytest.raises(ValueError, match=r"^step count m must be an integer, got "):
            json_int(value, "step count m")

    @pytest.mark.parametrize("value", [0, -3, 2**70, np.int64(7), np.uint8(255)])
    def test_integers_pass_as_ints(self, value):
        got = json_int(value, "n")
        assert type(got) is int and got == value


class TestJsonReal:
    @pytest.mark.parametrize("value, message", [
        (True, "must be a real number, got True"),
        (np.True_, "must be a real number, got "),
        ("0.5", "must be a real number, got '0.5'"),
        (None, "must be a real number, got None"),
        (1j, "must be a real number, got 1j"),
        (np.array(0.5), "must be a real number, got "),
        (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf"),
        (np.float32(-math.inf), "must be finite, got -inf"),
    ])
    def test_non_numbers_and_non_finite_values_raise(self, value, message):
        with pytest.raises(ValueError, match="^tau " + re.escape(message)):
            json_real(value, "tau")

    def test_huge_int_overflows_as_float_does(self):
        # a loader reports OverflowError as a malformed document
        with pytest.raises(OverflowError):
            json_real(10**400, "t")

    @pytest.mark.parametrize("value", [0, -0.0, 5e-324, 2**60 + 1, np.float32(0.1),
                                       np.float64(-2.5), np.int64(-7), np.uint16(3)])
    def test_reals_convert_as_float_does(self, value):
        got = json_real(value, "t")
        assert type(got) is float and _bits(got) == _bits(float(value))


class TestRealStack:
    def test_python_rows_become_one_read_only_float_array(self):
        arr = real_stack([[1, -0.0, 0.5], [np.float32(0.25), 2**70, 3]], (3,), "h_i entries")
        assert arr.dtype == np.float64 and arr.shape == (2, 3) and not arr.flags.writeable
        assert np.signbit(arr[0, 1]) and arr[1, 1] == 2.0**70

    def test_empty_rows_have_the_row_shape(self):
        assert real_stack([], (3, 3), "coupling tensor entries").shape == (0, 3, 3)

    @pytest.mark.parametrize("rows, message", [
        ([[1.0, True, 0.0]], "must be numbers, got a boolean"),
        ([[1.0, np.True_, 0.0]], "must be numbers, got a boolean"),
        ([np.array([0.0, 1.0, 2.0]), [0.0, np.False_, 1.0]], "must be numbers, got a boolean"),
        ([[True, False, True]], "must be numbers, got dtype bool"),
        ([["0.5", 0.0, 1.0]], "must be numbers, got dtype <U"),
        ([[1j, 0.0, 1.0]], "must be numbers, got dtype complex128"),
        (np.ones((2, 3), dtype=bool), "must be numbers, got dtype bool"),
        # NumPy keeps these as objects, and float() would read "0.5"
        ([[None, 0.0, 1.0]], "must be a real number, got None"),
        ([[2**64, "0.5", 0]], "must be a real number, got '0.5'"),
        ([[2**64, True, 0]], "must be a real number, got True"),
    ], ids=["bool", "np.bool_", "np.bool_-beside-array", "all-bool", "str", "complex",
            "bool-array", "none", "str-beside-huge-int", "bool-beside-huge-int"])
    def test_non_numbers_are_rejected(self, rows, message):
        with pytest.raises(ValueError, match="^h_i entries " + message):
            real_stack(rows, (3,), "h_i entries")

    @pytest.mark.parametrize("rows, shape", [([[1.0, 2.0]], (3,)), ([1.0, 2.0], (3,)),
                                             ([[1.0]], ())])
    def test_shape_is_checked(self, rows, shape):
        with pytest.raises(ValueError, match=r"^factors must come in rows of shape"):
            real_stack(rows, shape, "factors")

    def test_non_finite_entries_only_when_asked(self):
        with pytest.raises(ValueError, match="^profile factors must be finite$"):
            real_stack([1.0, math.nan], (), "profile factors")
        assert np.isinf(real_stack([1.0, math.inf], (), "matrix entries", finite=False)[1])

    def test_int_too_large_for_a_float_overflows(self):
        with pytest.raises(OverflowError):
            real_stack([[10**400, 0, 0]], (3,), "h_i entries")


class TestIntStack:
    def test_rows_become_one_read_only_int_array(self):
        arr = int_stack([(0, 1), (np.int64(2), 3)], 2, "edge endpoints")
        assert arr.dtype == np.int64 and arr.tolist() == [[0, 1], [2, 3]]
        assert not arr.flags.writeable
        assert int_stack([], 2, "edge endpoints").shape == (0, 2)

    @pytest.mark.parametrize("rows", [[(0, True)], [(np.True_, 2)], [(0.0, 1)],
                                      np.array([[False, True]])])
    def test_non_integers_raise_json_int_type_error(self, rows):
        with pytest.raises(TypeError):
            int_stack(rows, 2, "edge endpoints")

    def test_row_width_is_checked(self):
        with pytest.raises(ValueError, match=r"^edge endpoints must come in rows of shape"):
            int_stack([(0, 1, 2)], 2, "edge endpoints")


_J = CouplingTensor.heisenberg()
# every constructor that takes a real number from its caller
_REAL_SITES = {
    "coupling-diagonal": lambda x: CouplingTensor.diagonal(x, 1.0, 1.0),
    "coupling-heisenberg": lambda x: CouplingTensor.heisenberg(x),
    "coupling-rows": lambda x: CouplingTensor([[x, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "model-h_i": lambda x: SpinModel(2, [(0, 1)], [np.eye(3)], [[x, 0, 0]], [np.zeros(3)]),
    "model-h_j": lambda x: SpinModel(2, [(0, 1)], [np.eye(3)], [np.zeros(3)], [[0, x, 0]]),
    "from-edges-field": lambda x: from_edges(2, [(0, 1, _J)], [[x, 0.5, 0], [0, 0, 0]]),
    "lattice-field": lambda x: build_lattice("chain", 3, field=(0.5, x, 0.0)),
    "profile-factor": lambda x: TimeProfile("piecewise", (1.0, x)),
    "gate-angle": lambda x: Gate(GateKind.RZ, (0,), angle=x),
    "gate-tau": lambda x: Gate(GateKind.UIJ, (0, 1), matrix=np.eye(4), tau=x),
    "gate-matrix": lambda x: Gate(GateKind.U1Q, (0,), matrix=[[x, 0.0], [0.0, 1.0]]),
    "uij-gates-tau": lambda x: _uij_gates([(0, 1)], np.eye(4)[None], x),
    "timing-t_inf": lambda x: GateTimingModel(t_inf=x),
    "timing-s": lambda x: GateTimingModel(s=x),
    "steps-j": lambda x: steps_for_accuracy(1, 2, 4, x, 1.0, 0.01),
    "steps-t": lambda x: steps_for_accuracy(2, 2, 4, 1.0, x, 0.01),
    "steps-epsilon": lambda x: steps_for_accuracy(1, 2, 4, 1.0, 1.0, x),
    "expand-t": lambda x: expand(first_order(2), 2, x),
    "synth-edge-tau": lambda x: synth_edge(np.eye(3), np.zeros(3), np.zeros(3), x),
    "synth-edge-row": lambda x: synth_edge(np.eye(3), [x, 0.0, 0.0], np.zeros(3), 0.5),
    "exact-evolution-t": lambda x: exact_evolution(build_lattice("chain", 2), x),
}


class TestOneDefinitionOfANumber:
    @pytest.mark.parametrize("value", [True, np.True_, "0.5", math.nan, math.inf, -math.inf],
                             ids=["bool", "np.bool_", "str", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("site", list(_REAL_SITES))
    def test_every_site_rejects_non_numbers(self, site, value):
        with pytest.raises(ValueError):
            _REAL_SITES[site](value)

    @pytest.mark.parametrize("matrix", [np.eye(2, dtype=bool), np.array([["1", "0"], ["0", "1"]])],
                             ids=["bool", "str"])
    def test_gate_matrix_must_hold_numbers(self, matrix):
        with pytest.raises(ValueError, match="gate matrix entries must be numbers, got dtype"):
            Gate(GateKind.U1Q, (0,), matrix=matrix)

    @pytest.mark.parametrize("flag", [True, np.True_, np.False_],
                             ids=["bool", "np.True_", "np.False_"])
    def test_complex_gate_rows_refuse_booleans(self, flag):
        # NumPy reads a bool beside a complex as a number, so the rows are scanned
        rows = [[flag, 0j], [0, 1]] if flag else [[1, 0j], [flag, 1]]
        with pytest.raises(ValueError, match="gate matrix entries must be numbers, got a boolean"):
            Gate(GateKind.U1Q, (0,), matrix=rows)

    @pytest.mark.parametrize("matrix", [[[0, 1j], [1j, 0]], np.array([[0, 1j], [1j, 0]]),
                                        [np.array([0, 1j]), np.array([1j, 0])]],
                             ids=["rows", "ndarray", "rows-of-arrays"])
    def test_complex_gate_matrices_load(self, matrix):
        g = Gate(GateKind.U1Q, (0,), matrix=matrix)
        assert g.matrix.dtype == complex and g.matrix.tolist() == [[0, 1j], [1j, 0]]

    @given(st.floats(allow_nan=False, allow_infinity=False) | _edge_floats
           | st.integers(-(10**20), 10**20)
           | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
           | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
           | st.integers(-(2**63), 2**63 - 1).map(np.int64))
    @example(-0.0)
    @example(np.float64(-0.0))
    @example(np.float32(-0.0))
    @settings(max_examples=150, deadline=None)
    def test_reals_are_stored_as_float_stores_them(self, x):
        want = float(x)

        def model_json(v):
            fields = [[v, 0.0, 0.5], [0.0, 0.0, 0.0], [0.0, v, 0.0]]
            return model_to_json(from_edges(3, [(0, 1, CouplingTensor.diagonal(v, 1.0, v)),
                                                (1, 2, CouplingTensor.heisenberg(v))],
                                            fields, TimeProfile("piecewise", (v, 1.0))))

        def circuit(v):
            return Circuit(2, [[Gate(GateKind.RZ, (0,), angle=v), Gate(GateKind.RX, (1,), angle=v)],
                               [Gate(GateKind.UIJ, (0, 1), matrix=np.eye(4), tau=v)]])

        text = model_json(x)
        assert text == model_json(want)
        model = model_from_json(text)
        assert _bits(model.profile.factors[0]) == _bits(want)
        assert _bits(model.coupling[0, 0, 0]) == _bits(want)
        circ = circuit(x)
        assert [_bits(g.angle if g.tau is None else g.tau) for g in circ.all_gates()] == \
            [_bits(want)] * 3
        assert circuit_to_json(circ) == circuit_to_json(circuit(want))
        if want >= 0:
            assert _bits(GateTimingModel(t_inf=x, s=1.0).t_inf) == _bits(want)
