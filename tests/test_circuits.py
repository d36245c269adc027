"""Gate/circuit IR: validation, tallies, JSON round trips, QASM export."""
from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest

from trottersmith import (
    Circuit,
    CouplingTensor,
    Gate,
    GateKind,
    build_lattice,
    circuit_from_json,
    circuit_to_json,
    circuit_to_qasm3,
    color_model,
    counts,
    formula_for_order,
    from_edges,
    run_circuit,
)
from trottersmith.circuits import _uij_gates, _zyz
from trottersmith.jsonutil import dump_json
from trottersmith.synth import build_trotter_circuit

from conftest import random_unitary

CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _rz(a: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def _ry(a: float) -> np.ndarray:
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _qasm_u(theta: float, phi: float, lam: float) -> np.ndarray:
    return np.exp(0.5j * (phi + lam)) * (_rz(phi) @ _ry(theta) @ _rz(lam))


class TestGateValidation:
    def test_arity(self):
        with pytest.raises(ValueError, match="takes 2 qubits"):
            Gate(GateKind.CX, (0,))
        with pytest.raises(ValueError, match="takes 1 qubits"):
            Gate(GateKind.H, (0, 1))

    def test_repeated_and_negative_qubits(self):
        with pytest.raises(ValueError, match="repeated"):
            Gate(GateKind.CX, (2, 2))
        with pytest.raises(ValueError, match="negative"):
            Gate(GateKind.H, (-1,))

    def test_angle_rules(self):
        Gate(GateKind.RZ, (0,), angle=0.3)
        with pytest.raises(ValueError, match="finite angle"):
            Gate(GateKind.RX, (0,))
        with pytest.raises(ValueError, match="finite angle"):
            Gate(GateKind.RY, (0,), angle=float("nan"))
        with pytest.raises(ValueError, match="takes no angle"):
            Gate(GateKind.H, (0,), angle=1.0)

    def test_matrix_rules(self):
        with pytest.raises(ValueError, match="2x2"):
            Gate(GateKind.U1Q, (0,), matrix=np.eye(4))
        with pytest.raises(ValueError, match="4x4"):
            Gate(GateKind.UIJ, (0, 1), matrix=np.eye(2))
        with pytest.raises(ValueError, match="deviates from unitary by"):
            Gate(GateKind.U1Q, (0,), matrix=np.array([[1, 0], [0, 1.5]]))
        with pytest.raises(ValueError, match="takes no matrix"):
            Gate(GateKind.CX, (0, 1), matrix=CX)

    def test_nan_matrix_rejected(self):
        for kind, dim, qubits in ((GateKind.U1Q, 2, (0,)), (GateKind.UIJ, 4, (0, 1))):
            with pytest.raises(ValueError, match="deviates from unitary by nan"):
                Gate(kind, qubits, matrix=np.full((dim, dim), np.nan))

    def test_matrix_frozen(self):
        g = Gate(GateKind.U1Q, (0,), matrix=np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 2.0

    def test_edge_and_tau_only_on_uij(self):
        Gate(GateKind.UIJ, (0, 1), matrix=CX, edge=(0, 1), tau=0.5)
        with pytest.raises(ValueError, match="edge metadata"):
            Gate(GateKind.CX, (0, 1), edge=(0, 1))
        with pytest.raises(ValueError, match="tau metadata"):
            Gate(GateKind.RZ, (0,), angle=0.1, tau=0.5)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_tau_must_be_finite(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            Gate(GateKind.UIJ, (0, 1), matrix=CX, edge=(0, 1), tau=tau)

    def test_string_kind_coerced(self):
        assert Gate("h", (0,)).kind is GateKind.H

    def test_rotation_convention(self):
        # rz(theta) = exp(-i theta Z / 2)
        got = Gate(GateKind.RZ, (0,), angle=0.7).unitary()
        assert np.allclose(got, _rz(0.7), atol=1e-15)
        got = Gate(GateKind.RX, (0,), angle=np.pi).unitary()
        assert np.allclose(got, [[0, -1j], [-1j, 0]], atol=1e-12)


class TestCircuitValidation:
    def test_needs_a_qubit(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            Circuit(n=0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(n=2, layers=((Gate(GateKind.H, (2,)),),))

    def test_layer_collision(self):
        layer = (Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1)))
        with pytest.raises(ValueError, match="used by two gates"):
            Circuit(n=2, layers=(layer,))

    def test_depth_is_layer_count(self):
        circ = Circuit(
            n=3,
            layers=(
                (Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,))),
                (Gate(GateKind.CX, (0, 1)),),
            ),
        )
        assert circ.depth == 2
        assert circ.gate_count() == 3
        assert counts(circ)["cx"] == 1
        assert counts(circ)["by_kind"]["h"] == 2


def test_counts_tally():
    circ = Circuit(
        n=3,
        layers=(
            (Gate(GateKind.H, (0,)), Gate(GateKind.RZ, (2,), angle=1.0)),
            (Gate(GateKind.CX, (0, 1)),),
            (Gate(GateKind.UIJ, (1, 2), matrix=CX, edge=(1, 2), tau=0.3),),
        ),
    )
    c = counts(circ)
    assert c["depth"] == 3
    assert c["total"] == 4
    assert c["cx"] == 1
    assert c["interaction"] == 1
    assert c["by_kind"]["h"] == 1
    assert c["by_kind"]["rz"] == 1
    assert c["by_kind"]["u1q"] == 0


def test_interaction_edges_sorted_and_deduped():
    g1 = Gate(GateKind.UIJ, (2, 3), matrix=CX, edge=(2, 3), tau=0.1)
    g2 = Gate(GateKind.UIJ, (0, 1), matrix=CX, edge=(0, 1), tau=0.1)
    g3 = Gate(GateKind.UIJ, (0, 1), matrix=CX, edge=(0, 1), tau=0.2)
    circ = Circuit(n=4, layers=((g1, g2), (g3,)))
    assert circ.interaction_edges() == ((0, 1), (2, 3))


class TestJsonRoundTrip:
    def _sample(self, rng) -> Circuit:
        u = random_unitary(2, rng)
        v = random_unitary(4, rng)
        return Circuit(
            n=4,
            layers=(
                (Gate(GateKind.H, (0,)), Gate(GateKind.RY, (1,), angle=0.25)),
                (Gate(GateKind.U1Q, (2,), matrix=u),),
                (Gate(GateKind.UIJ, (1, 3), matrix=v, edge=(1, 3), tau=0.125),),
                (Gate(GateKind.CX, (3, 0)),),
            ),
        )

    def test_values_survive(self, rng):
        circ = self._sample(rng)
        back = circuit_from_json(circuit_to_json(circ))
        assert back.n == circ.n
        assert back.depth == circ.depth
        for a, b in zip(back.all_gates(), circ.all_gates()):
            assert a.kind is b.kind
            assert a.qubits == b.qubits
            assert a.angle == b.angle
            assert a.edge == b.edge
            assert a.tau == b.tau
            if b.matrix is not None:
                assert np.array_equal(a.matrix, b.matrix)

    def test_text_is_a_fixed_point(self, rng):
        text = circuit_to_json(self._sample(rng))
        assert circuit_to_json(circuit_from_json(text)) == text

    def test_depth_cross_check(self, rng):
        obj = json.loads(circuit_to_json(self._sample(rng)))
        obj["depth"] += 1
        with pytest.raises(ValueError, match="stored depth"):
            circuit_from_json(json.dumps(obj))

    def test_nan_matrix_entry_rejected(self, rng):
        # json.loads accepts the NaN token, so the gate check must refuse it
        obj = json.loads(circuit_to_json(self._sample(rng)))
        obj["gates"][obj["layers"][1][0]]["matrix"][0][0][0] = float("nan")
        text = json.dumps(obj)
        assert "NaN" in text
        with pytest.raises(ValueError, match="deviates from unitary"):
            circuit_from_json(text)

    def test_nan_tau_rejected(self, rng):
        obj = json.loads(circuit_to_json(self._sample(rng)))
        obj["gates"][obj["layers"][2][0]]["tau"] = float("nan")
        text = json.dumps(obj)
        assert "NaN" in text
        with pytest.raises(ValueError, match="tau must be finite"):
            circuit_from_json(text)

    def test_signed_zeros_stay_apart(self):
        # the table key must tell -0.0 from 0.0, or re-emitting changes bytes
        neg = np.eye(2, dtype=complex)
        neg[0, 1] = complex(-0.0, 0.0)
        circ = Circuit(n=1, layers=(
            (Gate(GateKind.U1Q, (0,), matrix=np.eye(2, dtype=complex)),),
            (Gate(GateKind.U1Q, (0,), matrix=neg),),
            (Gate(GateKind.RZ, (0,), angle=0.0),),
            (Gate(GateKind.RZ, (0,), angle=-0.0),),
        ))
        text = circuit_to_json(circ)
        assert "-0.0" in text
        assert len(json.loads(text)["gates"]) == 4
        back = circuit_from_json(text)
        assert circuit_to_json(back) == text
        assert len({id(g) for g in back.all_gates()}) == 4

    def test_identical_documents_share_one_gate(self, xyz_square44):
        text = circuit_to_json(build_trotter_circuit(*xyz_square44))
        doc = json.loads(text)
        table = [json.dumps(g) for g in doc["gates"]]
        slots = [table[k] for layer in doc["layers"] for k in layer]
        back = circuit_from_json(text)
        assert len(slots) > len(set(slots)) == len(table)
        assert len({id(g) for g in back.all_gates()}) == len(table)
        assert circuit_to_json(back) == text

    def test_repeated_table_entry_loads_apart_and_emits_once(self):
        h = {"kind": "h", "qubits": [0]}
        text = json.dumps({"n": 1, "depth": 2, "gates": [h, h], "layers": [[0], [1]]})
        back = circuit_from_json(text)
        assert back.layers[0][0] is not back.layers[1][0]
        doc = json.loads(circuit_to_json(back))
        assert doc["gates"] == [h]
        assert doc["layers"] == [[0], [0]]

    @pytest.mark.parametrize("text", [
        "[]",
        # documents without a gate table, as written before the table existed
        '{"n": 4, "layers": 5}',
        '{"n": 4, "layers": [[{"qubits": [0]}]]}',
        '{"n": 4, "layers": [[{"kind": "h", "qubits": 0}]]}',
        '{"n": [4], "layers": []}',
        # the same faults in the table layout
        '{"n": 4, "gates": [], "layers": 5}',
        '{"n": 4, "gates": [{"qubits": [0]}], "layers": [[0]]}',
        '{"n": 4, "gates": [{"kind": "h", "qubits": 0}], "layers": [[0]]}',
        '{"n": [4], "gates": [], "layers": []}',
    ])
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(ValueError):
            circuit_from_json(text)

    @pytest.mark.parametrize("doc", [
        {"n": 1, "layers": [[{"kind": "h", "qubits": [0]}]]},
        {"n": 1, "gates": [], "layers": [[{"kind": "h", "qubits": [0]}]]},
    ], ids=["no-table", "gates-in-layers"])
    def test_old_layout_rejected(self, doc):
        with pytest.raises(ValueError, match="malformed circuit document|missing field 'gates'"):
            circuit_from_json(json.dumps(doc))

    @pytest.mark.parametrize("k", [-1, 2])
    def test_index_out_of_table_rejected(self, k):
        text = json.dumps({"n": 2, "gates": [{"kind": "h", "qubits": [0]},
                                             {"kind": "h", "qubits": [1]}],
                           "layers": [[0], [k]]})
        with pytest.raises(ValueError, match=f"gate index {k} out of range for a table of 2"):
            circuit_from_json(text)

    @pytest.mark.parametrize("text", [
        '{"n": 1e400, "layers": [], "gates": []}',
        '{"n": 2.5, "layers": [], "gates": []}',
        '{"n": 2, "depth": 1e400, "layers": [], "gates": []}',
        '{"n": 2, "depth": 0.0, "layers": [], "gates": []}',
        '{"n": 2, "layers": [[0]], "gates": [{"kind": "cx", "qubits": [0.7, 1]}]}',
        '{"n": 2, "layers": [[0]], "gates": [{"kind": "h", "qubits": [1e400]}]}',
        '{"n": 2, "layers": [[0.5]], "gates": [{"kind": "h", "qubits": [0]}]}',
        '{"n": 2, "layers": [["0"]], "gates": [{"kind": "h", "qubits": [0]}]}',
    ])
    def test_integer_fields_must_be_integers(self, text):
        # these used to truncate (2.5 -> 2, [0.7, 1] -> (0, 1)) or overflow
        with pytest.raises(ValueError, match="cannot be interpreted as an integer"):
            circuit_from_json(text)

    @pytest.mark.parametrize("gate", [
        {"kind": "rz", "qubits": [0], "angle": True},
        {"kind": "uij", "qubits": [0, 1], "edge": [0, 1], "tau": False,
         "matrix": [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]},
        {"kind": "u1q", "qubits": [0], "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"kind": "uij", "qubits": [0, 1], "edge": [0, 1], "tau": "0",
         "matrix": [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]},
    ], ids=["rz-angle-bool", "uij-tau-bool", "u1q-matrix-bool", "uij-tau-string"])
    def test_booleans_and_strings_are_not_numbers(self, gate):
        # float() and complex() read JSON true/false as 1 and 0, float() "0" as 0
        text = json.dumps({"n": 2, "gates": [gate], "layers": [[0]]})
        with pytest.raises(ValueError, match="angle, tau and matrix entries must be numbers"):
            circuit_from_json(text)
        # the same document with numbers loads
        assert circuit_from_json(text.replace("true", "1").replace("false", "0")
                                 .replace('"0"', "0"))

    @pytest.mark.parametrize("mode", ["decomposed", "scaled"])
    def test_loaded_circuit_matches_built(self, rng, mode):
        model = build_lattice("chain", 6, coupling=CouplingTensor.diagonal(1.0, 0.7, 0.4),
                              field=(0.3, 0.0, 0.5))
        col = color_model(model)
        built = build_trotter_circuit(model, col, formula_for_order(2, col.num_classes), 3,
                                      1.0, mode=mode)
        text = circuit_to_json(built)
        back = circuit_from_json(text)
        assert circuit_to_json(back) == text
        assert counts(back) == counts(built)
        states = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        assert np.max(np.abs(run_circuit(states, back) - run_circuit(states, built))) <= 1e-12


class TestStageGates:
    def test_stack_check_fails_like_a_gate(self, rng):
        good = random_unitary(4, rng)
        for bad in (1.001 * good, np.full((4, 4), np.nan, dtype=complex)):
            with pytest.raises(ValueError) as single:
                Gate(GateKind.UIJ, (0, 1), matrix=bad, edge=(0, 1), tau=0.5)
            with pytest.raises(ValueError) as stacked:
                _uij_gates([(0, 1), (2, 3)], np.array([good, bad]), 0.5)
            assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_tau_must_be_finite(self, rng, tau):
        with pytest.raises(ValueError, match="uij tau must be finite"):
            _uij_gates([(0, 1)], np.array([random_unitary(4, rng)]), tau)

    def test_gates_own_a_read_only_copy(self, rng):
        us = np.array([random_unitary(4, rng), random_unitary(4, rng)])
        gates = _uij_gates([(0, 1), (2, 3)], us, -0.0)
        us[0, 0, 0] = 7.0
        assert gates[0].matrix[0, 0] != 7.0
        with pytest.raises(ValueError):
            gates[1].matrix[0, 0] = 0.0
        text = circuit_to_json(Circuit(n=4, layers=(gates,)))
        assert '"tau":-0.0' in text
        assert circuit_to_json(circuit_from_json(text)) == text


def test_shared_dict_renders_like_unshared_copies():
    # one dict object at two depths, and twice at one depth
    shared = {"m": [[-0.0, 1.0], [0.5, 2]], "tag": "x", "inner": {"k": True}}
    doc = {"a": shared, "b": [shared, [shared]], "c": {"d": shared}}
    unshared = json.loads(json.dumps(doc))
    assert unshared["a"] is not unshared["b"][0]
    text = dump_json(doc)
    assert text == dump_json(unshared) == dump_json(copy.deepcopy(doc))
    assert json.loads(text) == unshared


class TestZyz:
    def test_random_reconstruction(self, rng):
        for _ in range(50):
            u = random_unitary(2, rng)
            theta, phi, lam, gamma = _zyz(u)
            rebuilt = np.exp(1j * gamma) * _qasm_u(theta, phi, lam)
            assert np.max(np.abs(rebuilt - u)) < 1e-10

    def test_diagonal_and_antidiagonal(self):
        for u in (np.eye(2, dtype=complex),
                  np.diag([1.0, 1j]),
                  np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]])):
            theta, phi, lam, gamma = _zyz(u)
            rebuilt = np.exp(1j * gamma) * _qasm_u(theta, phi, lam)
            assert np.max(np.abs(rebuilt - u)) < 1e-12


class TestQasmExport:
    def test_header_and_plain_gates(self):
        circ = Circuit(
            n=2,
            layers=(
                (Gate(GateKind.H, (0,)),),
                (Gate(GateKind.CX, (0, 1)),),
                (Gate(GateKind.RZ, (1,), angle=0.5),),
            ),
        )
        text = circuit_to_qasm3(circ)
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 3.0;"
        assert lines[1] == 'include "stdgates.inc";'
        assert "qubit[2] q;" in lines
        assert "h q[0];" in lines
        assert "cx q[0], q[1];" in lines
        assert "rz(0.5) q[1];" in lines
        assert "gphase" not in text

    def test_uij_call_and_header_comment(self):
        gate = Gate(GateKind.UIJ, (0, 1), matrix=CX, edge=(0, 1), tau=0.25)
        circ = Circuit(n=2, layers=((gate,),))
        model = from_edges(2, [(0, 1, CouplingTensor.heisenberg(2.0))])
        text = circuit_to_qasm3(circ, model=model)
        assert "uij(0.25) q[0], q[1];" in text
        assert "exp(-i tau H_ab)" in text
        assert "//   edge (0, 1)" in text
        assert "J[x,:] = [2.0, 0.0, 0.0]" in text

    def test_uij_without_model_skips_coupling_rows(self):
        gate = Gate(GateKind.UIJ, (0, 1), matrix=CX, edge=(0, 1), tau=0.25)
        text = circuit_to_qasm3(Circuit(n=2, layers=((gate,),)))
        assert "//   edge (0, 1)" in text
        assert "J[" not in text

    def test_u1q_emits_one_trailing_gphase(self, rng):
        gates = tuple(
            (Gate(GateKind.U1Q, (i,), matrix=random_unitary(2, rng)),)
            for i in range(3)
        )
        text = circuit_to_qasm3(Circuit(n=3, layers=gates))
        assert text.count("U(") == 3
        assert text.count("gphase(") <= 1
        # the session phase is the sum of the per-gate gamma terms
        total = 0.0
        for layer in gates:
            total += _zyz(layer[0].matrix)[3]
        if abs(total) > 1e-15:
            assert "gphase(" in text

    def test_cx_line_count(self):
        circ = Circuit(
            n=3,
            layers=(
                (Gate(GateKind.CX, (0, 1)),),
                (Gate(GateKind.CX, (1, 2)),),
            ),
        )
        text = circuit_to_qasm3(circ)
        assert sum(1 for ln in text.splitlines() if ln.startswith("cx ")) == 2
