"""Gate/circuit IR: validation, tallies, JSON round trips, QASM export."""
from __future__ import annotations

import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    run_circuit,
)
from trottersmith.circuits import _uij_gates, _zyz
from trottersmith.cli import _guard
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
        with pytest.raises(ValueError, match="rx angle must be a real number, got None"):
            Gate(GateKind.RX, (0,))
        with pytest.raises(ValueError, match="ry angle must be finite, got nan"):
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

    def test_tau_only_on_uij(self):
        Gate(GateKind.UIJ, (0, 1), matrix=CX, tau=0.5)
        with pytest.raises(ValueError, match="tau metadata"):
            Gate(GateKind.RZ, (0,), angle=0.1, tau=0.5)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_tau_must_be_finite(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            Gate(GateKind.UIJ, (0, 1), matrix=CX, tau=tau)

    @pytest.mark.parametrize("gate, message", [
        (lambda: Gate(GateKind.RZ, (0,), angle=True), "rz angle must be a real number, got True"),
        (lambda: Gate(GateKind.UIJ, (0, 1), matrix=CX, tau=True),
         "uij tau must be a real number, got True"),
    ], ids=["angle", "tau"])
    def test_boolean_scalars_rejected(self, gate, message):
        # float() would store 1.0, which circuit_from_json refuses as a boolean
        with pytest.raises(ValueError, match=message):
            gate()

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

    def test_qubit_count_must_be_an_integer(self):
        # 2.5 used to be stored and written as "n":2.5, which the loader refuses
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Circuit(n=2.5)

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
            (Gate(GateKind.UIJ, (1, 2), matrix=CX, tau=0.3),),
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


class TestRepeatedLayers:
    """Layer walks visit each distinct layer object once; results must not
    depend on which layers share a tuple."""

    def test_repeated_clash_names_its_first_index(self):
        ok = (Gate(GateKind.H, (0,)),)
        clash = (Gate(GateKind.H, (1,)), Gate(GateKind.CX, (0, 1)))
        with pytest.raises(ValueError, match=r"^layer 2: qubit 1 used by two gates$"):
            Circuit(n=2, layers=(ok, ok, clash, ok, clash, clash))
        wide = (Gate(GateKind.H, (2,)),)
        with pytest.raises(ValueError, match=r"^layer 1: qubit 2 out of range for n=2$"):
            Circuit(n=2, layers=(ok, wide, wide))

    @pytest.mark.parametrize("mode", ["decomposed", "scaled"])
    def test_shared_tuples_read_like_fresh_ones(self, xyz_square44, mode):
        model, col, f, m, t = xyz_square44
        shared = build_trotter_circuit(model, col, f, m, t, mode=mode)
        assert len({id(layer) for layer in shared.layers}) < shared.depth
        fresh = Circuit(n=shared.n, layers=tuple(tuple(list(layer)) for layer in shared.layers))
        assert len({id(layer) for layer in fresh.layers}) == fresh.depth
        assert counts(shared) == counts(fresh)
        assert circuit_to_json(shared) == circuit_to_json(fresh)


class TestJsonRoundTrip:
    def _sample(self, rng) -> Circuit:
        u = random_unitary(2, rng)
        v = random_unitary(4, rng)
        return Circuit(
            n=4,
            layers=(
                (Gate(GateKind.H, (0,)), Gate(GateKind.RY, (1,), angle=0.25)),
                (Gate(GateKind.U1Q, (2,), matrix=u),),
                (Gate(GateKind.UIJ, (1, 3), matrix=v, tau=0.125),),
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
        doc = _old_layout(json.loads(text))
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
        assert doc["layers"] == [[0], 0]

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

    def test_repeated_rows_share_one_tuple(self):
        h0, h1 = {"kind": "h", "qubits": [0]}, {"kind": "h", "qubits": [1]}
        text = json.dumps({"n": 2, "depth": 5, "gates": [h0, h1],
                           "layers": [[0, 1], [1], [0, 1], [], [1]]})
        back = circuit_from_json(text)
        assert back.layers[0] is back.layers[2]
        assert back.layers[1] is back.layers[4]
        assert len({id(layer) for layer in back.layers}) == 3
        assert circuit_to_json(back) == circuit_to_json(circuit_from_json(text))

    @pytest.mark.parametrize("rows", [
        # a bad entry in a row that repeats, before and after its first use
        [[0], [0, True], [0, True]],
        [[0, 1.0], [0], [0, 1.0]],
        [[0, "1"], [0, "1"]],
        [[0], [0, 2], [0, 2]],
        [[0], [-1], [-1]],
        # rows that are not lists
        [[0], 1, 1],
        [[0], "0", "0"],
        [[0], {"0": 1}, {"0": 1}],
        [[0], {}, {}],
        [[0], ""],
        [[0], None],
    ], ids=["true", "float", "string-entry", "too-large", "negative", "int-row",
            "string-row", "dict-row", "empty-dict-row", "empty-string-row", "null-row"])
    def test_repeated_bad_rows_exit_two(self, rows, capsys):
        gates = [{"kind": "h", "qubits": [0]}, {"kind": "h", "qubits": [1]}]
        text = json.dumps({"n": 2, "gates": gates, "layers": rows})
        with pytest.raises(SystemExit) as exc:
            _guard(circuit_from_json)(text)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize("gate, message", [
        ({"kind": "rz", "qubits": [0], "angle": True}, "rz angle must be a real number, got True"),
        ({"kind": "uij", "qubits": [0, 1], "tau": False,
          "matrix": [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]},
         "uij tau must be a real number, got False"),
        ({"kind": "u1q", "qubits": [0], "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
         "gate matrix entries must be numbers, got a boolean"),
        ({"kind": "uij", "qubits": [0, 1], "tau": "0",
          "matrix": [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]},
         "uij tau must be a real number, got '0'"),
    ], ids=["rz-angle-bool", "uij-tau-bool", "u1q-matrix-bool", "uij-tau-string"])
    def test_booleans_and_strings_are_not_numbers(self, gate, message):
        # float() and complex() read JSON true/false as 1 and 0, float() "0" as 0
        text = json.dumps({"n": 2, "gates": [gate], "layers": [[0]]})
        with pytest.raises(ValueError, match=message):
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


    def test_documents_with_edge_keys_still_load(self):
        # uij gate documents used to repeat their qubits as "edge", between
        # "matrix" and "tau"; expand like entries and layer references and put
        # the edge keys back, and the bytes are those of the scaled chain-4
        # artifact as it was written then (its old golden digest)
        text = circuit_to_json(_chain4(heisenberg=False, mode="scaled"))
        doc = _old_layout(json.loads(text))
        doc["gates"] = [{**{k: v for k, v in g.items() if k != "tau"}, "edge": g["qubits"],
                         "tau": g["tau"]} for g in doc["gates"]]
        old = dump_json(doc)
        assert hashlib.sha256(old.encode()).hexdigest() == \
            "e5c6d4cf27d5b5303daf7400a7215204ae90f2600b71f84fbab2ec3f958b6fcc"
        assert circuit_to_json(circuit_from_json(old)) == text

    # the CLI's chain-4 JSON goldens (see test_cli's test_golden_artifact_bytes)
    # as written before like entries and layer references
    @pytest.mark.parametrize("heisenberg, mode, digest", [
        (False, "decomposed", "799bcac89eb8b4de9f537941f73a40a75aa2087a750371847072f21937d16e71"),
        (False, "scaled", "37a0428afbc80a02586c397cf685f4bd1b8a105e6a25e20837104d5014265fc5"),
        (True, "decomposed", "e099c9482a5fc8a36e7a386b44a1f1113a65aa2bebba8a365b15009782a0f944"),
    ], ids=["decomposed", "scaled", "heisenberg-decomposed"])
    def test_documents_without_references_still_load(self, heisenberg, mode, digest):
        text = circuit_to_json(_chain4(heisenberg, mode))
        old = dump_json(_old_layout(json.loads(text)))
        assert hashlib.sha256(old.encode()).hexdigest() == digest
        assert circuit_to_json(circuit_from_json(old)) == text


def _chain4(heisenberg: bool, mode: str) -> Circuit:
    """The circuit of ``synth`` on chain-4, order 2, m=2, t=1: a field-free
    Heisenberg chain, or XYZ (1, 0.7, 0.4) with field (0.3, 0, 0.5)."""
    model = (build_lattice("chain", 4) if heisenberg else
             build_lattice("chain", 4, coupling=CouplingTensor.diagonal(1.0, 0.7, 0.4),
                           field=(0.3, 0.0, 0.5)))
    col = color_model(model)
    return build_trotter_circuit(model, col, formula_for_order(2, col.num_classes), 2, 1.0,
                                 mode=mode)


def _old_layout(doc: dict) -> dict:
    """A circuit document with every like entry written out in full and every
    layer reference replaced by the row it names: the layout before either."""
    gates: list[dict] = []
    for g in doc["gates"]:
        gates.append({**gates[g["like"]], "qubits": g["qubits"]} if "like" in g else g)
    layers: list[list] = []
    for row in doc["layers"]:
        layers.append(layers[row] if type(row) is int else row)
    return {**doc, "gates": gates, "layers": layers}


def _bodies(draw) -> list:
    """One gate body (kind, angle, matrix, tau) for each of six kinds, with
    drawn angles, unitaries and tau, signed zeros included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angle = st.sampled_from([0.0, -0.0, 0.25, -1.5, math.pi])
    return [
        (GateKind.H, None, None, None),
        (GateKind.CX, None, None, None),
        (GateKind.RZ, draw(angle), None, None),
        (GateKind.RX, draw(angle), None, None),
        (GateKind.U1Q, None, random_unitary(2, rng), None),
        (GateKind.UIJ, None, random_unitary(4, rng), draw(st.sampled_from([None, 0.5, -0.0]))),
    ]


@st.composite
def _repetitive_circuits(draw) -> Circuit:
    """Random circuits on up to 5 qubits whose few gate bodies recur on other
    qubits and whose layers recur, as shared tuples and as fresh equal ones."""
    n = draw(st.integers(2, 5))
    bodies = draw(st.lists(st.sampled_from(_bodies(draw)), min_size=1, max_size=3))
    distinct = []
    for _ in range(draw(st.integers(1, 4))):
        free, layer = list(range(n)), []
        for kind, angle, matrix, tau in draw(st.lists(st.sampled_from(bodies), min_size=1,
                                                      max_size=5)):
            arity = 2 if kind in (GateKind.CX, GateKind.UIJ) else 1
            if len(free) < arity:
                break
            qubits = draw(st.permutations(free))[:arity]
            free = [q for q in free if q not in qubits]
            layer.append(Gate(kind, tuple(qubits), angle=angle, matrix=matrix, tau=tau))
        distinct.append(tuple(layer))
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    fresh = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    return Circuit(n=n, layers=tuple(tuple(list(distinct[k])) if copy_it else distinct[k]
                                     for k, copy_it in zip(order, fresh)))


class TestReferences:
    """Like entries and layer references: what the writer emits and what the
    loader accepts."""

    @settings(max_examples=60, deadline=None)
    @given(_repetitive_circuits())
    def test_round_trip(self, circ):
        text = circuit_to_json(circ)
        back = circuit_from_json(text)
        assert circuit_to_json(back) == text
        assert counts(back) == counts(circ)
        # the same circuit written without references loads to the same text
        assert circuit_to_json(circuit_from_json(dump_json(_old_layout(json.loads(text))))) == text
        rng = np.random.default_rng(0)
        states = rng.standard_normal((2**circ.n, 2)) + 1j * rng.standard_normal((2**circ.n, 2))
        assert np.max(np.abs(run_circuit(states, back) - run_circuit(states, circ))) <= 1e-12

    def test_each_body_and_row_written_once(self):
        rz = Gate(GateKind.RZ, (0,), angle=0.5)
        layers = ((rz, Gate(GateKind.RZ, (1,), angle=0.5)), (Gate(GateKind.H, (2,)),), (rz,))
        doc = json.loads(circuit_to_json(Circuit(n=3, layers=layers + layers)))
        assert doc["gates"] == [{"kind": "rz", "qubits": [0], "angle": 0.5},
                                {"like": 0, "qubits": [1]}, {"kind": "h", "qubits": [2]}]
        assert doc["layers"] == [[0, 1], [2], [0], 0, 1, 2]
        back = circuit_from_json(json.dumps(doc))
        g = back.layers[0][1]
        assert (g.kind, g.qubits, g.angle) == (GateKind.RZ, (1,), 0.5)
        assert back.layers[3] is back.layers[0]

    def test_like_entry_shares_its_body(self, rng):
        u = random_unitary(4, rng)
        circ = Circuit(n=4, layers=((Gate(GateKind.UIJ, (0, 1), matrix=u, tau=0.5),
                                     Gate(GateKind.UIJ, (2, 3), matrix=u, tau=0.5)),))
        back = circuit_from_json(circuit_to_json(circ))
        a, b = back.layers[0]
        assert (b.kind, b.qubits, b.tau) == (GateKind.UIJ, (2, 3), 0.5)
        assert b.matrix is a.matrix and not b.matrix.flags.writeable

    H0, H1 = {"kind": "h", "qubits": [0]}, {"kind": "h", "qubits": [1]}

    @pytest.mark.parametrize("entry, match", [
        ({"like": 1, "qubits": [1]}, "not an earlier one"),
        ({"like": 2, "qubits": [1]}, "not an earlier one"),
        ({"like": -1, "qubits": [1]}, "not an earlier one"),
        ({"like": True, "qubits": [1]}, "expected an integer"),
        ({"like": 0.0, "qubits": [1]}, "cannot be interpreted as an integer"),
        ({"like": 0, "kind": "h", "qubits": [1]}, "carries only qubits"),
        ({"like": 0, "qubits": [1], "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [1.0, 0.0]]]}, "carries only qubits"),
        ({"like": 0}, "carries only qubits"),
        ({"like": 0, "qubits": [1, 2]}, "takes 1 qubits"),
        ({"like": 0, "qubits": [-1]}, "negative qubit index"),
        ({"like": 0, "qubits": [True]}, "expected an integer"),
    ], ids=["itself", "forward", "negative", "bool", "float", "beside-kind", "beside-matrix",
            "no-qubits", "arity", "negative-qubit", "bool-qubit"])
    def test_bad_like_entry_rejected(self, entry, match):
        text = json.dumps({"n": 3, "gates": [self.H0, entry], "layers": [[0], [1]]})
        with pytest.raises(ValueError, match=match):
            circuit_from_json(text)

    def test_repeated_qubit_in_like_entry_rejected(self):
        cx = {"kind": "cx", "qubits": [0, 1]}
        text = json.dumps({"n": 3, "gates": [cx, {"like": 0, "qubits": [2, 2]}],
                           "layers": [[0], [1]]})
        with pytest.raises(ValueError, match="repeated qubit in cx gate"):
            circuit_from_json(text)

    @pytest.mark.parametrize("rows, match", [
        ([[0], 1], "layer 1 repeats layer 1, which is not an earlier one"),
        ([[0], 2, [1]], "layer 1 repeats layer 2, which is not an earlier one"),
        ([[0], -1], "layer 1 repeats layer -1, which is not an earlier one"),
        ([[0], True], "must be lists of gate indices or earlier layer positions"),
        ([[0], 0.0], "must be lists of gate indices or earlier layer positions"),
    ], ids=["itself", "forward", "negative", "bool", "float"])
    def test_bad_layer_reference_rejected(self, rows, match):
        text = json.dumps({"n": 2, "gates": [self.H0, self.H1], "layers": rows})
        with pytest.raises(ValueError, match=match):
            circuit_from_json(text)


class TestStageGates:
    def test_stack_check_fails_like_a_gate(self, rng):
        good = random_unitary(4, rng)
        for bad in (1.001 * good, np.full((4, 4), np.nan, dtype=complex)):
            with pytest.raises(ValueError) as single:
                Gate(GateKind.UIJ, (0, 1), matrix=bad, tau=0.5)
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

    UIJ_DEFINITION = "// uij(tau) a, b is the target-defined interaction exp(-i tau H_ab):"

    def test_uij_call_and_header_comment(self):
        gate = Gate(GateKind.UIJ, (0, 1), matrix=CX, tau=0.25)
        circ = Circuit(n=2, layers=((gate,),))
        digest = "0123456789abcdef" * 4
        lines = circuit_to_qasm3(circ, model_sha256=digest).splitlines()
        assert lines[2:6] == [self.UIJ_DEFINITION, f"// model sha256={digest}", "",
                              "qubit[2] q;"]
        assert "uij(0.25) q[0], q[1];" in lines

    def test_uij_without_model_skips_coupling_rows(self):
        gate = Gate(GateKind.UIJ, (0, 1), matrix=CX, tau=0.25)
        lines = circuit_to_qasm3(Circuit(n=2, layers=((gate,),))).splitlines()
        assert lines[2:5] == [self.UIJ_DEFINITION, "", "qubit[2] q;"]

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

    @pytest.mark.parametrize("mode", ["decomposed", "scaled"])
    def test_shared_layers_emit_like_fresh_ones(self, xyz_square44, mode):
        model, col, f, m, t = xyz_square44
        shared = build_trotter_circuit(model, col, f, m, t, mode=mode)
        assert len({id(layer) for layer in shared.layers}) < shared.depth
        fresh = Circuit(n=shared.n, layers=tuple(tuple(list(layer)) for layer in shared.layers))
        text = circuit_to_qasm3(shared, "0" * 64)
        assert text == circuit_to_qasm3(fresh, "0" * 64)
        assert ("gphase(" in text) == (mode == "decomposed")

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
