"""Cartan decomposition, CNOT templates, and Trotter circuit assembly."""
from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottersmith import (
    CouplingTensor,
    StepPlan,
    SpinModel,
    Gate,
    GateKind,
    TimeProfile,
    audit,
    build_lattice,
    build_trotter_circuit,
    circuit_unitary,
    color_model,
    counts,
    first_order,
    formula_for_order,
    from_edges,
    kak_decompose,
    report_for_plan,
    second_order,
    synth,
    synth_edge,
)
from trottersmith.circuits import Circuit, circuit_to_json
from trottersmith.model import (CONSTANT_PROFILE, ISOTROPY_TOL, coupled_rows,
                                edge_hamiltonians, isotropic_rows, model_from_json,
                                model_to_json)
from trottersmith.oracle import formula_unitary, run_circuit
from trottersmith.synth import _cartan_fragment, _core_3cnot, canonical_core_unitary, \
    cartan_unitary, template_cnots
from trottersmith.trotter import expand

from conftest import (
    CX01,
    class_edge_cnots,
    SX,
    SY,
    SZ,
    dist_up_to_phase,
    edge_tau_slots,
    fragment_unitary,
    kak_inputs,
    op_norm,
    random_unitary,
    ref_edge_hamiltonian,
    ref_expm,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def circ2_unitary(circ) -> np.ndarray:
    assert circ.n == 2
    return fragment_unitary(circ.layers)


def frag_cx_count(frag) -> int:
    return sum(1 for layer in frag for g in layer if g.kind is GateKind.CX)


_NO_FIELD = (0.0, 0.0, 0.0)
# one edge row (coupling, h_i, h_j), as synth_edge takes it
EXCHANGE = (np.eye(3), _NO_FIELD, _NO_FIELD)


def exchange_target(alpha: float) -> np.ndarray:
    ss = (np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ)) / 4.0
    return ref_expm(ss, -1j * alpha)


class TestKakDecompose:
    def test_identity(self):
        c = kak_decompose(np.eye(4))
        assert max(abs(x) for x in c.angles) < 1e-9
        assert op_norm(cartan_unitary(c) - np.eye(4)) < 1e-9

    def test_cnot_class(self):
        c = kak_decompose(CX01)
        assert np.allclose(c.angles, (math.pi, 0.0, 0.0), atol=1e-9)
        assert op_norm(cartan_unitary(c) - CX01) < 1e-9

    def test_isotropic_exchange_angles(self):
        c = kak_decompose(exchange_target(0.7))
        assert np.allclose(c.angles, (0.7, 0.7, 0.7), atol=1e-9)

    def test_half_pi_exchange_angles(self):
        c = kak_decompose(exchange_target(math.pi / 2))
        assert np.allclose(c.angles, (math.pi / 2,) * 3, atol=1e-9)

    def test_random_reconstruction_and_cell(self, rng):
        for _ in range(50):
            u = random_unitary(4, rng)
            c = kak_decompose(u)
            assert np.max(np.abs(cartan_unitary(c) - u)) < 1e-9
            a, b, g = c.angles
            assert a <= math.pi + 1e-9
            assert a >= b - 1e-9
            assert b >= abs(g) - 1e-9

    @pytest.mark.parametrize("face", ["alpha-pi", "alpha-beta", "beta-minus-gamma"])
    def test_faces_of_the_cell(self, face, rng):
        # points on a face of the cell, gamma < 0 where the face allows it,
        # wrapped in random locals; alpha = pi must come back with gamma >= 0
        for _ in range(100):
            a, b, g = np.sort(rng.uniform(0.0, math.pi, 3))[::-1] * [1.0, 1.0, -1.0]
            if face == "alpha-pi":
                a = math.pi
            elif face == "alpha-beta":
                b = a
            else:
                g = -b
            locals_ = [np.kron(random_unitary(2, rng), random_unitary(2, rng)) for _ in "lr"]
            u = locals_[0] @ canonical_core_unitary(a, b, g) @ locals_[1]
            c = kak_decompose(u)
            assert np.max(np.abs(cartan_unitary(c) - u)) < 1e-9
            ca, cb, cg = c.angles
            assert math.pi + 1e-9 >= ca >= cb - 1e-9 and cb >= abs(cg) - 1e-9
            if ca > math.pi - 1e-9:
                assert cg >= -1e-9

    def test_alpha_pi_face_with_negative_gamma(self):
        c = kak_decompose(canonical_core_unitary(math.pi, 0.4, -0.2))
        assert np.allclose(c.angles, (math.pi, 0.4, 0.2), atol=1e-9)

    def test_deterministic(self, rng):
        u = random_unitary(4, rng)
        c1 = kak_decompose(u)
        c2 = kak_decompose(u)
        assert c1.angles == c2.angles
        for name in ("u1", "u2", "v1", "v2"):
            assert np.array_equal(getattr(c1, name), getattr(c2, name))

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="deviates from unitary by"):
            kak_decompose(1.5 * np.eye(4))
        with pytest.raises(ValueError, match="4x4"):
            kak_decompose(np.eye(2))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="deviates from unitary by nan"):
            kak_decompose(np.full((4, 4), np.nan))


class TestCartanFragment:
    def test_random_exact_with_six_cnots(self, rng):
        for _ in range(20):
            u = random_unitary(4, rng)
            frag = _cartan_fragment(kak_decompose(u), True)
            assert frag_cx_count(frag) == 6
            # the template's one-qubit runs are fused: no two adjacent one-qubit layers
            assert len(frag) == 13
            assert op_norm(fragment_unitary(frag) - u) < 1e-9

    def test_product_input_needs_no_cnots(self, rng):
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        c = kak_decompose(u)
        assert max(abs(x) for x in c.angles) < 1e-12
        frag = _cartan_fragment(c, False)
        assert frag_cx_count(frag) == 0
        assert len(frag) == 1
        assert op_norm(fragment_unitary(frag) - u) < 1e-9


class TestSynthGeneral:
    def test_xy_coupling(self):
        jmat = np.diag([1.0, 1.0, 0.0])
        target = ref_expm(ref_edge_hamiltonian(0, 1, 2, jmat), -1j * 0.8)
        assert abs(kak_decompose(target).gamma) < 1e-9
        circ = synth_edge(jmat, _NO_FIELD, _NO_FIELD, 0.8)
        assert counts(circ)["cx"] == 6
        assert op_norm(circ2_unitary(circ) - target) < 1e-9

    def test_field_only_term_is_local(self):
        row = (np.zeros((3, 3)), [0.0, 0.0, 0.9], [0.2, 0.0, 0.0])
        target = ref_expm(ref_edge_hamiltonian(0, 1, 2, *row), -1j * 0.5)
        circ = synth_edge(*row, 0.5)
        assert counts(circ)["cx"] == 0
        assert op_norm(circ2_unitary(circ) - target) < 1e-9

    def test_field_bearing_heisenberg_term(self, rng):
        row = (np.eye(3), [0.3, 0.0, 0.5], [0.0, 0.0, 0.0])
        target = ref_expm(ref_edge_hamiltonian(0, 1, 2, *row), -1j * 1.1)
        circ = synth_edge(*row, 1.1)
        assert counts(circ)["cx"] == 6
        assert op_norm(circ2_unitary(circ) - target) < 1e-9

    def test_nonfinite_tau(self):
        with pytest.raises(ValueError, match="finite"):
            synth_edge(*EXCHANGE, float("nan"))


class TestSynthExchange:
    def test_zero_angle_elided(self):
        circ = synth_edge(*EXCHANGE, 0.0)
        assert circ.layers == ()
        assert circ.gate_count() == 0
        assert np.allclose(circ2_unitary(circ), np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("alpha", [-2.5, -0.9, 0.3, 1.0, math.pi / 2, 2.2, math.pi])
    def test_exact_with_three_cnots(self, alpha):
        circ = synth_edge(*EXCHANGE, alpha)
        assert counts(circ)["cx"] == 3
        assert op_norm(circ2_unitary(circ) - exchange_target(alpha)) < 1e-9

    def test_pi_gives_swap(self):
        got = circ2_unitary(synth_edge(*EXCHANGE, math.pi))
        assert dist_up_to_phase(got, SWAP) < 1e-9
        # phase convention: exp(-i pi S.S) = e^{-i pi/4} SWAP
        assert op_norm(got - np.exp(-0.25j * math.pi) * SWAP) < 1e-9

    def test_nonfinite_alpha(self):
        with pytest.raises(ValueError, match="finite"):
            synth_edge(*EXCHANGE, float("inf"))


# the four kinds of term the builder tells apart: field-free isotropic (3-CNOT
# core), general (KAK), field only and all zero (both local), as edge rows
_EDGE_ROWS = {
    "isotropic": (CouplingTensor.heisenberg(-0.8).matrix, _NO_FIELD, _NO_FIELD),
    "xyz-field": (np.diag([1.0, 0.7, 0.4]), [0.3, 0.0, 0.5], [0.0, -0.2, 0.1]),
    "field-only": (np.zeros((3, 3)), [0.0, 0.0, 0.9], _NO_FIELD),
    "zero": (np.zeros((3, 3)), _NO_FIELD, _NO_FIELD),
}


class TestSynthEdge:
    @pytest.mark.parametrize("sites", [(0, 1), (2, 5)])
    @pytest.mark.parametrize("tau", [0.7, -0.7, 0.0])
    @pytest.mark.parametrize("name", list(_EDGE_ROWS))
    def test_gates_are_the_one_edge_build(self, name, tau, sites):
        jmat, h_i, h_j = _EDGE_ROWS[name]
        model = SpinModel(n=sites[1] + 1, pairs=[sites], coupling=[jmat], h_i=[h_i], h_j=[h_j])
        built = build_trotter_circuit(model, color_model(model), first_order(1), 1, tau)
        circ = synth_edge(jmat, h_i, h_j, tau)
        assert circ.n == 2
        moved = synth._retarget(circ.layers, {0: sites[0], 1: sites[1]})
        assert [[gate_record(g) for g in layer] for layer in moved] == \
            [[gate_record(g) for g in layer] for layer in built.layers]
        # at tau = 0 every template gives an identity, which needs no CNOT
        assert counts(circ)["cx"] == (template_cnots(model)[0] if tau else 0)

    def test_heisenberg_term_costs_its_template(self):
        model = SpinModel(2, [(0, 1)], *([x] for x in EXCHANGE))
        assert counts(synth_edge(*EXCHANGE, 0.7))["cx"] == template_cnots(model)[0] == 3


class TestCore3Cnot:
    def test_random_angles_exact_with_phase(self, rng):
        for alpha, beta, gamma in rng.uniform(-4 * math.pi, 4 * math.pi, (200, 3)):
            target = canonical_core_unitary(alpha, beta, gamma)
            # the core is symmetric under exchanging the qubits, so both
            # orientations realise the same matrix
            for a, b in ((0, 1), (1, 0)):
                frag = synth._retarget(_core_3cnot(alpha, beta, gamma), {0: a, 1: b})
                assert frag_cx_count(frag) == 3
                assert len(frag) == 6
                assert op_norm(fragment_unitary(frag) - target) < 1e-12

    def test_core_is_dropped_by_the_coupling_rule_not_the_angles(self):
        # zero angles still build the exact 3-CNOT identity; only a template
        # without a core (uncoupled edge, or tau = 0) is empty
        for angles in ((0.0, 0.0, 0.0), (0.0, 0.0, 1e-3), (1e-13,) * 3):
            frag = _core_3cnot(*angles)
            assert frag_cx_count(frag) == 3
            assert op_norm(fragment_unitary(frag) - canonical_core_unitary(*angles)) < 1e-12
        assert synth._template({}, True, False, 1e-13, np.eye(4)) == []

    def test_import_runs_no_decomposition(self):
        # the core circuit is closed-form: nothing is decomposed at import
        probe = (
            "import sys\n"
            "calls = []\n"
            "sys.setprofile(lambda f, e, a: calls.append(1) if e == 'call'"
            " and f.f_code.co_name == 'kak_decompose' else None)\n"
            "import trottersmith.synth\n"
            "sys.setprofile(None)\n"
            "print(len(calls))\n"
        )
        src = os.path.dirname(os.path.dirname(synth.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "0"


class TestBuildTrotterCircuit:
    def test_chain4_scaled_single_step(self, heis_chain4):
        col = color_model(heis_chain4)
        circ = build_trotter_circuit(heis_chain4, col, first_order(2), 1, 1.0, mode="scaled")
        assert circ.depth == 2
        assert circ.gate_count() == 3
        assert all(g.kind is GateKind.UIJ for g in circ.all_gates())
        assert len(circ.layers[0]) == 2
        assert len(circ.layers[1]) == 1
        for g in circ.all_gates():
            assert g.tau == pytest.approx(1.0)

    def test_square_scaled_counts(self):
        model = build_lattice("square", (4, 4), "periodic")
        col = color_model(model)
        assert col.num_classes == 4
        circ = build_trotter_circuit(model, col, first_order(4), 2, 1.0, mode="scaled")
        assert circ.depth == 4 * 2
        assert counts(circ)["interaction"] == 32 * 2

    def test_heisenberg_mode_cnots(self, heis_chain4):
        col = color_model(heis_chain4)
        circ = build_trotter_circuit(
            heis_chain4, col, first_order(2), 1, 1.0, mode="decomposed"
        )
        tally = counts(circ)
        assert tally["cx"] == 3 * 3
        assert tally["interaction"] == 0

    def test_mode_and_class_count_validation(self, heis_chain4):
        col = color_model(heis_chain4)
        for mode in ("fast", "heisenberg"):
            with pytest.raises(ValueError, match="mode must be one of"):
                build_trotter_circuit(heis_chain4, col, first_order(2), 1, 1.0, mode=mode)
        with pytest.raises(ValueError, match="formula has K=3"):
            build_trotter_circuit(heis_chain4, col, first_order(3), 1, 1.0)

    def test_template_dispatch_by_field_share(self):
        # only site 0 carries a field, so only edge (0, 1) needs 6 CNOTs
        j = CouplingTensor.heisenberg()
        fields = np.zeros((4, 3))
        fields[0] = [0.0, 0.0, 0.7]
        model = from_edges(4, [(0, 1, j), (1, 2, j), (2, 3, j)], site_fields=fields)
        col = color_model(model)
        circ = build_trotter_circuit(model, col, first_order(col.num_classes), 1, 1.0)
        assert counts(circ)["cx"] == 6 + 3 + 3

    @pytest.mark.parametrize("mode", ["scaled", "decomposed"])
    def test_matches_formula_unitary(self, mode, heis_chain4):
        col = color_model(heis_chain4)
        f = formula_for_order(2, col.num_classes)
        circ = build_trotter_circuit(heis_chain4, col, f, 3, 0.9, mode=mode)
        ref = formula_unitary(heis_chain4, col, f, 3, 0.9)
        assert op_norm(circuit_unitary(circ) - ref) < 1e-9

    def test_piecewise_profile_drives_taus(self):
        profile = TimeProfile("piecewise", (0.5, 1.0))
        model = build_lattice("chain", 3, profile=profile)
        col = color_model(model)
        circ = build_trotter_circuit(model, col, second_order(2), 2, 1.0, mode="scaled")
        # no cross-step merging under a varying profile: 3 stages per step
        assert circ.depth == 6
        taus = [g.tau for g in circ.all_gates()]
        assert taus == pytest.approx([0.125, 0.25, 0.125, 0.25, 0.5, 0.25])
        g0 = circ.layers[0][0]
        assert g0.qubits == (0, 1)
        href = ref_edge_hamiltonian(0, 1, 2, np.eye(3))
        # stored matrix is the evaluated exponential of the edge term
        assert op_norm(np.asarray(g0.matrix) - ref_expm(href, -1j * g0.tau)) < 1e-12

    def test_each_distinct_input_decomposed_once(self, xyz_square44, monkeypatch):
        real = synth.kak_decompose
        calls = []

        def counting(u):
            calls.append(u.tobytes())
            return real(u)

        monkeypatch.setattr(synth, "kak_decompose", counting)
        build_trotter_circuit(*xyz_square44)
        inputs = kak_inputs(*xyz_square44)
        pairs, _ = edge_tau_slots(*xyz_square44)
        assert sorted(calls) == sorted(inputs)
        assert 0 < len(calls) < len(pairs)

    def test_repeated_profile_factor_matches_formula_unitary(self):
        # steps 0 and 2 share every tau, so the last step reuses the first's gates
        profile = TimeProfile("piecewise", (0.5, 2.0, 0.5))
        model = build_lattice("chain", 5, coupling=CouplingTensor.diagonal(1.0, 0.6, -0.3),
                              field=(0.4, 0.0, 0.7), profile=profile)
        col = color_model(model)
        f = formula_for_order(2, col.num_classes)
        circ = build_trotter_circuit(model, col, f, 3, 0.8)
        played = run_circuit(np.eye(2**model.n, dtype=complex), circ)
        assert op_norm(played - formula_unitary(model, col, f, 3, 0.8)) < 1e-10

    def test_scaled_build_holds_one_gate_per_edge_signed_tau(self, xyz_square44):
        model, col, f, m, t = xyz_square44
        circ = build_trotter_circuit(model, col, f, m, t, mode="scaled")
        gates = {id(g): g for layer in circ.layers for g in layer}
        pairs, slots = edge_tau_slots(model, col, f, m, t)
        assert len(gates) == len(pairs) < slots
        keys = {(model.pairs.tolist().index(list(g.qubits)), g.tau, math.copysign(1.0, g.tau))
                for g in gates.values()}
        assert keys == pairs

    def test_scaled_profile_playback_matches_formula_unitary(self):
        profile = TimeProfile("piecewise", (0.5, 2.0, 0.5))
        model = build_lattice("chain", 5, coupling=CouplingTensor.diagonal(1.0, 0.6, -0.3),
                              field=(0.4, 0.0, 0.7), profile=profile)
        col = color_model(model)
        f = formula_for_order(2, col.num_classes)
        circ = build_trotter_circuit(model, col, f, 3, 0.8, mode="scaled")
        played = run_circuit(np.eye(2**model.n, dtype=complex), circ)
        assert op_norm(played - formula_unitary(model, col, f, 3, 0.8)) < 1e-12

    @pytest.mark.parametrize("spoil,message", [
        (lambda us: 1.001 * us, "uij matrix deviates from unitary by 2.00e-03"),
        (lambda us: np.where(np.arange(len(us))[:, None, None] == len(us) - 1, np.nan, us),
         "uij matrix deviates from unitary by nan"),
    ])
    def test_scaled_build_rejects_a_non_unitary_stage(self, xyz_square44, monkeypatch,
                                                      spoil, message):
        # the stage is checked as one stack; the last edge alone spoils the NaN case
        real = synth._expm_herm
        monkeypatch.setattr(synth, "_expm_herm", lambda h, factor: spoil(real(h, factor)))
        model, col, f, m, t = xyz_square44
        with pytest.raises(ValueError) as info:
            build_trotter_circuit(model, col, f, m, t, mode="scaled")
        assert str(info.value) == message

    def test_scaled_gates_equal_fully_checked_gates(self, xyz_square44):
        model, col, f, m, t = xyz_square44
        circ = build_trotter_circuit(model, col, f, m, t, mode="scaled")
        for g in circ.all_gates():
            full = Gate(g.kind, g.qubits, matrix=g.matrix, tau=g.tau)
            assert (full.kind, full.qubits, full.angle, full.tau) == \
                (g.kind, g.qubits, g.angle, g.tau)
            assert full.matrix.tobytes() == g.matrix.tobytes()
            assert type(g.qubits[0]) is int and type(g.tau) is float
            with pytest.raises(ValueError):
                g.matrix[0, 0] = 0.0


def cartan_fragment(u: np.ndarray, core: bool) -> list[list[Gate]]:
    """The builder's KAK template of u, or one layer of its locals without ``core``."""
    return synth._cartan_fragment(kak_decompose(u), core)


def unfused_cartan_fragment(u: np.ndarray, core: bool) -> list[list[Gate]]:
    """The 6-CNOT template with its one-qubit runs written out, 15 layers on
    qubits (0, 1): locals u, Hadamards, the XX, YY and ZZ cores, locals v."""
    c = kak_decompose(u)
    if not core:
        return synth._cartan_fragment(c, False)
    a, b = 0, 1
    half = math.pi / 2.0

    def pair(kind, **kw):
        return [Gate(kind, (a,), **kw), Gate(kind, (b,), **kw)]

    def core(theta):
        return [[Gate(GateKind.CX, (a, b))], [Gate(GateKind.RZ, (b,), angle=theta / 2.0)],
                [Gate(GateKind.CX, (a, b))]]

    return [[Gate(GateKind.U1Q, (a,), matrix=c.u1), Gate(GateKind.U1Q, (b,), matrix=c.u2)],
            pair(GateKind.H), *core(c.alpha), pair(GateKind.RX, angle=-half), *core(c.beta),
            pair(GateKind.RX, angle=half), pair(GateKind.H), *core(c.gamma),
            [Gate(GateKind.U1Q, (a,), matrix=c.v1), Gate(GateKind.U1Q, (b,), matrix=c.v2)]]


def per_edge_stages(model, coloring, formula, m, t, general=cartan_fragment):
    """Each stage's layers with no sharing: every (edge, tau) slot gets its
    own ``general(u, core)`` or _core_3cnot fragment, moved from qubits (0, 1) to
    the edge's own; each gets its core where it is coupled and tau != 0."""
    hterms = edge_hamiltonians(model.coupling, model.h_i, model.h_j)
    plain = synth._plain_exchange(model.coupling, model.h_i, model.h_j)
    coupled = coupled_rows(model.coupling)
    for stage in expand(formula, m, t, model.profile):
        cls = coloring.classes[stage.k - 1]
        us = synth._expm_herm(hterms[list(cls)], -1j * stage.tau)
        frags = []
        for ei, u in zip(cls, us):
            core = bool(coupled[ei]) and stage.tau != 0.0
            if plain[ei]:
                alpha = stage.tau * float(model.coupling[ei, 0, 0])
                frag = _core_3cnot(alpha, alpha, alpha) if core else []
            else:
                frag = general(u, core)
            i, j = model.pairs[ei].tolist()
            frags.append(synth._retarget(frag, {0: i, 1: j}))
        yield [tuple(g for f in frags if p < len(f) for g in f[p])
               for p in range(max(len(f) for f in frags))]


def one_qubit_only(layer) -> bool:
    return all(len(g.qubits) == 1 for g in layer)


def per_edge_reference(model, coloring, formula, m, t) -> Circuit:
    """The decomposed build with no sharing and no memo: stages from
    :func:`per_edge_stages`, and where the last layer so far and a stage's
    first both hold only one-qubit gates, one layer of them, each shared
    qubit getting a fully checked u1q of one plain matmul, in slot order."""
    layers = []
    for run in per_edge_stages(model, coloring, formula, m, t):
        if layers and run and one_qubit_only(layers[-1] + run[0]):
            later = {g.qubits[0]: g for g in run[0]}
            joined = []
            for g in layers[-1]:
                h = later.pop(g.qubits[0], None)
                joined.append(g if h is None else
                              Gate(GateKind.U1Q, g.qubits, matrix=h.unitary() @ g.unitary()))
            layers[-1] = tuple(joined) + tuple(later.values())
            run = run[1:]
        layers += run
    return Circuit(n=model.n, layers=tuple(layers))


def unfused_reference(model, coloring, formula, m, t) -> Circuit:
    """The per-edge build on the 15-layer template, with no fusion at all."""
    stages = per_edge_stages(model, coloring, formula, m, t, unfused_cartan_fragment)
    return Circuit(n=model.n, layers=tuple(layer for run in stages for layer in run))


def gate_record(g: Gate) -> tuple:
    """Every field of a gate; repr keeps -0.0 apart and the matrix is compared bitwise."""
    matrix = None if g.matrix is None else g.matrix.tobytes()
    return (g.kind, g.qubits, tuple(map(type, g.qubits)), repr(g.angle), repr(g.tau), matrix)


# two field-free isotropic couplings (3-CNOT core) and two general ones (KAK);
# edges draw from this pool, so most models repeat some terms
_COUPLINGS = (
    CouplingTensor.heisenberg(1.0),
    CouplingTensor.heisenberg(-0.5),
    CouplingTensor.diagonal(1.0, 0.7, 0.4),
    CouplingTensor(np.array([[0.2, 0.5, 0.0], [0.5, -0.3, 0.1], [0.0, 0.1, 0.9]])),
)
_FIELDS = ((0.0, 0.0, 0.0), (0.3, 0.0, 0.5), (0.0, 0.0, -0.2))


@st.composite
def small_models(draw, zero_factor=False):
    """(model, m): a random 3-6-site chain or ring drawing from the pools
    above, m <= 2, and a constant or piecewise profile, the latter with a
    zero factor when ``zero_factor``."""
    n = draw(st.integers(3, 6))
    pairs = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if draw(st.booleans()) else [])
    couplings = [(i, j, draw(st.sampled_from(_COUPLINGS))) for i, j in pairs]
    fields = [_FIELDS[draw(st.sampled_from([0, 0, 1, 2]))] for _ in range(n)]
    m = draw(st.integers(1, 2))
    profile = CONSTANT_PROFILE
    if draw(st.booleans()):
        factors = draw(st.lists(st.sampled_from([0.5, 1.0, 0.0, -1.0]), min_size=m, max_size=m))
        if zero_factor:
            factors[draw(st.integers(0, m - 1))] = 0.0
        profile = TimeProfile("piecewise", tuple(factors))
    return from_edges(n, couplings, site_fields=fields, profile=profile), m


@st.composite
def shared_term_builds(draw):
    model, m = draw(small_models())
    col = color_model(model)
    order = draw(st.sampled_from([1, 2, 4]))
    t = draw(st.one_of(st.sampled_from([0.0, -0.0, -0.8]),
                       st.floats(-2.0, 2.0, allow_nan=False)))
    return model, col, formula_for_order(order, col.num_classes), m, t


def assert_shared_build_equals_reference(model, col, f, m, t) -> None:
    shared = build_trotter_circuit(model, col, f, m, t)
    ref = per_edge_reference(model, col, f, m, t)
    assert [[gate_record(g) for g in layer] for layer in shared.layers] == \
        [[gate_record(g) for g in layer] for layer in ref.layers]
    assert circuit_to_json(shared) == circuit_to_json(ref)


class TestSharedFragments:
    @given(shared_term_builds())
    @settings(max_examples=25, deadline=None)
    def test_shared_build_equals_per_edge_reference(self, build):
        assert_shared_build_equals_reference(*build)

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("t", [0.0, -0.7, 0.9])
    def test_mixed_ring_at_every_order(self, order, t):
        # repeated plain and general terms, and a field share on sites 0 and 3
        c = _COUPLINGS
        model = from_edges(5, [(0, 1, c[0]), (1, 2, c[2]), (2, 3, c[0]), (3, 4, c[2]),
                               (0, 4, c[1])],
                           site_fields=[_FIELDS[1], _FIELDS[0], _FIELDS[0], _FIELDS[2],
                                        _FIELDS[0]])
        col = color_model(model)
        assert_shared_build_equals_reference(model, col, formula_for_order(order, col.num_classes),
                                             3, t)

    def test_equal_unitaries_of_different_templates_are_kept_apart(self, monkeypatch):
        # make every t = 0 exponential exactly the identity, so a plain edge
        # and a general edge hand over equal bytes: the plain edge still gives
        # no gates and the general one a u1q layer
        real = synth._expm_herm
        monkeypatch.setattr(synth, "_expm_herm", lambda h, factor=-1j: (
            np.broadcast_to(np.eye(4, dtype=complex), h.shape).copy() if factor == 0
            else real(h, factor)))
        model = from_edges(3, [(0, 1, _COUPLINGS[0]), (1, 2, _COUPLINGS[2])])
        col = color_model(model)
        circ = build_trotter_circuit(model, col, first_order(col.num_classes), 1, 0.0)
        assert [[(g.kind, g.qubits) for g in layer] for layer in circ.layers] == \
            [[(GateKind.U1Q, (1,)), (GateKind.U1Q, (2,))]]


@st.composite
def fusion_builds(draw):
    """(model, coloring, m, t) with t of 0, -0, negative or positive."""
    model, m = draw(small_models(zero_factor=True))
    t = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, -0.05), st.floats(0.05, 2.0)))
    return model, color_model(model), m, t


class TestOneQubitFusion:
    @given(fusion_builds())
    @settings(max_examples=20, deadline=None)
    def test_fusion_keeps_the_unitary(self, build):
        model, col, m, t = build
        for order in (1, 2, 4):
            f = formula_for_order(order, col.num_classes)
            circ = build_trotter_circuit(model, col, f, m, t)
            ref = unfused_reference(model, col, f, m, t)
            assert np.max(np.abs(circuit_unitary(circ) - circuit_unitary(ref))) < 1e-12
            assert counts(circ)["cx"] == counts(ref)["cx"]
            plan = StepPlan(m=m, order=order, bound_used="user", num_classes=col.num_classes,
                            t=t)
            report = report_for_plan(plan, model.n, edge_cnots=class_edge_cnots(model, col),
                                     profile=model.profile)
            assert audit(report, circ) == audit(report, ref) == []
            assert not any(one_qubit_only(a) and one_qubit_only(b)
                           for a, b in zip(circ.layers, circ.layers[1:]))

    def test_torus_depth_is_12_layers_per_stage_plus_one(self):
        # the benchmark's 8x8 XYZ+field torus: 121 stages of 13 layers, each
        # stage's opening locals fused into the previous stage's closing ones
        model = build_lattice("square", (8, 8), "periodic",
                              coupling=CouplingTensor.diagonal(1.0, 0.7, 0.4),
                              field=(0.3, 0.0, 0.5))
        col = color_model(model)
        circ = build_trotter_circuit(model, col, formula_for_order(2, col.num_classes), 20, 1.0)
        tally = counts(circ)
        assert tally["depth"] == 12 * 121 + 1 == 1453
        assert tally["cx"] == 23232


@st.composite
def coupling_rows(draw):
    """A 3x3 coupling: exactly isotropic, isotropic with one entry off by
    +-0.5 or +-2 times ISOTROPY_TOL, all zero, or general."""
    kind = draw(st.sampled_from(["isotropic", "perturbed", "zero", "general"]))
    if kind == "zero":
        return np.zeros((3, 3))
    if kind == "general":
        entries = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.75, 1.5])
        return np.reshape(draw(st.lists(entries, min_size=9, max_size=9)), (3, 3))
    jmat = draw(st.floats(0.25, 2.0)) * draw(st.sampled_from([-1.0, 1.0])) * np.eye(3)
    if kind == "perturbed":
        a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        jmat[a, b] += draw(st.sampled_from([-2.0, -0.5, 0.5, 2.0])) * ISOTROPY_TOL
    return jmat


def field_rows():
    """A field share: zero, or a random vector."""
    return st.just(_NO_FIELD) | st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@st.composite
def edge_rows(draw):
    """One edge row: a general coupling, or one with every entry within 1e-13
    of zero or of j * identity; each field share zero or random."""
    kind = draw(st.sampled_from(["general", "near-zero", "near-isotropic"]))
    if kind == "general":
        jmat = np.reshape(draw(st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9)), (3, 3))
    else:
        j = 0.0 if kind == "near-zero" else draw(st.floats(-2.0, 2.0))
        off = draw(st.lists(st.floats(-1e-13, 1e-13), min_size=9, max_size=9))
        jmat = j * np.eye(3) + np.reshape(off, (3, 3))
    return jmat, draw(field_rows()), draw(field_rows())


class TestSynthEdgeRows:
    @settings(max_examples=100, deadline=None)
    @given(row=edge_rows(), tau=st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0]))
    @example(row=(np.zeros((3, 3)), _NO_FIELD, _NO_FIELD), tau=-0.0)
    @example(row=(np.eye(3), _NO_FIELD, _NO_FIELD), tau=0.0)
    @example(row=(1e-13 * np.eye(3), (0.3, 0.0, 0.5), _NO_FIELD), tau=0.3)
    @example(row=(np.eye(3) + np.diag([0.0, 1e-13, -1e-13]), _NO_FIELD, _NO_FIELD), tau=-2.0)
    def test_unitary_and_cnots_of_any_row(self, row, tau):
        # the gate property of the 0/3/6 rule: exact, and as many CNOTs as
        # template_cnots counts for the one-edge model (none at tau = 0)
        circ = synth_edge(*row, tau)
        target = ref_expm(ref_edge_hamiltonian(0, 1, 2, *row), -1j * tau)
        assert op_norm(circ2_unitary(circ) - target) < 1e-9
        model = SpinModel(2, [(0, 1)], *([x] for x in row))
        assert counts(circ)["cx"] == (template_cnots(model)[0] if tau else 0)


class TestTemplateCnots:
    def test_mixed_template_model_count_is_exact(self):
        # open 3x3 Heisenberg square with a field: 8 edges carry a field share
        model = build_lattice("square", (3, 3), coupling=CouplingTensor.heisenberg(),
                              field=(0.5, 0.0, 0.3))
        per_edge = synth.template_cnots(model)
        assert sorted(per_edge) == [3] * 4 + [6] * 8
        col = color_model(model)
        circ = build_trotter_circuit(model, col, first_order(col.num_classes), 2, 1.0)
        assert counts(circ)["cx"] == 2 * sum(per_edge) == 120

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(coupling_rows(), field_rows(), field_rows()),
                         min_size=1, max_size=6),
           tau=st.floats(0.05, 1.0) | st.floats(-1.0, -0.05) | st.just(0.0))
    @example(rows=[(np.eye(3) + np.diag([0.0, x * ISOTROPY_TOL, 0.0]), _NO_FIELD, _NO_FIELD)
                   for x in (0.0, 0.5, -0.5, 2.0, -2.0)]
             + [(np.zeros((3, 3)), _NO_FIELD, _NO_FIELD),
                (1e-13 * np.eye(3), _NO_FIELD, _NO_FIELD),
                (1e-13 * np.eye(3), (0.3, 0.0, 0.5), _NO_FIELD),
                (1e-11 * np.eye(3), _NO_FIELD, _NO_FIELD)], tau=0.3)
    def test_stacked_choice_is_the_one_edge_rule(self, rows, tau):
        jmats, his, hjs = zip(*rows)
        model = SpinModel(len(rows) + 1, [(k, k + 1) for k in range(len(rows))], jmats, his, hjs)
        table = template_cnots(model)
        assert len(table) == len(rows)
        for k, (jmat, h_i, h_j) in enumerate(rows):
            field = np.any(h_i) or np.any(h_j)
            rule = 0 if np.abs(jmat).max() <= ISOTROPY_TOL else \
                3 if isotropic_rows(jmat) and not field else 6
            assert table[k] == rule
            if tau:
                row = (model.coupling[k], model.h_i[k], model.h_j[k])
                assert counts(synth_edge(*row, tau))["cx"] == rule

    @pytest.mark.parametrize("field", [None, [(0.3, 0.0, 0.5), (0.0, 0.0, 0.0)]],
                             ids=["bare", "field"])
    @pytest.mark.parametrize("scale, t, cnots", [(1e-13, 1.0, 0), (1e-13, 1e3, 0),
                                                 (1e-11, 1e-3, 3)])
    def test_count_and_circuit_share_the_coupling_rule(self, field, scale, t, cnots):
        # a coupling within ISOTROPY_TOL of zero counts and emits no CNOT at
        # any tau, and one above it emits its core even at angles below 1e-12
        model = from_edges(2, [(0, 1, CouplingTensor(scale * np.eye(3)))], site_fields=field)
        col = color_model(model)
        want = cnots if field is None else 2 * cnots
        assert template_cnots(model) == [want]
        row = (model.coupling[0], model.h_i[0], model.h_j[0])
        assert counts(synth_edge(*row, t))["cx"] == want
        for order in (1, 2):
            f = formula_for_order(order, col.num_classes)
            circ = build_trotter_circuit(model, col, f, 4, t)
            plan = StepPlan(m=4, order=order, bound_used="user", num_classes=col.num_classes, t=t)
            report = report_for_plan(plan, model.n, edge_cnots=class_edge_cnots(model, col))
            assert counts(circ)["cx"] == report.cnots == report.interaction_gates * want
            assert audit(report, circ) == []
            assert op_norm(circuit_unitary(circ) - formula_unitary(model, col, f, 4, t)) < 1e-9

    @pytest.mark.parametrize("mode", synth.MODES)
    def test_pipeline_builds_no_edge_views(self, mode):
        # every pipeline stage reads the stacks; only the bench's trace hook
        # reads model.edges
        mixed = build_lattice("square", (3, 3), coupling=CouplingTensor.heisenberg(),
                              field=(0.5, 0.0, 0.3))
        model = model_from_json(model_to_json(mixed))
        col = color_model(model)
        build_trotter_circuit(model, col, formula_for_order(2, col.num_classes), 2, 1.0, mode)
        template_cnots(model)
        assert "edges" not in model.__dict__


def counts(circ):
    from trottersmith import counts

    return counts(circ)
