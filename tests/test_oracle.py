"""Dense oracle: Hamiltonians, evolutions, norms, statevector playback."""
from __future__ import annotations

import numpy as np
import pytest

from trottersmith import (
    Circuit,
    CouplingTensor,
    Gate,
    GateKind,
    TimeProfile,
    build_lattice,
    color_model,
    first_order,
    formula_for_order,
    from_edges,
)
from trottersmith.oracle import (
    _apply_local,
    apply_gate,
    circuit_unitary,
    exact_evolution,
    formula_unitary,
    phase_distance,
    reference_evolution,
    run_circuit,
    spectral_norm,
    total_hamiltonian,
    trotter_error,
)

from conftest import (
    I2,
    PAULIS,
    SZ,
    dist_up_to_phase,
    kron_chain,
    op_norm,
    random_unitary,
    ref_expm,
    ref_model_hamiltonian,
)

J1 = CouplingTensor.heisenberg()


class TestTotalHamiltonian:
    def test_pure_field_spectrum(self):
        # smallest representable stand-in for a lone fielded site
        model = from_edges(2, [(0, 1, CouplingTensor(np.zeros((3, 3))))],
                           site_fields=[[0, 0, 1.0], [0, 0, 0]])
        h = total_hamiltonian(model)
        assert np.allclose(h, np.kron(SZ, I2) / 2, atol=1e-15)

    def test_two_site_heisenberg_spectrum(self):
        model = from_edges(2, [(0, 1, J1)])
        eig = np.sort(np.linalg.eigvalsh(total_hamiltonian(model)))
        assert np.allclose(eig, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_ring4_ground_energy(self):
        model = build_lattice("chain", 4, "periodic")
        h = total_hamiltonian(model)
        assert np.allclose(h, ref_model_hamiltonian(model), atol=1e-14)
        assert np.min(np.linalg.eigvalsh(h)) == pytest.approx(-2.0, abs=1e-9)

    def test_respects_oracle_limit(self, monkeypatch):
        monkeypatch.setenv("TROTTERSMITH_ORACLE_LIMIT", "3")
        model = build_lattice("chain", 4)
        with pytest.raises(ValueError, match="capped at 3"):
            total_hamiltonian(model)


class TestApplyLocal:
    def test_reversed_noncontiguous_pair_matches_kron_reference(self, rng):
        # first tensor factor on qubit 3, second on qubit 1, n=4
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        basis = (I2,) + PAULIS
        ref = np.zeros((16, 16), dtype=complex)
        for p in basis:
            for q in basis:
                coeff = np.trace(np.kron(p, q).conj().T @ a) / 4
                ref += coeff * kron_chain([I2, q, I2, p])
        assert np.allclose(_apply_local(a, (3, 1), np.eye(16, dtype=complex)), ref,
                           atol=1e-14)
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.allclose(_apply_local(a, (3, 1), state), ref @ state, atol=1e-14)


class TestEvolutions:
    def test_identity_at_t_zero(self, heis_chain4):
        assert np.allclose(exact_evolution(heis_chain4, 0.0), np.eye(16), atol=1e-12)

    def test_single_edge_model(self):
        model = from_edges(2, [(0, 1, J1)])
        got = exact_evolution(model, 0.9)
        ref = ref_expm(ref_model_hamiltonian(model), -1j * 0.9)
        assert op_norm(got - ref) < 1e-12

    def test_unitary_output(self, heis_chain4):
        u = exact_evolution(heis_chain4, 1.3)
        assert op_norm(u.conj().T @ u - np.eye(16)) < 1e-10

    def test_group_property(self, heis_chain4):
        u1 = exact_evolution(heis_chain4, 0.4)
        u2 = exact_evolution(heis_chain4, 0.8)
        u12 = exact_evolution(heis_chain4, 1.2)
        assert op_norm(u2 @ u1 - u12) < 1e-9

    def test_piecewise_profile_rejected(self):
        model = build_lattice("chain", 3, profile=TimeProfile("piecewise", (1.0, 1.0)))
        with pytest.raises(ValueError, match="constant"):
            exact_evolution(model, 1.0)


class TestReferenceEvolution:
    def test_constant_m1_equals_exact(self, heis_chain4):
        a = reference_evolution(heis_chain4, 1.0, 1)
        b = exact_evolution(heis_chain4, 1.0)
        assert op_norm(a - b) < 1e-13

    def test_all_ones_piecewise_converges_to_exact(self):
        m_ref = 10**4
        profile = TimeProfile("piecewise", (1.0,) * m_ref)
        model = build_lattice("chain", 4, profile=profile)
        const = build_lattice("chain", 4)
        got = reference_evolution(model, 1.0, m_ref)
        assert op_norm(got - exact_evolution(const, 1.0)) < 1e-8

    def test_zero_factors_give_identity(self):
        profile = TimeProfile("piecewise", (0.0, 0.0))
        model = build_lattice("chain", 3, profile=profile)
        assert np.allclose(reference_evolution(model, 2.0, 2), np.eye(8), atol=1e-12)

    def test_nonuniform_table_matches_step_product(self):
        factors = (0.5, 2.0, -1.0, 0.0, 1.3)
        model = build_lattice("chain", 4, field=[0.3, 0.0, -0.7],
                              profile=TimeProfile("piecewise", factors))
        t, m_ref = 1.1, len(factors)
        h = ref_model_hamiltonian(model)
        u = np.eye(16, dtype=complex)
        for f in factors:
            u = ref_expm(h, -1j * (t / m_ref) * f) @ u
        assert op_norm(reference_evolution(model, t, m_ref) - u) < 1e-12


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(8)) == pytest.approx(1.0, abs=1e-10)

    def test_zz_quarter(self):
        assert spectral_norm(np.kron(SZ, SZ) / 4) == pytest.approx(0.25, abs=1e-10)

    def test_class_commutator_within_paper_bound(self, heis_chain4):
        col = color_model(heis_chain4)
        h = [np.zeros((16, 16), dtype=complex) for _ in col.classes]
        ref = ref_model_hamiltonian  # noqa: F841  (kept for symmetry with other tests)
        from conftest import ref_edge_hamiltonian

        for k, cls in enumerate(col.classes):
            for ei in cls:
                e = heis_chain4.edges[ei]
                h[k] += ref_edge_hamiltonian(e.i, e.j, 4, e.coupling.matrix, e.h_i, e.h_j)
        comm = h[0] @ h[1] - h[1] @ h[0]
        val = spectral_norm(comm)
        assert 0.0 < val <= 0.75 * 4 * 1.0**2

    def test_matches_lapack_on_random_matrices(self, rng):
        for _ in range(10):
            a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            assert spectral_norm(a) == pytest.approx(op_norm(a), rel=1e-8)

    def test_submultiplicative(self, rng):
        for _ in range(10):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0


class TestTrotterError:
    def test_single_class_is_exact(self):
        model = from_edges(2, [(0, 1, J1)])
        col = color_model(model)
        assert col.num_classes == 1
        for m in (1, 3):
            assert trotter_error(model, col, first_order(1), m, 1.0) < 1e-10

    def test_first_order_halving(self, heis_chain4):
        col = color_model(heis_chain4)
        f = first_order(col.num_classes)
        e32 = trotter_error(heis_chain4, col, f, 32, 1.0)
        e64 = trotter_error(heis_chain4, col, f, 64, 1.0)
        assert 1.7 <= e32 / e64 <= 2.3

    def test_formula_unitary_matches_manual_product(self, heis_chain4):
        from conftest import ref_edge_hamiltonian
        from trottersmith import expand

        xyz_field_piecewise = build_lattice(
            "chain", 5, coupling=CouplingTensor.diagonal(0.7, -1.2, 0.9),
            field=[0.4, -0.3, 0.8], profile=TimeProfile("piecewise", (1.0, -0.6)))
        for model in (heis_chain4, xyz_field_piecewise):
            col = color_model(model)
            f = formula_for_order(2, col.num_classes)
            got = formula_unitary(model, col, f, 2, 0.9)
            dim = 2**model.n
            hs = [np.zeros((dim, dim), dtype=complex) for _ in col.classes]
            for k, cls in enumerate(col.classes):
                for ei in cls:
                    e = model.edges[ei]
                    hs[k] += ref_edge_hamiltonian(e.i, e.j, model.n, e.coupling.matrix,
                                                  e.h_i, e.h_j)
            u = np.eye(dim, dtype=complex)
            for s in expand(f, 2, 0.9, model.profile):
                u = ref_expm(hs[s.k - 1], -1j * s.tau) @ u
            assert op_norm(got - u) < 1e-12


class TestStatevector:
    def test_hadamard_on_zero(self):
        state = np.array([1.0, 0.0], dtype=complex)
        out = apply_gate(state, Gate(GateKind.H, (0,)))
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_cnot_on_basis_state(self):
        # |10> (site 0 set, big-endian index 2) -> |11>
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0
        out = apply_gate(state, Gate(GateKind.CX, (0, 1)))
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_run_circuit_matches_unitary(self, rng):
        n = 6
        layers = []
        for _ in range(12):
            qubits = list(rng.permutation(n))
            layer = [
                Gate(GateKind.CX, (qubits[0], qubits[1])),
                Gate(GateKind.RZ, (qubits[2],), angle=float(rng.uniform(-3, 3))),
                Gate(GateKind.U1Q, (qubits[3],), matrix=random_unitary(2, rng)),
                Gate(GateKind.H, (qubits[4],)),
            ]
            layers.append(tuple(layer))
        circ = Circuit(n=n, layers=tuple(layers))
        u = circuit_unitary(circ)
        state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state /= np.linalg.norm(state)
        assert np.linalg.norm(run_circuit(state, circ) - u @ state) < 1e-10

    def test_norm_preserved_over_many_gates(self, rng):
        n = 6
        state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state /= np.linalg.norm(state)
        gates = []
        for _ in range(10_000):
            r = rng.integers(0, 3)
            if r == 0:
                q = int(rng.integers(0, n))
                gates.append(Gate(GateKind.RX, (q,), angle=float(rng.uniform(-3, 3))))
            elif r == 1:
                q = int(rng.integers(0, n))
                gates.append(Gate(GateKind.U1Q, (q,), matrix=random_unitary(2, rng)))
            else:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(Gate(GateKind.CX, (int(a), int(b))))
        for g in gates:
            state = apply_gate(state, g)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_single_norm_drift_tight(self, rng):
        state = np.array([0.6, 0.8j], dtype=complex)
        out = apply_gate(state, Gate(GateKind.U1Q, (0,), matrix=random_unitary(2, rng)))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_gate_out_of_range(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        with pytest.raises(ValueError, match="does not fit"):
            apply_gate(state, Gate(GateKind.H, (2,)))

    def test_empty_circuit_identity(self):
        circ = Circuit(n=2, layers=())
        assert np.allclose(circuit_unitary(circ), np.eye(4), atol=1e-15)

    def test_single_cnot_matrix(self):
        circ = Circuit(n=2, layers=((Gate(GateKind.CX, (0, 1)),),))
        cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.allclose(circuit_unitary(circ), cx, atol=1e-15)


class TestPhaseDistance:
    def test_pure_phase_is_zero(self, rng):
        u = random_unitary(8, rng)
        assert phase_distance(np.exp(1j * 1.234) * u, u) < 1e-10

    def test_agrees_with_reference(self, rng):
        u = random_unitary(4, rng)
        v = random_unitary(4, rng)
        assert phase_distance(u, v) == pytest.approx(dist_up_to_phase(u, v), abs=1e-8)
