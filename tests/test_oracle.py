"""Dense oracle: Hamiltonians, evolutions, norms, statevector playback."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from trottersmith import (
    Circuit,
    CouplingTensor,
    Gate,
    GateKind,
    TimeProfile,
    build_lattice,
    build_trotter_circuit,
    color_model,
    expand,
    first_order,
    formula_for_order,
    from_edges,
)
import trottersmith.oracle as oracle_mod
from trottersmith.model import edge_hamiltonians
from trottersmith.oracle import (
    _apply_local,
    apply_gate,
    circuit_unitary,
    exact_evolution,
    expm_hermitian,
    formula_unitary,
    run_circuit,
    spectral_norm,
    total_hamiltonian,
    trotter_error,
)

from conftest import (
    I2,
    PAULIS,
    SZ,
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


def _kron_reference(a: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """2^n embedding of a with its first factor on qubits[0], by Pauli expansion."""
    basis = (I2,) + PAULIS
    ref = np.zeros((2**n, 2**n), dtype=complex)
    for paulis in itertools.product(basis, repeat=len(qubits)):
        coeff = np.trace(kron_chain(paulis).conj().T @ a) / 2 ** len(qubits)
        factors = [I2] * n
        for q, p in zip(qubits, paulis):
            factors[q] = p
        ref += coeff * kron_chain(factors)
    return ref


def _moveaxis_reference(a: np.ndarray, qubits: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """The general kernel: target axes moved to the front and back around one matmul."""
    n = int(block.shape[0]).bit_length() - 1
    front = range(len(qubits))
    psi = np.moveaxis(block.reshape((2,) * n + block.shape[1:]), qubits, front)
    res = (a @ psi.reshape(2 ** len(qubits), -1)).reshape(psi.shape)
    return np.moveaxis(res, front, qubits).reshape(block.shape)


class TestApplyLocal:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_consecutive_targets_match_both_references(self, rng, k):
        # (q0, ..., q0+k-1) takes the copy-free view of the block
        n = 5
        blocks = (np.eye(2**n, dtype=complex),
                  rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n),
                  rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3)))
        for q0 in range(n - k + 1):
            qubits = tuple(range(q0, q0 + k))
            a = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
            ref = _kron_reference(a, qubits, n)
            for block in blocks:
                got = _apply_local(a, qubits, block)
                assert got.shape == block.shape
                assert np.allclose(got, ref @ block, rtol=0, atol=1e-14)
                assert np.allclose(got, _moveaxis_reference(a, qubits, block), rtol=0, atol=1e-14)

    def test_every_ordered_pair_matches_kron_reference(self, rng):
        n = 5
        state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        batch = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
        for qubits in itertools.permutations(range(n), 2):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            ref = _kron_reference(a, qubits, n)
            assert np.allclose(_apply_local(a, qubits, np.eye(2**n, dtype=complex)), ref,
                               atol=1e-14)
            assert np.allclose(_apply_local(a, qubits, state), ref @ state, atol=1e-14)
            assert np.allclose(_apply_local(a, qubits, batch), ref @ batch, atol=1e-14)

    def test_one_qubit_operator_on_every_site(self, rng):
        n = 4
        batch = rng.standard_normal((2**n, 2)) + 1j * rng.standard_normal((2**n, 2))
        for q in range(n):
            a = random_unitary(2, rng)
            assert np.allclose(_apply_local(a, (q,), batch),
                               _kron_reference(a, (q,), n) @ batch, atol=1e-14)


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


class TestReferenceEvolution:
    def test_all_ones_piecewise_converges_to_exact(self):
        m_ref = 10**4
        profile = TimeProfile("piecewise", (1.0,) * m_ref)
        model = build_lattice("chain", 4, profile=profile)
        const = build_lattice("chain", 4)
        got = exact_evolution(model, 1.0)
        assert op_norm(got - exact_evolution(const, 1.0)) < 1e-8

    def test_zero_factors_give_identity(self):
        profile = TimeProfile("piecewise", (0.0, 0.0))
        model = build_lattice("chain", 3, profile=profile)
        assert np.allclose(exact_evolution(model, 2.0), np.eye(8), atol=1e-12)

    def test_nonuniform_table_matches_step_product(self):
        factors = (0.5, 2.0, -1.0, 0.0, 1.3)
        model = build_lattice("chain", 4, field=[0.3, 0.0, -0.7],
                              profile=TimeProfile("piecewise", factors))
        t, m_ref = 1.1, len(factors)
        h = ref_model_hamiltonian(model)
        u = np.eye(16, dtype=complex)
        for f in factors:
            u = ref_expm(h, -1j * (t / m_ref) * f) @ u
        assert op_norm(exact_evolution(model, t) - u) < 1e-12

    @pytest.mark.parametrize("factors", [(1.0,), (1.0, 0.0), (0.5, -1.0, 0.0),
                                         (0.0, -0.4, 1.0, 2.5), (0.5, 2.0, -1.0, 0.0, 1.3)],
                             ids=lambda f: f"L{len(f)}")
    @pytest.mark.parametrize("field", [None, (0.3, 0.0, -0.7)], ids=["bare", "field"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_piecewise_equals_step_product(self, n, field, factors):
        model = build_lattice("chain", n, field=field,
                              profile=TimeProfile("piecewise", factors))
        t = 0.9
        h = ref_model_hamiltonian(model)
        u = np.eye(2**n, dtype=complex)
        for f in factors:
            u = ref_expm(h, -1j * (t / len(factors)) * f) @ u
        assert op_norm(exact_evolution(model, t) - u) < 1e-12

    def test_table_length_grid_uses_every_entry_once(self):
        # each of the 22 entries counts once in the mean factor
        factors = tuple(1.0 + 0.1 * p for p in range(22))
        model = build_lattice("chain", 3, profile=TimeProfile("piecewise", factors))
        h = ref_model_hamiltonian(model)
        want = ref_expm(h, -1j * 0.8 * sum(factors) / len(factors))
        assert op_norm(exact_evolution(model, 0.8) - want) < 1e-12


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

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match="expects a matrix"):
            spectral_norm(np.ones(3))


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

    def test_formula_must_match_the_coloring(self, heis_chain4):
        col = color_model(heis_chain4)
        with pytest.raises(ValueError, match="formula has K=3 but coloring has 2"):
            formula_unitary(heis_chain4, col, first_order(3), 1, 1.0)

    def test_formula_unitary_matches_manual_product(self, heis_chain4):
        from conftest import ref_edge_hamiltonian

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

    # m = 32 walks one step of t/32 and squares it five times; the odd
    # m = 33 walks all 33 steps
    @pytest.mark.parametrize("m, walked, stages, distinct", [(32, 1, 3, 2), (33, 33, 67, 3)])
    def test_each_distinct_stage_exponentiated_once(self, heis_chain4, monkeypatch,
                                                     m, walked, stages, distinct):
        col = color_model(heis_chain4)
        f = formula_for_order(2, col.num_classes)
        schedule = list(expand(f, walked, walked / m, heis_chain4.profile))
        calls = []
        real = oracle_mod.expm_hermitian

        def counting(h, factor=-1j):
            calls.append(h.shape)
            return real(h, factor)

        monkeypatch.setattr(oracle_mod, "expm_hermitian", counting)
        formula_unitary(heis_chain4, col, f, m, 1.0)
        assert len(schedule) == stages
        assert len(calls) == len({(s.k, s.tau) for s in schedule}) == distinct
        assert all(shape[1:] == (4, 4) for shape in calls)

    def test_stacked_exponential_matches_each_matrix(self, rng):
        z = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        hs = z + np.swapaxes(z.conj(), -1, -2)
        stacked = expm_hermitian(hs, -0.7j)
        for h, u in zip(hs, stacked):
            assert np.max(np.abs(u - ref_expm(h, -0.7j))) < 1e-13
            assert np.array_equal(u, expm_hermitian(h, -0.7j))


def _stage_walk(model, coloring, formula, m, t) -> np.ndarray:
    """Every stage of the m-step schedule applied edge by edge, with no squaring."""
    hterms = edge_hamiltonians(model.coupling, model.h_i, model.h_j)
    pairs = list(map(tuple, model.pairs.tolist()))  # tuple targets, as the oracle passes them
    u = np.eye(2**model.n, dtype=complex)
    for s in expand(formula, m, t, model.profile):
        cls = list(coloring.classes[s.k - 1])
        for ei, op in zip(cls, expm_hermitian(hterms[cls], -1j * s.tau)):
            u = _apply_local(op, pairs[ei], u)
    return u


def _xyz_field_ring(field=(0.4, -0.3, 0.8), profile=None):
    """An odd XYZ ring with a field, whose coloring needs three classes."""
    kw = {} if profile is None else {"profile": profile}
    return build_lattice("chain", 5, "periodic", coupling=CouplingTensor.diagonal(0.7, -1.2, 0.9),
                         field=field, **kw)


class TestSquaredFormula:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 32])
    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("which", ["heis_chain4", "xyz_field_ring"])
    def test_squaring_matches_the_stage_walk(self, heis_chain4, which, order, m):
        model = heis_chain4 if which == "heis_chain4" else _xyz_field_ring()
        col = color_model(model)
        f = formula_for_order(order, col.num_classes)
        sizes = [len(c) for c in col.classes]
        # every even m squares at least once on these small models
        assert (oracle_mod._squarings(f, sizes, m, model.n) > 0) == (m % 2 == 0)
        got = formula_unitary(model, col, f, m, 0.9)
        assert op_norm(got - _stage_walk(model, col, f, m, 0.9)) < 1e-12

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_piecewise_odd_m_and_one_class_keep_the_walk_bits(self, heis_chain4, order):
        piecewise = _xyz_field_ring(profile=TimeProfile("piecewise", (1.0, -0.6, 0.5, 2.0)))
        one_class = from_edges(2, [(0, 1, J1)], site_fields=[[0.3, 0.0, 0.5], [0, 0, 0]])
        for model, ms in ((piecewise, (4,)), (heis_chain4, (3, 5, 33)), (one_class, (8, 32))):
            col = color_model(model)
            f = formula_for_order(order, col.num_classes)
            for m in ms:
                got = formula_unitary(model, col, f, m, 0.9)
                assert np.array_equal(got, _stage_walk(model, col, f, m, 0.9))
        # a one-class formula is one exponential, exactly the reference
        col = color_model(one_class)
        f = formula_for_order(order, 1)
        assert trotter_error(one_class, col, f, 32, 1.0) == 0.0

    def test_squaring_threshold_follows_the_matmul_cost(self):
        # chain-9, order 2: halving m saves 4 m edge applications; one
        # matmul costs 16, so m = 32 walks two steps and squares four times
        model = build_lattice("chain", 9)
        col = color_model(model)
        f = formula_for_order(2, col.num_classes)
        sizes = [len(c) for c in col.classes]
        assert [oracle_mod._squarings(f, sizes, m, 9) for m in (2, 4, 8, 32, 48)] == \
            [0, 1, 2, 4, 4]
        with pytest.raises(ValueError, match="m must be >= 1"):
            formula_unitary(model, col, f, 0, 1.0)
        with pytest.raises(ValueError, match="m must be an integer"):
            formula_unitary(model, col, f, 4.0, 1.0)

    def test_squaring_keeps_two_work_matrices(self, heis_chain4, monkeypatch):
        col = color_model(heis_chain4)
        f = formula_for_order(2, col.num_classes)
        products = []
        real = np.matmul

        def spy(a, b, out=None):
            products.append((a is b, out is not None and out is not a))
            return real(a, b, out=out)

        monkeypatch.setattr(oracle_mod.np, "matmul", spy)
        formula_unitary(heis_chain4, col, f, 32, 1.0)
        assert products == [(True, True)] * 5


class TestRealSolver:
    def test_real_and_complex_paths_agree(self, rng):
        a = rng.standard_normal((3, 16, 16))
        hs = (a + np.swapaxes(a, -1, -2)).astype(complex)
        for factor in (-0.7j, -2.5j, 0.3):
            got = expm_hermitian(hs, factor)
            for h, u in zip(hs, got):
                assert np.max(np.abs(u - ref_expm(h, factor))) < 1e-13

    @pytest.mark.parametrize("field, dtype", [((0.5, 0.0, 0.3), np.float64),
                                              ((0.5, 0.2, 0.3), np.complex128)])
    def test_solver_follows_the_field(self, monkeypatch, field, dtype):
        # H is real unless a y field puts sigma_y on a site alone
        dtypes = []
        real = np.linalg.eigh

        def spy(h):
            dtypes.append(h.dtype)
            return real(h)

        monkeypatch.setattr(oracle_mod.np.linalg, "eigh", spy)
        model = _xyz_field_ring(field=field)
        col = color_model(model)
        formula_unitary(model, col, formula_for_order(2, col.num_classes), 4, 0.9)
        exact_evolution(model, 0.9)
        assert dtypes and set(dtypes) == {np.dtype(dtype)}


def _random_circuit(rng: np.random.Generator, n: int, depth: int) -> Circuit:
    """Seeded layers of random gates of every kind on disjoint qubits."""
    one = (GateKind.H, GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.U1Q)
    layers = []
    for _ in range(depth):
        free = [int(q) for q in rng.permutation(n)]
        layer = []
        while free:
            if len(free) >= 2 and rng.random() < 0.5:
                a, b = free.pop(), free.pop()
                if rng.random() < 0.5:
                    layer.append(Gate(GateKind.CX, (a, b)))
                else:
                    layer.append(Gate(GateKind.UIJ, (a, b), matrix=random_unitary(4, rng)))
            else:
                kind = one[int(rng.integers(len(one)))]
                q = free.pop()
                if kind is GateKind.U1Q:
                    layer.append(Gate(kind, (q,), matrix=random_unitary(2, rng)))
                elif kind is GateKind.H:
                    layer.append(Gate(kind, (q,)))
                else:
                    layer.append(Gate(kind, (q,), angle=float(rng.uniform(-4, 4))))
        layers.append(tuple(layer))
    return Circuit(n=n, layers=tuple(layers))


def _gate_by_gate(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    for g in circuit.all_gates():
        state = apply_gate(state, g)
    return state


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

    def test_run_circuit_matches_unitary(self):
        # fused playback against an independent gate-by-gate apply_gate fold
        for seed in range(8):
            rng = np.random.default_rng(seed)
            circ = _random_circuit(rng, n=5, depth=24)
            kinds = {g.kind for g in circ.all_gates()}
            assert kinds == set(GateKind)
            state = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            batch = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
            for psi in (state, batch):
                got = run_circuit(psi, circ)
                assert got.shape == psi.shape
                assert np.max(np.abs(got - _gate_by_gate(psi, circ))) < 1e-12

    def test_reversed_pair_and_interleaved_one_qubit_gates(self, rng):
        # (b, a) after (a, b) on one open block, one-qubit gates before,
        # between and after, and a gate on another pair forcing a flush
        u4 = random_unitary(4, rng)
        layers = [
            (Gate(GateKind.H, (1,)), Gate(GateKind.RY, (3,), angle=0.4)),
            (Gate(GateKind.CX, (1, 3)),),
            (Gate(GateKind.RZ, (3,), angle=-1.1), Gate(GateKind.U1Q, (1,),
                                                       matrix=random_unitary(2, rng))),
            (Gate(GateKind.UIJ, (3, 1), matrix=u4), Gate(GateKind.RX, (0,), angle=0.7)),
            (Gate(GateKind.CX, (3, 1)),),
            (Gate(GateKind.CX, (0, 1)), Gate(GateKind.H, (3,))),
            (Gate(GateKind.RX, (0,), angle=2.3), Gate(GateKind.UIJ, (3, 2), matrix=u4)),
            (Gate(GateKind.RY, (2,), angle=-0.2),),
        ]
        circ = Circuit(n=4, layers=tuple(layers))
        state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.max(np.abs(run_circuit(state, circ) - _gate_by_gate(state, circ))) < 1e-12
        eye = np.eye(16, dtype=complex)
        assert np.max(np.abs(circuit_unitary(circ) - _gate_by_gate(eye, circ))) < 1e-12

    def test_empty_circuit_returns_the_state(self, rng):
        circ = Circuit(n=3, layers=())
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.array_equal(run_circuit(state, circ), state)
        batch = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        assert np.array_equal(run_circuit(batch, circ), batch)

    def test_state_dimension_must_match(self):
        circ = Circuit(n=3, layers=((Gate(GateKind.H, (0,)),),))
        with pytest.raises(ValueError, match="circuit needs 8"):
            run_circuit(np.zeros(4, dtype=complex), circ)

    def test_playback_respects_statevector_limit(self, monkeypatch):
        import trottersmith.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "STATEVECTOR_LIMIT", 3)
        circ = Circuit(n=4, layers=((Gate(GateKind.H, (0,)),),))
        with pytest.raises(ValueError, match="capped at 3"):
            run_circuit(np.zeros(16, dtype=complex), circ)

    def test_compiled_edge_fragment_is_one_block(self, monkeypatch):
        # every decomposed edge fragment fuses into one 4x4 contraction
        import trottersmith.oracle as oracle_mod

        model = build_lattice("chain", 5, field=[0.5, 0.0, 0.3])
        col = color_model(model)
        f = formula_for_order(2, col.num_classes)
        circ = build_trotter_circuit(model, col, f, 4, 1.0, mode="decomposed")
        fragments = sum(len(col.classes[s.k - 1]) for s in expand(f, 4, 1.0, model.profile))
        calls = []
        real = oracle_mod._apply_local

        def counting(op, qubits, block):
            calls.append(qubits)
            return real(op, qubits, block)

        monkeypatch.setattr(oracle_mod, "_apply_local", counting)
        state = np.zeros(32, dtype=complex)
        state[0] = 1.0
        got = run_circuit(state, circ)
        assert len(calls) == fragments < circ.gate_count()
        assert all(len(q) == 2 for q in calls)
        monkeypatch.undo()
        assert np.max(np.abs(got - _gate_by_gate(state, circ))) < 1e-12

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

    def test_state_length_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="dimension 3 is not a power of two"):
            apply_gate(np.ones(3, dtype=complex), Gate(GateKind.H, (0,)))

    def test_empty_circuit_identity(self):
        circ = Circuit(n=2, layers=())
        assert np.allclose(circuit_unitary(circ), np.eye(4), atol=1e-15)

    def test_single_cnot_matrix(self):
        circ = Circuit(n=2, layers=((Gate(GateKind.CX, (0, 1)),),))
        cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.allclose(circuit_unitary(circ), cx, atol=1e-15)

