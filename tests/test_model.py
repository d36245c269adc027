"""Model layer: coupling tensors, field folding, lattices, serialization."""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottersmith import (
    Boundary,
    CouplingTensor,
    LatticeKind,
    SpinModel,
    TimeProfile,
    build_lattice,
    from_edges,
    model_from_json,
    model_to_json,
)
from trottersmith.model import edge_hamiltonians, isotropic_rows
from trottersmith.synth import _expm_herm

from conftest import I2, SX, SZ, op_norm, ref_edge_hamiltonian


def one_edge_model(i, j, jmat=np.eye(3), h_i=np.zeros(3), h_j=np.zeros(3)) -> SpinModel:
    """A 3-site model of the one edge (i, j): the constructor checks a stack of
    one in the order, and with the messages, that a one-edge document meets."""
    return SpinModel(3, [(i, j)], [jmat], [h_i], [h_j])


def one_edge_hamiltonian(jmat, h_i=(0.0, 0.0, 0.0), h_j=(0.0, 0.0, 0.0)) -> np.ndarray:
    """The 4x4 Hamiltonian of one edge row, as the slice of a one-row stack."""
    return edge_hamiltonians(np.array([jmat], dtype=float), np.array([h_i], dtype=float),
                             np.array([h_j], dtype=float))[0]


class TestCouplingTensor:
    def test_heisenberg_is_isotropic(self):
        assert isotropic_rows(CouplingTensor.heisenberg(2.5).matrix)
        assert isotropic_rows(CouplingTensor.diagonal(1.0, 1.0, 1.0).matrix)

    def test_anisotropic_flag(self):
        assert not isotropic_rows(CouplingTensor.diagonal(1.0, 1.0, 0.5).matrix)
        off = np.zeros((3, 3))
        off[0, 1] = 1e-6
        assert not isotropic_rows(CouplingTensor(np.eye(3) + off).matrix)

    def test_edge_strength_is_spectral(self):
        # j_max, the largest per-edge strength, is the spectral norm of each J
        heis = from_edges(2, [(0, 1, CouplingTensor.heisenberg(3.0))])
        assert heis.j_max == pytest.approx(3.0)
        j = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert from_edges(2, [(0, 1, CouplingTensor(j))]).j_max == pytest.approx(op_norm(j))

    @pytest.mark.parametrize("make, message", [
        (lambda: CouplingTensor.diagonal(True, 1.0, 1.0), None),
        (lambda: CouplingTensor.diagonal(True, False, True), None),
        (lambda: CouplingTensor.diagonal(1.0, 1.0, False), None),
        (lambda: CouplingTensor.heisenberg(True), "coupling j must be a real number, got True"),
        (lambda: CouplingTensor([[True, 0, 0], [0, 1, 0], [0, 0, 1]]), None),
    ], ids=["diagonal-one", "diagonal-all", "diagonal-last", "heisenberg", "nested-list"])
    def test_booleans_are_not_couplings(self, make, message):
        # True used to read as 1.0 through np.diag and j * identity
        with pytest.raises(ValueError, match=message or "coupling tensor entries must be "
                                                        "numbers, got a boolean"):
            make()

    def test_negative_heisenberg_keeps_signed_zeros(self):
        # model JSON prints the off-diagonals, so their signs are in the bytes
        j = CouplingTensor.heisenberg(-1.5).matrix
        off = j[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0) and np.all(np.signbit(off))
        text = model_to_json(from_edges(2, [(0, 1, CouplingTensor.heisenberg(-1.5))]))
        assert '"J":[[-1.5,-0.0,-0.0],[-0.0,-1.5,-0.0],[-0.0,-0.0,-1.5]]' in text

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            CouplingTensor(np.eye(2))
        with pytest.raises(ValueError):
            CouplingTensor(np.full((3, 3), np.nan))

    def test_matrix_is_readonly(self):
        j = CouplingTensor.heisenberg(1.0)
        with pytest.raises(ValueError):
            j.matrix[0, 0] = 5.0


class TestOneEdgeModel:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError, match=re.escape("0 <= i < j, got (2, 1)")):
            one_edge_model(2, 1)
        with pytest.raises(ValueError, match=re.escape("0 <= i < j, got (1, 1)")):
            one_edge_model(1, 1)

    def test_endpoints_must_be_integers(self):
        # float endpoints used to pass here and fail later inside color_model
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            one_edge_model(0.0, 1.0)
        # NumPy reads np.True_ beside integers as 1, as it does True
        with pytest.raises(TypeError, match="expected an integer, got"):
            one_edge_model(np.True_, 2)
        assert one_edge_model(np.int64(0), np.int32(2)).edges == ((0, 2),)
        model = from_edges(3, [(np.int64(2), np.int64(1), CouplingTensor.heisenberg())])
        assert [type(v) for v in model.edges[0]] == [int, int]
        assert model_to_json(model) == model_to_json(
            from_edges(3, [(1, 2, CouplingTensor.heisenberg())]))

    def test_requires_coupling_tensor(self):
        with pytest.raises(TypeError, match="coupling must be a CouplingTensor, got tuple"):
            from_edges(2, [(0, 1, (1.0, 1.0, 1.0))])

    def test_field_share_shape(self):
        with pytest.raises(ValueError, match=re.escape("h_i entries must come in rows of shape")):
            one_edge_model(0, 1, h_i=np.zeros(2))


class TestOneEdgeHamiltonian:
    def test_heisenberg_matrix_and_spectrum(self):
        h = one_edge_hamiltonian(CouplingTensor.heisenberg(1.0).matrix)
        ref = ref_edge_hamiltonian(0, 1, 2, np.eye(3))
        assert np.allclose(h, ref, atol=1e-15)
        eig = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(eig, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_pure_field_term(self):
        h = one_edge_hamiltonian(np.zeros((3, 3)), h_i=(0.0, 0.0, 1.0))
        assert np.allclose(h, np.kron(SZ, I2) / 2, atol=1e-15)

    @given(
        st.lists(st.floats(-1, 1), min_size=9, max_size=9),
        st.lists(st.floats(-1, 1), min_size=6, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_hermitian_and_norm_bounded(self, jvals, hvals):
        jmat = np.array(jvals).reshape(3, 3)
        h_i, h_j = np.array(hvals[:3]), np.array(hvals[3:])
        h = one_edge_hamiltonian(jmat, h_i, h_j)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        loose = 2.25 * np.max(np.abs(jmat)) + np.linalg.norm(h_i) + np.linalg.norm(h_j)
        assert op_norm(h) <= loose + 1e-12


# coefficients that hit exact zeros and negative entries often
_coeff = st.one_of(st.just(0.0), st.just(-1.0), st.floats(-2, 2))
_edge = st.tuples(st.lists(_coeff, min_size=9, max_size=9),
                  st.lists(_coeff, min_size=3, max_size=3),
                  st.lists(_coeff, min_size=3, max_size=3))


class TestEdgeHamiltonians:
    @given(st.lists(_edge, min_size=1, max_size=6),
           st.sampled_from([0.7, -0.35, 0.0, -0.0]))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_reference_and_single_edges(self, raw, tau):
        coupling = np.array([j for j, _, _ in raw], dtype=float).reshape(-1, 3, 3)
        h_i = np.array([hi for _, hi, _ in raw], dtype=float)
        h_j = np.array([hj for _, _, hj in raw], dtype=float)
        stack = edge_hamiltonians(coupling, h_i, h_j)
        assert stack.shape == (len(raw), 4, 4)
        us = _expm_herm(stack, -1j * tau)
        for k in range(len(raw)):
            ref = ref_edge_hamiltonian(0, 1, 2, coupling[k], h_i[k], h_j[k])
            assert np.max(np.abs(stack[k] - ref)) <= 1e-15
            # row k depends only on row k: a one-row stack gives the same bits
            assert stack[k].tobytes() == one_edge_hamiltonian(coupling[k], h_i[k],
                                                              h_j[k]).tobytes()
            assert us[k].tobytes() == _expm_herm(stack[k], -1j * tau).tobytes()

    def test_empty_sequence(self):
        assert edge_hamiltonians(np.empty((0, 3, 3)), np.empty((0, 3)),
                                 np.empty((0, 3))).shape == (0, 4, 4)


class TestBuildLattice:
    def test_open_chain_edges(self):
        model = build_lattice("chain", 4)
        assert model.pairs.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert model.lattice is LatticeKind.CHAIN

    def test_periodic_square_3x3(self):
        model = build_lattice("square", (3, 3), "periodic")
        assert len(model.edges) == 18
        assert model.degrees == (4,) * 9

    def test_honeycomb_degree_3(self):
        model = build_lattice("hexagonal", (2, 2), "periodic")
        assert model.n == 8
        assert model.degrees == (3,) * 8

    def test_open_square_2x3(self):
        model = build_lattice("square", (2, 3))
        assert len(model.edges) == 7
        assert model.max_degree == 3

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            build_lattice("chain", (2,), "periodic")
        with pytest.raises(ValueError):
            build_lattice("square", 4)
        with pytest.raises(ValueError):
            build_lattice("square", (2, 4), "periodic")
        with pytest.raises(ValueError):
            build_lattice("hexagonal", (1, 2), "periodic")

    @pytest.mark.parametrize("kind, dims, shown", [
        ("square", (3.9, 3), "(3.9, 3)"),  # used to build a 3x3 square
        ("chain", 4.7, "(4.7,)"),  # used to fail as "not iterable"
        ("chain", (True,), "(True,)"),
    ])
    def test_dims_must_be_integers(self, kind, dims, shown):
        with pytest.raises(TypeError, match=f"dimensions must be integers, got {re.escape(shown)}"):
            build_lattice(kind, dims)

    def test_integer_dims_of_any_integer_type(self):
        assert model_to_json(build_lattice("chain", np.int64(4))) == \
            model_to_json(build_lattice("chain", 4))

    def test_custom_kind_is_built_from_edges(self):
        with pytest.raises(ValueError, match="built with from_edges"):
            build_lattice("custom", 3)

    def test_uniform_coupling_everywhere(self):
        j = CouplingTensor.diagonal(1.0, 0.5, 0.25)
        model = build_lattice("chain", 5, coupling=j)
        for jmat in model.coupling:
            assert np.array_equal(jmat, j.matrix)
        assert model.j_max == pytest.approx(1.0)


class TestAssignFields:
    def test_chain3_convention(self):
        h = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]])
        j = CouplingTensor.heisenberg()
        model = from_edges(3, [(0, 1, j), (1, 2, j)], h)
        assert model.edges == ((0, 1), (1, 2))
        assert np.array_equal(model.h_i[0], h[0])   # h_0 lives in edge (0,1)
        assert np.array_equal(model.h_j[0], np.zeros(3))
        assert np.array_equal(model.h_i[1], h[1])   # h_1 lives in edge (1,2)
        assert np.array_equal(model.h_j[1], h[2])   # h_2 lives in edge (1,2)

    def test_zero_fields_zero_shares(self):
        j = CouplingTensor.heisenberg()
        model = from_edges(3, [(0, 1, j), (1, 2, j)], np.zeros((3, 3)))
        assert not model.h_i.any() and not model.h_j.any()

    def test_conservation_on_square(self):
        model = build_lattice("square", (3, 3), "periodic", field=(0.1, -0.2, 0.3))
        total = np.zeros(3)
        for h_i, h_j in zip(model.h_i, model.h_j):
            total += h_i + h_j
        assert np.allclose(total, 9 * np.array([0.1, -0.2, 0.3]), atol=1e-12)

    def test_each_site_housed_once(self):
        model = build_lattice("square", (2, 2), field=(0.0, 0.0, 1.0))
        housed = sum(float(np.sum(np.abs(h_i) > 0) > 0) + float(np.sum(np.abs(h_j) > 0) > 0)
                     for h_i, h_j in zip(model.h_i, model.h_j))
        assert housed == model.n

    def test_site_fields_need_one_row_per_site(self):
        with pytest.raises(ValueError, match=r"must have shape \(3, 3\), got \(2, 3\)"):
            from_edges(3, [(0, 1, CouplingTensor.heisenberg())], np.zeros((2, 3)))

    @pytest.mark.parametrize("bad, message", [
        (True, "site field entries must be numbers, got a boolean"),
        (math.nan, "site field entries must be finite"),
        ("0.5", "site field entries must be numbers, got dtype"),
    ], ids=["bool", "nan", "str"])
    def test_site_fields_are_checked_like_loaded_fields(self, bad, message):
        j = CouplingTensor.heisenberg()
        with pytest.raises(ValueError, match=message):
            from_edges(2, [(0, 1, j)], [[bad, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=message):
            build_lattice("chain", 3, coupling=j, field=(0.0, bad, 0.0))

    def test_isolated_fielded_site_rejected(self):
        with pytest.raises(ValueError, match="touches no edge"):
            from_edges(
                3,
                [(0, 1, CouplingTensor.heisenberg())],
                site_fields=[[0, 0, 0], [0, 0, 0], [0, 0, 1.0]],
            )


class TestSpinModel:
    def test_site_count_must_be_an_integer(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SpinModel(n=2.5, pairs=[(0, 1)], coupling=[np.eye(3)], h_i=[np.zeros(3)],
                      h_j=[np.zeros(3)])

    def test_stacks_are_stored_once_and_read_only(self):
        model = build_lattice("chain", 4, field=(0.1, 0.0, 0.2))
        assert model.pairs.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert model.coupling.shape == (3, 3, 3) and model.h_i.shape == model.h_j.shape == (3, 3)
        for arr in (model.pairs, model.coupling, model.h_i, model.h_j):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert model.edges == ((0, 1), (1, 2), (2, 3)) and model.edges is model.edges

    def test_duplicate_edge_rejected(self):
        j = CouplingTensor.heisenberg()
        with pytest.raises(ValueError, match="duplicate"):
            from_edges(3, [(0, 1, j), (1, 0, j)])

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            SpinModel(n=2, pairs=[(0, 2)], coupling=[np.eye(3)], h_i=[np.zeros(3)],
                      h_j=[np.zeros(3)])

    def test_j_max_tracks_largest_tensor(self):
        model = from_edges(
            3,
            [
                (0, 1, CouplingTensor.heisenberg(0.5)),
                (1, 2, CouplingTensor.diagonal(2.0, 0.1, 0.1)),
            ],
        )
        assert model.j_max == pytest.approx(2.0)


class TestTimeProfile:
    def test_constant(self):
        p = TimeProfile()
        assert p.is_constant
        assert p.factor(3, 10) == 1.0

    def test_piecewise_left_endpoint(self):
        p = TimeProfile("piecewise", (1.0, 0.5))
        assert p.factor(0, 2) == 1.0
        assert p.factor(1, 2) == 0.5

    def test_length_mismatch(self):
        p = TimeProfile("piecewise", (1.0, 0.5))
        with pytest.raises(ValueError):
            p.factor(0, 3)

    def test_numpy_factor_table(self):
        # the emptiness test used to ask an array for its truth value
        p = TimeProfile("piecewise", np.array([1.0, -0.0]))
        assert p.factors == (1.0, -0.0) and all(type(f) is float for f in p.factors)
        assert math.copysign(1.0, p.factors[1]) == -1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeProfile("piecewise")
        with pytest.raises(ValueError):
            TimeProfile("constant", (1.0,))
        with pytest.raises(ValueError):
            TimeProfile("ramp")

    @pytest.mark.parametrize("factors", ["12", (1.0, "0.5"), (True, False), (1.0, np.True_)])
    def test_strings_and_booleans_are_not_factors(self, factors):
        # float() would read "12" as (1.0, 2.0) and True as 1.0
        with pytest.raises(ValueError, match="profile factors must be numbers"):
            TimeProfile("piecewise", factors)


class TestJson:
    def test_round_trip_bit_exact(self):
        model = build_lattice(
            "square",
            (3, 3),
            "periodic",
            coupling=CouplingTensor.diagonal(1.0, 1 / 3, 0.1),
            field=(0.1, 0.0, -2 / 7),
        )
        text = model_to_json(model)
        again = model_to_json(model_from_json(text))
        assert text == again

    def test_round_trip_values(self):
        model = build_lattice("chain", 4, field=(0.0, 0.0, 0.3),
                              profile=TimeProfile("piecewise", (1.0, 0.25)))
        back = model_from_json(model_to_json(model))
        assert back.n == model.n
        assert back.lattice is model.lattice
        assert back.boundary is model.boundary
        assert back.profile.factors == (1.0, 0.25)
        assert back.edges == model.edges
        for name in ("coupling", "h_i", "h_j"):
            assert np.array_equal(getattr(back, name), getattr(model, name))

    @pytest.mark.parametrize("text", [
        '{"n":2,"lattice":"chain","boundary":"open","edges":[{"i":0,"j":1,"J":[[1.0,0.0,0.0],'
        '[0.0,1.0,0.0],[0.0,0.0,1.0]],"hi":[0.5,0.0,-0.25],"hj":[0.5,0.0,-0.25]}],'
        '"profile":{"kind":"constant"}}\n',
        '{"n":2,"lattice":"chain","boundary":"open","edges":[{"i":0,"j":1,"J":[[1.0,0.0,0.0],'
        '[0.0,1.0,0.0],[0.0,0.0,1.0]],"hi":[0.0,0.0,0.0],"hj":[0.0,0.0,0.0]}],'
        '"profile":{"kind":"piecewise","factors":[1.0,-0.5]}}\n',
    ], ids=["constant", "piecewise"])
    def test_written_documents_read_back_byte_identical(self, text):
        # documents as model_to_json has written them, each profile kind
        model = model_from_json(text)
        assert model.profile.is_constant == ('"constant"' in text)
        assert model_to_json(model) == text

    def test_missing_field_is_value_error(self):
        with pytest.raises(ValueError, match="missing"):
            model_from_json('{"n": 2}')


# one bad ingredient each: (i, j, J, hi, hj)
_J = [[1.0, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.4]]
_H0 = [0.0, 0.0, 0.0]
_BAD_EDGES = {
    "nan-J": (0, 1, [[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]], _H0, _H0),
    "inf-J": (0, 1, [[1, 0, 0], [0, 1, 0], [0, 0, -math.inf]], _H0, _H0),
    "nan-hi": (0, 1, _J, [0.0, math.nan, 0.0], _H0),
    "inf-hi": (0, 1, _J, [math.inf, 0.0, 0.0], _H0),
    "nan-hj": (0, 1, _J, _H0, [0.0, 0.0, math.nan]),
    "inf-hj": (0, 1, _J, _H0, [0.0, -math.inf, 0.0]),
    "J-shape": (0, 1, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], _H0, _H0),
    "hi-shape": (0, 1, _J, [0.0, 1.0], _H0),
    "hj-shape": (0, 1, _J, _H0, [[0.0, 0.0, 1.0]]),
    "ragged-J": (0, 1, [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], _H0, _H0),
    "i-equals-j": (1, 1, _J, _H0, _H0),
    "i-above-j": (2, 1, _J, _H0, _H0),
    "negative-i": (-1, 1, _J, _H0, _H0),
}
# a stack of many rows reports these with the one-edge message; shape faults
# among well-shaped rows make the stack ragged, which numpy reports itself
_SAME_MESSAGE_IN_A_STACK = ("nan-J", "inf-J", "nan-hi", "inf-hi", "nan-hj", "inf-hj",
                            "i-equals-j", "i-above-j", "negative-i")


def _message(fn) -> str:
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def _edge_doc(i, j, jmat, hi, hj) -> dict:
    return {"i": i, "j": j, "J": jmat, "hi": hi, "hj": hj}


class TestStackedChecks:
    @pytest.mark.parametrize("case", sorted(_BAD_EDGES))
    def test_one_edge_document_fails_like_the_constructor(self, case):
        i, j, jmat, hi, hj = _BAD_EDGES[case]
        direct = _message(lambda: one_edge_model(i, j, jmat, hi, hj))
        text = json.dumps({"n": 3, "edges": [_edge_doc(i, j, jmat, hi, hj)]})
        assert _message(lambda: model_from_json(text)) == direct

    @pytest.mark.parametrize("case", sorted(_BAD_EDGES))
    def test_bad_edge_inside_a_large_document_is_rejected(self, case):
        i, j, jmat, hi, hj = _BAD_EDGES[case]
        edges = [_edge_doc(k, k + 1, _J, [0.1, 0.0, -0.2], _H0) for k in range(1000)]
        edges[500] = _edge_doc(i, j, jmat, hi, hj)
        text = json.dumps({"n": 1001, "edges": edges})
        got = _message(lambda: model_from_json(text))
        if case in _SAME_MESSAGE_IN_A_STACK:
            direct = _message(lambda: one_edge_model(i, j, jmat, hi, hj))
            assert got == direct

    def test_duplicate_and_out_of_range_edges_in_a_document(self):
        two = [_edge_doc(0, 1, _J, _H0, _H0), _edge_doc(1, 2, _J, _H0, _H0)]
        dup = json.dumps({"n": 3, "edges": two + [_edge_doc(0, 1, _J, _H0, _H0)]})
        with pytest.raises(ValueError, match="duplicate edge"):
            model_from_json(dup)
        with pytest.raises(ValueError, match="out of range"):
            model_from_json(json.dumps({"n": 2, "edges": two}))

    def test_loaded_arrays_are_read_only(self):
        model = model_from_json(model_to_json(build_lattice("chain", 3, field=(0.1, 0, 0))))
        for arr in (model.pairs, model.coupling, model.h_i, model.h_j):
            with pytest.raises(ValueError):
                arr[0] = 1


def _ref_fold(n, pairs, fields):
    """Field shares by the folding rule, one site at a time: a site's field
    goes to the first sorted edge it is the lower end of, else to the first
    edge it touches at all."""
    h_i = [np.zeros(3) for _ in pairs]
    h_j = [np.zeros(3) for _ in pairs]
    for s in range(n):
        low = [k for k, (a, _) in enumerate(pairs) if a == s]
        touch = [k for k, pair in enumerate(pairs) if s in pair]
        if low:
            h_i[low[0]] = h_i[low[0]] + fields[s]
        elif touch:
            h_j[touch[0]] = h_j[touch[0]] + fields[s]
    return h_i, h_j


# signed zeros, subnormals, integral floats at and above 1e16 and plain values
_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e16, -1e16, 2.0**60, 1.5e17,
                     -3.0, 0.1]),
    st.floats(-1e20, 1e20),
)
_tensor = st.one_of(
    st.lists(_value, min_size=9, max_size=9).map(lambda v: CouplingTensor(np.reshape(v, (3, 3)))),
    st.floats(-5, -0.01).map(CouplingTensor.heisenberg),  # negative isotropic: -0.0 off-diagonals
)


class TestJsonRoundTripProperty:
    @given(st.data())
    @example(None)
    @settings(max_examples=80, deadline=None)
    def test_text_is_a_fixed_point_and_values_are_bit_exact(self, data):
        if data is None:  # a fixed case: negative isotropic J and -0.0 fields
            n, pairs = 3, [(0, 1), (1, 2)]
            tensors = [CouplingTensor.heisenberg(-1.0), CouplingTensor.heisenberg(-2.5)]
            fields = np.array([[-0.0, 5e-324, 1e16], [0.0, -0.0, 0.0], [2.0**60, -0.0, 0.1]])
        else:
            n = data.draw(st.integers(2, 6))
            all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            pairs = sorted(data.draw(st.lists(st.sampled_from(all_pairs), min_size=1,
                                              max_size=len(all_pairs), unique=True)))
            tensors = data.draw(st.lists(_tensor, min_size=len(pairs), max_size=len(pairs)))
            touched = {s for pair in pairs for s in pair}
            fields = np.array([data.draw(st.lists(_value, min_size=3, max_size=3))
                               if s in touched else [0.0, 0.0, 0.0] for s in range(n)])
        model = from_edges(n, [(a, b, c) for (a, b), c in zip(pairs, tensors)], fields)
        ref_hi, ref_hj = _ref_fold(n, pairs, fields)
        for k, (c, hi, hj) in enumerate(zip(tensors, ref_hi, ref_hj)):
            assert model.coupling[k].tobytes() == c.matrix.tobytes()
            assert model.h_i[k].tobytes() == hi.tobytes()
            assert model.h_j[k].tobytes() == hj.tobytes()
        text = model_to_json(model)
        back = model_from_json(text)
        assert model_to_json(back) == text
        assert back.pairs.tolist() == model.pairs.tolist()
        for name in ("pairs", "coupling", "h_i", "h_j"):
            a, b = getattr(model, name), getattr(back, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        stack = edge_hamiltonians(model.coupling, model.h_i, model.h_j)
        for k in range(len(model.pairs)):
            assert stack[k].tobytes() == one_edge_hamiltonian(model.coupling[k], model.h_i[k],
                                                              model.h_j[k]).tobytes()


@pytest.mark.parametrize("make", [
    lambda: build_lattice("hexagonal", (2, 2), "periodic", field=(0.1, 0.0, 0.2)),
    lambda: from_edges(4, [(3, 1, CouplingTensor.heisenberg()),
                           (np.int64(0), np.int32(2), CouplingTensor.diagonal(1.0, 0.5, 0.0))]),
    lambda: model_from_json(model_to_json(build_lattice("square", (3, 3), "periodic"))),
], ids=["build_lattice", "from_edges", "model_from_json"])
def test_edges_are_the_pairs_as_int_tuples(make):
    # the colorer keys dicts by these and the oracle targets them, so they are
    # Python ints in tuples however the model was built
    model = make()
    assert model.edges == tuple(map(tuple, model.pairs.tolist()))
    assert all(type(e) is tuple and len(e) == 2 and all(type(v) is int for v in e)
               for e in model.edges)
