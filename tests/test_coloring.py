"""Edge colorings: lattice classes, Koenig and Misra-Gries paths, validation."""
from __future__ import annotations

import itertools
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trottersmith import (
    CouplingTensor,
    EdgeColoring,
    build_lattice,
    color_model,
    from_edges,
)
from trottersmith.coloring import coloring_from_json, coloring_to_json, validate

from conftest import op_norm, ref_edge_terms

J1 = CouplingTensor.heisenberg()


def cycle_model(n: int):
    return from_edges(n, [(i, (i + 1) % n, J1) for i in range(n)])


class TestBuiltinColorings:
    def test_chain_even_periodic_k2(self):
        model = build_lattice("chain", 6, "periodic")
        col = color_model(model)
        assert col.num_classes == 2
        validate(model, col)

    def test_chain_open_k2(self):
        model = build_lattice("chain", 4)
        col = color_model(model)
        assert col.num_classes == 2
        # even bonds {(0,1),(2,3)} then odd bonds {(1,2)}
        assert [sorted(model.edges[i] for i in cls) for cls in col.classes] == [
            [(0, 1), (2, 3)],
            [(1, 2)],
        ]

    def test_square_4x4_periodic_k4(self):
        model = build_lattice("square", (4, 4), "periodic")
        col = color_model(model)
        assert col.num_classes == 4
        validate(model, col)
        # a 4-regular graph split into 4 classes forces perfect matchings
        assert all(len(cls) == model.n // 2 for cls in col.classes)

    def test_honeycomb_k3(self):
        model = build_lattice("hexagonal", (2, 2), "periodic")
        col = color_model(model)
        assert col.num_classes == 3
        validate(model, col)

    def test_odd_periodic_chain_falls_back_to_k3(self):
        model = build_lattice("chain", 5, "periodic")
        col = color_model(model)
        assert col.num_classes == 3
        validate(model, col)

    def test_odd_periodic_square_falls_back(self):
        model = build_lattice("square", (3, 3), "periodic")
        col = color_model(model)
        validate(model, col)
        assert col.num_classes <= model.max_degree + 1

    @pytest.mark.parametrize("rows", range(3, 13))
    def test_periodic_squares_validate(self, rows):
        # Koenig's step completes, with K = degree 4, exactly when the column
        # count is even; the 4x3, 6x3, 6x5 and 8x5 tori are 4-colorable too
        # but go through Misra-Gries
        for cols in range(3, 13):
            model = build_lattice("square", (rows, cols), "periodic")
            col = color_model(model)
            validate(model, col)
            assert col.num_classes == (4 if cols % 2 == 0 else 5), (rows, cols)

    @pytest.mark.parametrize("shape, path, k", [
        ((3, 4), "koenig", 4),
        ((3, 3), "misra-gries", 5),
    ])
    def test_logged_path_on_odd_tori(self, caplog, shape, path, k):
        model = build_lattice("square", shape, "periodic")
        assert not is_bipartite(model.n, model.pairs.tolist())
        with caplog.at_level(logging.INFO, logger="trottersmith.coloring"):
            col = color_model(model)
        assert caplog.messages == [f"coloring path: {path}"]
        validate(model, col)
        assert col.num_classes == k

    def test_custom_chain_k2(self):
        model = from_edges(6, [(i, i + 1, J1) for i in range(5)])
        col = color_model(model)
        validate(model, col)
        assert col.num_classes == 2


class TestColorGeneral:
    def test_five_cycle_needs_three_colors(self, caplog):
        model = cycle_model(5)
        with caplog.at_level(logging.INFO, logger="trottersmith.coloring"):
            col = color_model(model)
        assert caplog.messages == ["coloring path: misra-gries"]
        validate(model, col)
        assert col.num_classes == 3
        # brute-force oracle: no proper 2-coloring of C5's edges exists
        pairs = model.pairs.tolist()
        for labels in itertools.product((0, 1), repeat=5):
            ok = True
            for (e1, l1), (e2, l2) in itertools.combinations(zip(pairs, labels), 2):
                if l1 == l2 and set(e1) & set(e2):
                    ok = False
                    break
            if ok:
                pytest.fail(f"C5 admitted a 2-coloring {labels}")

    def test_single_edge(self):
        model = from_edges(2, [(0, 1, J1)])
        assert color_model(model).num_classes == 1

    def test_complete_graph_k5(self):
        model = from_edges(5, [(i, j, J1) for i in range(5) for j in range(i + 1, 5)])
        col = color_model(model)
        validate(model, col)
        assert col.num_classes == 5

    @given(st.integers(3, 8), st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_graphs_validate(self, caplog, n, data):
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(all_pairs), min_size=1, max_size=len(all_pairs),
                     unique=True)
        )
        model = from_edges(n, [(i, j, J1) for i, j in chosen])
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="trottersmith.coloring"):
            col = color_model(model)
        validate(model, col)
        assert col.num_classes <= model.max_degree + 1
        if is_bipartite(n, chosen):
            assert col.num_classes == model.max_degree
        if caplog.messages == ["coloring path: koenig"]:
            assert col.num_classes == model.max_degree


def is_bipartite(n: int, pairs) -> bool:
    """Brute force over all 2^n side assignments."""
    return any(all(sides[i] != sides[j] for i, j in pairs)
               for sides in itertools.product((0, 1), repeat=n))


class TestValidate:
    def test_incident_same_class_reported(self):
        model = build_lattice("chain", 4)
        bad = EdgeColoring(4, ((0, 1, 2),))
        with pytest.raises(ValueError, match="share site"):
            validate(model, bad)

    def test_uncovered_edge_reported(self):
        model = build_lattice("chain", 4)
        bad = EdgeColoring(4, ((0,), (1,)))
        with pytest.raises(ValueError, match="not covered"):
            validate(model, bad)

    def test_double_cover_reported(self):
        model = build_lattice("chain", 4)
        bad = EdgeColoring(4, ((0, 2), (1, 2)))
        with pytest.raises(ValueError, match="classes"):
            validate(model, bad)

    def test_too_many_classes_reported(self):
        model = build_lattice("chain", 5)
        bad = EdgeColoring(5, ((0,), (1,), (2,), (3,)))
        with pytest.raises(ValueError, match="max degree"):
            validate(model, bad)

    def test_wrong_n_reported(self):
        model = build_lattice("chain", 4)
        with pytest.raises(ValueError, match="n="):
            validate(model, EdgeColoring(5, ((0, 2), (1,))))


class TestCommutingClasses:
    def test_within_class_commutators_vanish(self):
        for model in (build_lattice("chain", 6), build_lattice("hexagonal", (2, 1))):
            col = color_model(model)
            embedded = ref_edge_terms(model)
            for cls in col.classes:
                for a, b in itertools.combinations(cls, 2):
                    comm = embedded[a] @ embedded[b] - embedded[b] @ embedded[a]
                    assert op_norm(comm) < 1e-12


class TestColoringJson:
    def test_round_trip(self):
        model = build_lattice("square", (4, 4), "periodic")
        col = color_model(model)
        back = coloring_from_json(coloring_to_json(col))
        assert back.classes == col.classes and back.n == col.n

    def test_k_mismatch_rejected(self):
        text = '{"n": 4, "K": 3, "classes": [[0, 2], [1]]}'
        with pytest.raises(ValueError, match="does not match"):
            coloring_from_json(text)

    def test_numpy_indices_round_trip_byte_for_byte(self):
        # NumPy integers used to pass validate and then fail json.dumps
        col = EdgeColoring(np.int64(4), (np.array([0, 2]), np.array([1], dtype=np.int32)))
        validate(build_lattice("chain", 4), col)
        assert type(col.n) is int and all(type(i) is int for c in col.classes for i in c)
        text = coloring_to_json(col)
        assert text == coloring_to_json(EdgeColoring(4, ((0, 2), (1,))))
        assert coloring_to_json(coloring_from_json(text)) == text


class TestColoringNumbers:
    # n and every index go through json_int, as a model's and a circuit's n
    # do; each case used to build, or to fail later than the constructor
    @pytest.mark.parametrize("n, classes", [
        (4.0, ((0, 2), (1,))),
        ("4", ((0, 2), (1,))),
        (4, ((True, 2), (1,))),
        (4, ((np.True_, 2), (1,))),
        (4, ((0, 2), (1.0,))),
    ], ids=["n-float", "n-str", "bool-index", "np-bool-index", "float-index"])
    def test_non_integers_raise_type_error(self, n, classes):
        with pytest.raises(TypeError):
            EdgeColoring(n, classes)
