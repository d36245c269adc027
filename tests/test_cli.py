"""Console pipeline: artifacts, summaries, exit codes, determinism."""
from __future__ import annotations

import json
import warnings

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from trottersmith import (
    circuit_from_json,
    coloring_from_json,
    counts,
    model_from_json,
)
from trottersmith.cli import main


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


@pytest.fixture
def chain4_file(tmp_path):
    path = tmp_path / "chain4.json"
    res = run("lattice", "--kind", "chain", "--dims", "4", "--out", str(path))
    assert res.exit_code == 0, res.output
    return path


@pytest.fixture
def square44_file(tmp_path):
    path = tmp_path / "square44.json"
    res = run(
        "lattice", "--kind", "square", "--dims", "4x4",
        "--boundary", "periodic", "--out", str(path),
    )
    assert res.exit_code == 0, res.output
    return path


class TestLattice:
    def test_writes_model_file(self, chain4_file):
        model = model_from_json(chain4_file.read_text())
        assert model.n == 4
        assert model.edge_pairs() == [(0, 1), (1, 2), (2, 3)]

    def test_summary_goes_to_stdout_with_out(self, tmp_path):
        path = tmp_path / "m.json"
        res = run("lattice", "--kind", "chain", "--dims", "5", "--out", str(path))
        assert "n=5 edges=4" in res.stdout

    def test_stdout_artifact_with_summary_on_stderr(self):
        res = run("lattice", "--kind", "chain", "--dims", "4")
        assert res.exit_code == 0
        model = model_from_json(res.stdout)
        assert model.n == 4
        assert "n=4" in res.stderr

    def test_coupling_and_field_flags(self, tmp_path):
        path = tmp_path / "m.json"
        res = run(
            "lattice", "--kind", "chain", "--dims", "3",
            "--coupling", "1.0,1.0,0.5", "--field", "0,0,0.25",
            "--out", str(path),
        )
        assert res.exit_code == 0
        model = model_from_json(path.read_text())
        assert model.edges[0].coupling.matrix[2, 2] == 0.5
        assert any(e.h_i[2] == 0.25 or e.h_j[2] == 0.25 for e in model.edges)

    def test_invalid_lattice_is_a_usage_error(self):
        res = run("lattice", "--kind", "square", "--dims", "2x2",
                  "--boundary", "periodic")
        assert res.exit_code == 2
        assert "error:" in res.stderr

    def test_malformed_coupling(self):
        res = run("lattice", "--kind", "chain", "--dims", "4", "--coupling", "1,2")
        assert res.exit_code == 2


class TestColor:
    def test_square_coloring(self, square44_file, tmp_path):
        out = tmp_path / "col.json"
        res = run("color", "--model", str(square44_file), "--out", str(out))
        assert res.exit_code == 0
        assert "K=4" in res.output
        col = coloring_from_json(out.read_text())
        assert col.num_classes == 4

    def test_missing_model_file(self, tmp_path):
        res = run("color", "--model", str(tmp_path / "nope.json"))
        assert res.exit_code == 2

    def test_corrupt_model_file(self, tmp_path):
        path = tmp_path / "bad.json"
        for text in ("{not json", "[]", '{"n": 4, "edges": 5}', '{"n": 4, "edges": [[0, 1]]}'):
            path.write_text(text)
            res = run("color", "--model", str(path))
            assert res.exit_code == 2, text
            assert "error:" in res.stderr
            assert "internal error" not in res.stderr

    def test_odd_periodic_square_4x3(self, tmp_path):
        model_path = tmp_path / "square43.json"
        run("lattice", "--kind", "square", "--dims", "4x3", "--boundary", "periodic",
            "--out", str(model_path))
        res = run("color", "--model", str(model_path))
        assert res.exit_code == 0, res.output
        assert "K=5" in res.stderr


class TestPlan:
    def test_first_order_worked_example(self, chain4_file, tmp_path):
        out = tmp_path / "plan.json"
        res = run("plan", "--model", str(chain4_file), "--epsilon", "0.01",
                  "--time", "1.0", "--out", str(out))
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["m"] == 150
        assert doc["K"] == 2
        assert doc["bound_used"] == "first_order_explicit"

    def test_fourth_order(self, chain4_file):
        res = run("plan", "--model", str(chain4_file), "--order", "4",
                  "--epsilon", "0.01", "--time", "1.0")
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["m"] == 11
        assert doc["bound_used"] == "higher_order_scaling"

    def test_bad_epsilon(self, chain4_file):
        res = run("plan", "--model", str(chain4_file), "--epsilon", "-1",
                  "--time", "1.0")
        assert res.exit_code == 2


class TestSynth:
    def test_heisenberg_qasm_cx_count(self, chain4_file):
        res = run("synth", "--model", str(chain4_file), "--steps", "1",
                  "--time", "1.0", "--mode", "heisenberg", "--emit", "qasm")
        assert res.exit_code == 0
        assert res.stdout.startswith("OPENQASM 3.0;")
        cx_lines = [ln for ln in res.stdout.splitlines() if ln.startswith("cx ")]
        assert len(cx_lines) == 9

    def test_json_circuit_round_trips(self, chain4_file, tmp_path):
        out = tmp_path / "circ.json"
        res = run("synth", "--model", str(chain4_file), "--steps", "2",
                  "--time", "0.5", "--mode", "scaled", "--out", str(out))
        assert res.exit_code == 0
        assert "m=2" in res.stdout
        circ = circuit_from_json(out.read_text())
        assert counts(circ)["interaction"] == 2 * 3

    def test_steps_overrides_epsilon(self, chain4_file):
        res = run("synth", "--model", str(chain4_file), "--steps", "3",
                  "--epsilon", "0.01", "--time", "1.0", "--mode", "scaled")
        assert res.exit_code == 0
        assert "m=3" in res.stderr

    def test_needs_steps_or_epsilon(self, chain4_file):
        res = run("synth", "--model", str(chain4_file), "--time", "1.0")
        assert res.exit_code == 2
        assert "provide --steps or --epsilon" in res.stderr

    def test_rejects_corrupt_coloring(self, chain4_file, tmp_path):
        col = tmp_path / "col.json"
        # classes put adjacent bonds together: invalid for this chain
        for text in (json.dumps({"n": 4, "classes": [[0, 1], [2]]}), "[]",
                     json.dumps({"n": 4, "classes": 5}),
                     json.dumps({"n": 4, "classes": [["0"], [1], [2]]})):
            col.write_text(text)
            res = run("synth", "--model", str(chain4_file), "--coloring", str(col),
                      "--steps", "1", "--time", "1.0")
            assert res.exit_code == 2, text
            assert "error:" in res.stderr
            assert "internal error" not in res.stderr

    def test_supplied_coloring_is_used(self, chain4_file, tmp_path):
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"n": 4, "classes": [[0], [1], [2]]}))
        res = run("synth", "--model", str(chain4_file), "--coloring", str(col),
                  "--order", "1", "--steps", "1", "--time", "1.0",
                  "--mode", "scaled")
        assert res.exit_code == 0
        assert "depth=3" in res.stderr


class TestEstimate:
    def test_regular_lattice_numbers(self):
        res = run("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                  "--time", "1.0")
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["m"] == 150
        assert doc["interaction_gates"] == 600
        assert doc["cnots"] == 3600
        assert doc["simulation_time"] == 300.0

    def test_model_file_fixes_edge_count(self, chain4_file):
        res = run("estimate", "--model", str(chain4_file), "--epsilon", "0.01",
                  "--time", "1.0")
        doc = json.loads(res.stdout)
        assert doc["interaction_gates"] == 150 * 3

    def test_heisenberg_flag(self):
        res = run("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                  "--time", "1.0", "--heisenberg")
        doc = json.loads(res.stdout)
        assert doc["cnots"] == 1800

    def test_scaled_bound_added(self):
        res = run("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                  "--time", "1.0", "--slope", "0.5")
        doc = json.loads(res.stdout)
        assert doc["scaled_time_bound"] == 1.0

    def test_compare_orders_csv(self, tmp_path):
        out = tmp_path / "orders.csv"
        res = run("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                  "--time", "1.0", "--compare-orders", "1,2,4", "--out", str(out))
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "order,m,N,T"
        assert lines[1] == "1,150,600,300.0"
        assert lines[2] == "2,57,456,228.0"
        assert lines[3] == "4,11,440,220.0"

    def test_needs_some_geometry(self):
        res = run("estimate", "--epsilon", "0.01", "--time", "1.0")
        assert res.exit_code == 2
        assert "provide --model" in res.stderr


class TestVerify:
    def test_csv_shape_and_slope(self, tmp_path):
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--out", str(model))
        out = tmp_path / "v.csv"
        res = run("verify", "--model", str(model), "--m-grid", "2,4",
                  "--time", "0.5", "--out", str(out))
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,error,bound,order"
        assert len(lines) == 3
        for ln in lines[1:]:
            m, err, bound, order = ln.split(",")
            assert float(err) > 0
            assert float(bound) > 0
            assert order == "1"
        assert "slope=" in res.stderr

    def test_higher_order_leaves_bound_blank(self, tmp_path):
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--out", str(model))
        res = run("verify", "--model", str(model), "--order", "2",
                  "--m-grid", "2,4", "--time", "0.5")
        rows = res.stdout.splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[2] == ""
            assert fields[3] == "2"

    def test_two_runs_byte_identical(self, tmp_path):
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--out", str(model))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = run("--seed", "7", "verify", "--model", str(model),
                      "--m-grid", "2,4,8", "--time", "0.5", "--out", str(out))
            assert res.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_jobs_do_not_change_the_artifact(self, tmp_path):
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--out", str(model))
        texts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}.csv"
            res = run("verify", "--model", str(model), "--m-grid", "2,4",
                      "--time", "0.5", "--jobs", jobs, "--out", str(out))
            assert res.exit_code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_bad_grid(self, tmp_path):
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--out", str(model))
        res = run("verify", "--model", str(model), "--m-grid", "0,4")
        assert res.exit_code == 2

    @pytest.mark.parametrize("dims,grid", [("3", "8"), ("3", "8,8"), ("2", "2,4")],
                             ids=["one-m", "repeated-m", "zero-error"])
    def test_slope_nan_without_warning(self, tmp_path, dims, grid):
        # one distinct m has no slope; a one-edge model is exact, so log(0)
        model = tmp_path / "chain.json"
        run("lattice", "--kind", "chain", "--dims", dims, "--out", str(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run("verify", "--model", str(model), "--m-grid", grid,
                      "--time", "0.5")
        assert res.exit_code == 0, res.output
        assert res.stderr.strip() == "slope=nan"

    def test_jobs_must_be_positive(self, tmp_path):
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--out", str(model))
        res = run("verify", "--model", str(model), "--m-grid", "2,4", "--jobs", "0")
        assert res.exit_code == 2


class TestExitCodes:
    def test_internal_failure_is_exit_one(self, chain4_file, monkeypatch):
        import trottersmith.cli as cli_mod

        def boom(model):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod.coloring_mod, "color_model", boom)
        res = run("color", "--model", str(chain4_file))
        assert res.exit_code == 1
        assert "internal error: RuntimeError" in res.stderr


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "K", "classes", "edges", "layers", "i", "j",
                                       "J", "kind", "qubits", "profile", "depth"]),
                      inner, max_size=5),
    max_leaves=12,
)


class TestLoaderContract:
    @given(_json_values)
    @settings(max_examples=150, deadline=None)
    def test_loaders_raise_only_value_error(self, doc):
        # any document either loads or is rejected as bad input (exit 2)
        text = json.dumps(doc)
        for loader in (model_from_json, coloring_from_json, circuit_from_json):
            try:
                loader(text)
            except ValueError:
                pass
