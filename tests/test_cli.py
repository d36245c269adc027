"""Console pipeline: artifacts, summaries, exit codes, determinism."""
from __future__ import annotations

import hashlib
import json
import math
import warnings

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottersmith import (
    Circuit,
    Gate,
    GateKind,
    TimeProfile,
    build_lattice,
    circuit_from_json,
    circuit_to_json,
    color_model,
    coloring_from_json,
    counts,
    expand,
    formula_for_order,
    model_from_json,
    model_to_json,
    term_hamiltonian,
)
from trottersmith.cli import main
from trottersmith.oracle import exact_evolution, formula_unitary, spectral_norm

from conftest import ref_expm


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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_isotropic_coupling_exits_two(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run("lattice", "--kind", "chain", "--dims", "3", "--coupling", value)
        assert res.exit_code == 2, res.output
        assert f"coupling j must be finite, got {value}" in res.stderr

    def test_negative_isotropic_coupling_keeps_signed_zeros(self):
        res = run("lattice", "--kind", "chain", "--dims", "3", "--coupling", "-1")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["edges"][0]["J"] == [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
        assert '[-1.0,-0.0,-0.0]' in res.stdout

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

    @pytest.mark.parametrize("doc", [
        {"n": 1e400, "edges": []},
        {"n": 3.7, "edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]},
        {"n": 3, "edges": [{"i": 0.5, "j": 1.9, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]},
        {"n": 3, "edges": [{"i": 0, "j": 1, "J": [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]}]},
    ], ids=["n-overflow", "n-float", "i-j-float", "J-huge-int"])
    def test_model_with_non_integer_fields_exits_two(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        res = run("color", "--model", str(path))
        assert res.exit_code == 2, res.output
        assert "malformed model document" in res.stderr

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

    @pytest.mark.parametrize("cmd,time,epsilon", [
        ("plan", "nan", "0.01"),
        ("plan", "inf", "0.01"),
        ("plan", "1.0", "nan"),
        ("synth", "nan", "0.01"),
    ])
    def test_nonfinite_time_or_epsilon_exits_two(self, chain4_file, cmd, time, epsilon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cmd, "--model", str(chain4_file), "--epsilon", epsilon,
                      "--time", time)
        assert res.exit_code == 2, res.output
        assert "finite" in res.stderr

    @pytest.mark.parametrize("args", [
        ("plan", "--model", None, "--order", "2", "--epsilon", "1e-320", "--time", "1e300"),
        ("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01", "--time", "1",
         "--coupling", "1e200"),
    ], ids=["order-2", "order-1"])
    def test_step_count_overflow_exits_two(self, chain4_file, args):
        res = run(*(str(chain4_file) if a is None else a for a in args))
        assert res.exit_code == 2, res.output
        assert "overflows a float" in res.stderr

    def test_c3_is_not_an_option(self, chain4_file):
        res = run("plan", "--model", str(chain4_file), "--order", "4",
                  "--epsilon", "0.01", "--time", "1.0", "--c3", "2")
        assert res.exit_code == 2
        assert "No such option" in res.output


class TestSynth:
    def test_heisenberg_qasm_cx_count(self, chain4_file):
        res = run("synth", "--model", str(chain4_file), "--steps", "1",
                  "--time", "1.0", "--mode", "decomposed", "--emit", "qasm")
        assert res.exit_code == 0
        assert res.stdout.startswith("OPENQASM 3.0;")
        cx_lines = [ln for ln in res.stdout.splitlines() if ln.startswith("cx ")]
        assert len(cx_lines) == 9

    def test_heisenberg_is_not_a_mode(self, chain4_file):
        res = run("synth", "--model", str(chain4_file), "--steps", "1",
                  "--time", "1.0", "--mode", "heisenberg")
        assert res.exit_code == 2
        assert "Invalid value for '--mode'" in res.output

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

    @pytest.mark.parametrize("mode", ["decomposed", "scaled"])
    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_nonfinite_time_exits_two(self, chain4_file, mode, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run("synth", "--model", str(chain4_file), "--steps", "2",
                      "--time", t, "--mode", mode)
        assert res.exit_code == 2, res.output
        assert "t must be finite" in res.stderr

    def test_zero_time_scaled_keeps_signed_zero_taus(self, tmp_path):
        # order 4 at --time 0 schedules stages of tau = -0.0 (the Suzuki middle
        # factor runs backwards); each must come out as built stage by stage
        path = tmp_path / "xyz6.json"
        run("lattice", "--kind", "chain", "--dims", "6", "--coupling", "1.0,0.7,0.4",
            "--field", "0.3,0,0.5", "--out", str(path))
        res = run("synth", "--model", str(path), "--mode", "scaled", "--order", "4",
                  "--steps", "2", "--time", "0", "--emit", "json")
        assert res.exit_code == 0, res.output
        model = model_from_json(path.read_text())
        col = color_model(model)
        layers = [
            tuple(
                Gate(GateKind.UIJ, e.sites, matrix=ref_expm(term_hamiltonian(e), -1j * s.tau),
                     edge=e.sites, tau=s.tau)
                for e in (model.edges[ei] for ei in col.classes[s.k - 1])
            )
            for s in expand(formula_for_order(4, col.num_classes), 2, 0.0)
        ]
        assert res.stdout == circuit_to_json(Circuit(model.n, tuple(layers)))
        taus = [g.tau for g in circuit_from_json(res.stdout).all_gates()]
        assert sum(1 for tau in taus if tau == 0.0 and math.copysign(1.0, tau) < 0) == 16

    @pytest.mark.parametrize("doc", [
        {"n": 1e400, "K": 2, "classes": [[0, 2], [1]]},
        {"n": 4.9, "K": 2, "classes": [[0, 2], [1]]},
        {"n": 4, "K": 2.5, "classes": [[0, 2], [1]]},
    ], ids=["n-overflow", "n-float", "K-float"])
    def test_coloring_with_non_integer_fields_exits_two(self, chain4_file, tmp_path, doc):
        path = tmp_path / "coloring.json"
        path.write_text(json.dumps(doc))
        res = run("synth", "--model", str(chain4_file), "--coloring", str(path),
                  "--steps", "1", "--time", "1.0")
        assert res.exit_code == 2, res.output
        assert "malformed coloring document" in res.stderr

    def test_supplied_coloring_is_used(self, chain4_file, tmp_path):
        col = tmp_path / "col.json"
        col.write_text(json.dumps({"n": 4, "classes": [[0], [1], [2]]}))
        res = run("synth", "--model", str(chain4_file), "--coloring", str(col),
                  "--order", "1", "--steps", "1", "--time", "1.0",
                  "--mode", "scaled")
        assert res.exit_code == 0
        assert "depth=3" in res.stderr

    # chain-4, order 2, m=2, t=1: XYZ (1, 0.7, 0.4) with field (0.3, 0, 0.5),
    # and a field-free Heisenberg chain that runs on the 3-CNOT core circuit;
    # a digest changes only through a deliberate change of an artifact
    @pytest.mark.parametrize("heisenberg, mode, emit, digest", [
        pytest.param(heisenberg, mode, emit, digest,
                     id=f"{'heisenberg-' if heisenberg else ''}{mode}-{emit}-{digest}")
        for heisenberg, mode, emit, digest in [
            (False, "decomposed", "json",
             "b7996c7efb6f63316580f524495517339379c4f292856be7f11c9f85ebcdeac3"),
            (False, "decomposed", "qasm",
             "ca18bef39776e1b5a8bb5aae3328ad267a3015408a2aa8d68983ab926be65124"),
            (False, "scaled", "json",
             "e5c6d4cf27d5b5303daf7400a7215204ae90f2600b71f84fbab2ec3f958b6fcc"),
            (False, "scaled", "qasm",
             "6be6a7e5177ff96c625df3a2e7e5adb14717b8326b20ad1d4ecdc9f94410a4d3"),
            (True, "decomposed", "json",
             "e099c9482a5fc8a36e7a386b44a1f1113a65aa2bebba8a365b15009782a0f944"),
            (True, "decomposed", "qasm",
             "9e1ed531eeaa8ed7a40a45593ad8af00b565e0541034968a81e4700ebb6262bc"),
        ]
    ])
    def test_golden_artifact_bytes(self, tmp_path, heisenberg, mode, emit, digest):
        model, out = tmp_path / "chain4.json", tmp_path / f"circuit.{emit}"
        args = () if heisenberg else ("--coupling", "1.0,0.7,0.4", "--field", "0.3,0,0.5")
        run("lattice", "--kind", "chain", "--dims", "4", *args, "--out", str(model))
        res = run("synth", "--model", str(model), "--order", "2", "--steps", "2",
                  "--time", "1", "--mode", mode, "--emit", emit, "--out", str(out))
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

    def test_model_counts_each_edge_template(self, tmp_path):
        # 4 plain-exchange edges (3 CNOTs) and 8 with a field share (6 CNOTs)
        path = tmp_path / "square33.json"
        run("lattice", "--kind", "square", "--dims", "3x3", "--field", "0.5,0,0.3",
            "--out", str(path))
        res = run("estimate", "--model", str(path), "--epsilon", "0.01", "--time", "1.0")
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert doc["interaction_gates"] == 12 * doc["m"]
        assert doc["cnots"] == 60 * doc["m"]
        assert doc["assumptions"]["template"] == "per-edge"

    def test_piecewise_model_counts_only_live_steps(self, tmp_path):
        path = tmp_path / "pw.json"
        path.write_text(model_to_json(
            build_lattice("chain", 4, profile=TimeProfile("piecewise", (1.0, 0.0)))))
        # the table length fixes m at every epsilon; step 1 runs for tau = 0
        for epsilon in ("0.75", "0.01"):
            res = run("estimate", "--model", str(path), "--epsilon", epsilon, "--time", "1.0")
            assert res.exit_code == 0, res.output
            doc = json.loads(res.stdout)
            # 3 exchange edges of 3 CNOTs in step 0 only
            assert (doc["m"], doc["interaction_gates"], doc["cnots"]) == (2, 6, 9)
            assert doc["assumptions"]["bound_used"] == "user"
        # order 2 runs class 1 ({0, 2}) twice per step; synth agrees
        res = run("estimate", "--model", str(path), "--order", "2", "--epsilon", "0.01",
                  "--time", "1")
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert (doc["m"], doc["cnots"]) == (2, 15)
        res = run("synth", "--model", str(path), "--order", "2", "--steps", "2",
                  "--time", "1", "--out", str(tmp_path / "pw.circuit.json"))
        assert res.exit_code == 0, res.output
        assert "cx=15 " in res.stdout

    def test_heisenberg_flag_rejected_with_model(self, chain4_file):
        res = run("estimate", "--model", str(chain4_file), "--epsilon", "0.01",
                  "--time", "1.0", "--heisenberg")
        assert res.exit_code == 2
        assert "--heisenberg applies without --model" in res.stderr

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
        assert lines[2] == "2,57,230,115.0"
        assert lines[3] == "4,11,222,111.0"

    @pytest.mark.parametrize("flag,value,message", [
        ("--coupling", "nan", "coupling j must be finite, got nan"),
        ("--coupling", "inf", "coupling j must be finite, got inf"),
        ("--t-inf", "nan", "t_inf must be finite, got nan"),
        ("--slope", "inf", "s must be finite, got inf"),
    ])
    def test_nonfinite_coupling_or_timing_exits_two(self, flag, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                      "--time", "1", flag, value)
        assert res.exit_code == 2, res.output
        assert message in res.stderr

    def test_needs_some_geometry(self):
        res = run("estimate", "--epsilon", "0.01", "--time", "1.0")
        assert res.exit_code == 2
        assert "provide --model" in res.stderr

    @pytest.mark.parametrize("flag,value", [("--classes", "0"), ("--n", "0"), ("--n", "1"),
                                            ("--order", "3")])
    def test_meaningless_input_exits_two(self, flag, value):
        # each of these used to print a report (K=0: depth 0, time 0.0)
        opts = {"--n": "4", "--classes": "2", "--order": "1", flag: value}
        res = run("estimate", *[x for kv in opts.items() for x in kv],
                  "--epsilon", "0.01", "--time", "1")
        assert res.exit_code == 2, res.output
        assert "error:" in res.stderr


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

    def test_piecewise_profile_measured_against_reference(self, tmp_path):
        model = build_lattice("chain", 4, profile=TimeProfile("piecewise", (1.0, 0.5)))
        path = tmp_path / "pw.json"
        path.write_text(model_to_json(model))
        res = run("verify", "--model", str(path), "--m-grid", "2")
        assert res.exit_code == 0, res.output
        m, err, bound, order = res.stdout.splitlines()[1].split(",")
        col = color_model(model)
        f = formula_for_order(1, col.num_classes)
        want = spectral_norm(formula_unitary(model, col, f, 2, 1.0)
                             - exact_evolution(model, 1.0))
        assert (m, order) == ("2", "1")
        assert float(err) == pytest.approx(want, rel=1e-12)
        assert want > 1e-3
        # (3/16) K(K-1) t^2 n J^2 / m with K=2, n=4, J=t=1, m=2, scaled by
        # the mean squared profile factor
        assert float(bound) == pytest.approx(
            (3 / 16) * 2 * 4 / 2 * (1.0**2 + 0.5**2) / 2, rel=1e-12)
        assert float(bound) >= float(err)

    @pytest.mark.parametrize("grid", ["4", "2,4", "2,2"])
    def test_piecewise_grid_must_be_table_length(self, tmp_path, grid):
        model = build_lattice("chain", 4, profile=TimeProfile("piecewise", (1.0, 0.5)))
        path = tmp_path / "pw.json"
        path.write_text(model_to_json(model))
        res = run("verify", "--model", str(path), "--m-grid", grid)
        assert res.exit_code == 2, res.output
        assert "table length 2" in res.stderr

    def test_jobs_must_be_positive(self, tmp_path):
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--out", str(model))
        res = run("verify", "--model", str(model), "--m-grid", "2,4", "--jobs", "0")
        assert res.exit_code == 2


PIECEWISE_TABLES = [(1.0,), (1.0, 0.0), (0.5, -1.0, 0.0), (0.0, -0.4, 1.0, 2.5),
                    (0.5, 2.0, -1.0, 0.0, 1.3)]


class TestPiecewiseProfile:
    """A piecewise profile's table length L is the step count of every command."""

    @pytest.mark.parametrize("factors", PIECEWISE_TABLES, ids=lambda f: f"L{len(f)}")
    @pytest.mark.parametrize("field", [None, (0.3, 0.0, -0.7)], ids=["bare", "field"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_plan_estimate_and_synth_agree(self, tmp_path, n, field, factors):
        path = tmp_path / "pw.json"
        path.write_text(model_to_json(build_lattice(
            "chain", n, field=field, profile=TimeProfile("piecewise", factors))))
        res = run("plan", "--model", str(path), "--epsilon", "0.01", "--time", "1")
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert (doc["m"], doc["bound_used"]) == (len(factors), "user")
        for order in ("1", "2"):
            res = run("estimate", "--model", str(path), "--order", order,
                      "--epsilon", "0.01", "--time", "1")
            assert res.exit_code == 0, res.output
            doc = json.loads(res.stdout)
            assert doc["m"] == len(factors)
            res = run("synth", "--model", str(path), "--order", order, "--epsilon", "0.01",
                      "--time", "1", "--mode", "decomposed",
                      "--out", str(tmp_path / "pw.circuit.json"))
            assert res.exit_code == 0, res.output
            assert f"m={len(factors)} " in res.stdout
            assert f"cx={doc['cnots']} " in res.stdout


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
    | st.dictionaries(st.sampled_from(["n", "K", "classes", "edges", "gates", "layers", "i",
                                       "j", "J", "kind", "qubits", "profile", "depth"]),
                      inner, max_size=5),
    max_leaves=12,
)


class TestLoaderContract:
    @given(_json_values)
    @example({"n": float("inf"), "K": 1, "edges": [], "classes": [], "layers": []})
    @example({"n": 3.7, "edges": [{"i": 0.5, "j": 1.9, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]})
    @example({"n": 2, "depth": float("inf"), "gates": [{"kind": "cx", "qubits": [0.7, 1]}],
              "layers": [[0]]})
    @example({"n": 2, "gates": [{"kind": "h", "qubits": [0]}], "layers": [[-1, 1, 0.5]]})
    @example({"n": 2, "K": float("inf"), "classes": [[0]]})
    @example({"n": 2, "edges": [{"i": 0, "j": 1, "J": [[10**400] * 3] * 3}]})
    @example({"n": True, "K": True, "classes": [[False]], "gates": [{"kind": "h",
              "qubits": [True]}], "layers": [[True]]})
    @settings(max_examples=150, deadline=None)
    def test_loaders_raise_only_value_error(self, doc):
        # any document either loads or is rejected as bad input (exit 2)
        text = json.dumps(doc)
        for loader in (model_from_json, coloring_from_json, circuit_from_json):
            try:
                loader(text)
            except ValueError:
                pass

    @pytest.mark.parametrize("edit", [
        {"profile": {"kind": "piecewise", "factors": "12"}},
        {"profile": {"kind": "piecewise", "factors": [True, False]}},
        {"edges": [{"i": 0, "j": 1, "J": [["1.0", "0", "0"], ["0", "1.0", "0"],
                                          ["0", "0", "1.0"]]}]},
        {"edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "hi": ["0.5", False, 0]}]},
        {"edges": [{"i": 0, "j": 1, "J": [[True, False, False], [False, True, False],
                                          [False, False, True]]}]},
        # NumPy reads booleans mixed with numbers as 0 and 1
        {"edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "hi": [0.5, False, 0]}]},
        {"n": 3, "edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            "hi": [True, False, False]},
                           {"i": 1, "j": 2, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            "hi": [0.5, 0, 0]}]},
    ], ids=["factors-string", "factors-bool", "J-strings", "hi-string-bool", "J-bool",
            "hi-number-bool", "hi-bool-row-beside-numbers"])
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, edit):
        doc = {"n": 2, "edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}
        doc.update(edit)
        text = json.dumps(doc)
        with pytest.raises(ValueError, match="must be numbers"):
            model_from_json(text)
        path = tmp_path / "model.json"
        path.write_text(text)
        res = run("color", "--model", str(path))
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize("what, doc", [
        ("circuit", {"n": 2, "gates": [{"kind": "h", "qubits": [0]},
                                       {"kind": "h", "qubits": [1]}], "layers": [[True]]}),
        ("circuit", {"n": 2, "gates": [{"kind": "h", "qubits": [True]}], "layers": [[0]]}),
        ("model", {"n": 2, "edges": [{"i": False, "j": True, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}),
        ("coloring", {"n": True, "K": True, "classes": [[False]]}),
    ], ids=["layer-index", "gate-qubit", "edge-endpoints", "coloring-n-k-classes"])
    def test_booleans_are_not_integers(self, tmp_path, chain4_file, what, doc):
        # operator.index alone reads JSON true/false as 1/0
        text = json.dumps(doc)
        loader = {"circuit": circuit_from_json, "model": model_from_json,
                  "coloring": coloring_from_json}[what]
        with pytest.raises(ValueError, match=f"malformed {what} document: expected an integer"):
            loader(text)
        if what == "circuit":
            return  # no command reads a circuit
        path = tmp_path / f"{what}.json"
        path.write_text(text)
        if what == "model":
            res = run("color", "--model", str(path))
        else:
            res = run("synth", "--model", str(chain4_file), "--coloring", str(path),
                      "--steps", "1", "--time", "1.0")
        assert res.exit_code == 2, res.output
        assert "expected an integer, got" in res.stderr
