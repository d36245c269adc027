"""Console pipeline: artifacts, summaries, exit codes, determinism."""
from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from trottersmith import (
    Circuit,
    CouplingTensor,
    Gate,
    GateKind,
    StepPlan,
    TimeProfile,
    audit,
    build_lattice,
    build_trotter_circuit,
    circuit_from_json,
    circuit_to_json,
    circuit_unitary,
    color_model,
    coloring_from_json,
    coloring_to_json,
    counts,
    expand,
    formula_for_order,
    from_edges,
    model_from_json,
    model_to_json,
    report_for_plan,
)
from trottersmith.cli import DEFAULT_SEED, main
from trottersmith.jsonutil import format_float
from trottersmith.model import edge_hamiltonians
from trottersmith.oracle import exact_evolution, formula_unitary, spectral_norm

from conftest import class_edge_cnots, ref_expm, seeded_norm


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
        assert model.pairs.tolist() == [[0, 1], [1, 2], [2, 3]]

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
        assert model.coupling[0, 2, 2] == 0.5
        assert any(h_i[2] == 0.25 or h_j[2] == 0.25 for h_i, h_j in zip(model.h_i, model.h_j))

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

    @pytest.mark.parametrize("kind,dims,message", [
        ("chain", "1", "chain needs n >= 2"),
        ("square", "1x1", "square lattice needs at least 2 sites"),
        ("hexagonal", "0x1", "honeycomb lattice needs at least 1x1 cells"),
    ])
    def test_too_few_sites_exits_two(self, kind, dims, message):
        res = run("lattice", "--kind", kind, "--dims", dims)
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {message}\n"


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

    def test_coupling_on_a_face_of_the_kak_cell(self, tmp_path):
        # (pi, 0.4, -0.2) for tau = 1 is the KAK core at alpha = pi with
        # gamma < 0, which canonicalizes to gamma > 0 on that face of the cell
        model_path, out = tmp_path / "chain2.json", tmp_path / "circ.json"
        run("lattice", "--kind", "chain", "--dims", "2",
            "--coupling", f"{math.pi!r},0.4,-0.2", "--out", str(model_path))
        res = run("synth", "--model", str(model_path), "--steps", "1", "--time", "1",
                  "--out", str(out))
        assert res.exit_code == 0, res.output
        model = model_from_json(model_path.read_text())
        col = color_model(model)
        f = formula_for_order(1, col.num_classes)
        circ = circuit_from_json(out.read_text())
        assert counts(circ)["cx"] == 6
        report = report_for_plan(StepPlan(m=1, order=1, bound_used="user",
                                          num_classes=col.num_classes, t=1.0),
                                 model.n, edge_cnots=class_edge_cnots(model, col))
        assert audit(report, circ) == []
        want = formula_unitary(model, col, f, 1, 1.0)
        assert np.max(np.abs(circuit_unitary(circ) - want)) < 1e-9

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
        hterms = edge_hamiltonians(model.coupling, model.h_i, model.h_j)
        layers = [
            tuple(
                Gate(GateKind.UIJ, tuple(model.pairs[ei].tolist()),
                     matrix=ref_expm(hterms[ei], -1j * s.tau), tau=s.tau)
                for ei in col.classes[s.k - 1]
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
        {"n": 4.0, "K": 2, "classes": [[0, 2], [1]]},
        {"n": "4", "K": 2, "classes": [[0, 2], [1]]},
        {"n": 4, "K": 2, "classes": [[True, 2], [1]]},
        {"n": 4, "K": 2, "classes": [[0, 2], [1.0]]},
    ], ids=["n-overflow", "n-float", "K-float", "n-integral-float", "n-str", "bool-index",
            "float-index"])
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
    # a digest changes only through a deliberate change of an artifact.  A
    # QASM text's body, from "qubit[" down, has its own digest, so a change
    # of the header alone shows as one.  The JSON digests are those of the
    # layout with like entries and layer references; test_circuits checks
    # that the earlier layout's artifacts expand from these and still load
    @pytest.mark.parametrize("heisenberg, mode, emit, digest, body", [
        pytest.param(heisenberg, mode, emit, digest, body,
                     id=f"{'heisenberg-' if heisenberg else ''}{mode}-{emit}-{digest}")
        for heisenberg, mode, emit, digest, body in [
            (False, "decomposed", "json",
             "ed277fd426ae700bd923f817ebe3c03978cd17d248fd2fecd42f6ec4f2d7bbf9", None),
            (False, "decomposed", "qasm",
             "0465c8000df81110bae5208f14a63ad5df4d78532d24cb62bdabb791b7aa9ea6",
             "bbe3e42644239dbd4d9cf7f22bc045d68f028d6bc74c4ea305731cdc25e1d5cb"),
            (False, "scaled", "json",
             "a44fc9bb0308517a52b05628473e33cdb3069ccfb7e0d8ec931687fc19c1cee7", None),
            (False, "scaled", "qasm",
             "ee4324fa9d7f762cdf33ba5f6e7239b4aabe0df4a2e8a362329820d4a86cd23d",
             "9ebd9665a157636c0fa48efaeee383d9785e397c091861b9de1418744d0d71ea"),
            (True, "decomposed", "json",
             "5d2ee6293b5aeda343db3edb40c8f357b4906df69b5bdd63d27d2503aa5277f4", None),
            (True, "decomposed", "qasm",
             "5ee44a441adc794edf6f57d3099ae2eac0ce445b0d1c982058e4c591bb7db38e",
             "9cc6d8955b8caa78210d071b8408f4f8521b65781ed23d87e142ed6e4fce2675"),
        ]
    ])
    def test_golden_artifact_bytes(self, tmp_path, heisenberg, mode, emit, digest, body):
        model, out = tmp_path / "chain4.json", tmp_path / f"circuit.{emit}"
        args = () if heisenberg else ("--coupling", "1.0,0.7,0.4", "--field", "0.3,0,0.5")
        run("lattice", "--kind", "chain", "--dims", "4", *args, "--out", str(model))
        res = run("synth", "--model", str(model), "--order", "2", "--steps", "2",
                  "--time", "1", "--mode", mode, "--emit", emit, "--out", str(out))
        assert res.exit_code == 0, res.output
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        if body is not None:
            assert hashlib.sha256(data[data.index(b"qubit["):]).hexdigest() == body

    def test_qasm_header_names_the_model_file_by_digest(self, tmp_path):
        # a 4x4 XYZ+field torus as written, and re-indented with CRLF line
        # ends: the header holds the digest of the bytes on disk, after the
        # uij definition in scaled mode, and no edge or coupling rows
        lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
        run("lattice", "--kind", "square", "--dims", "4x4", "--boundary", "periodic",
            "--coupling", "1.0,0.7,0.4", "--field", "0.3,0,0.5", "--out", str(lf))
        doc = json.dumps(json.loads(lf.read_bytes()), indent=1)
        crlf.write_bytes(doc.replace("\n", "\r\n").encode())
        uij = ["// uij(tau) a, b is the target-defined interaction exp(-i tau H_ab):"]
        for mode, definition in (("scaled", uij), ("decomposed", [])):
            bodies = []
            for path in (lf, crlf):
                out = path.with_suffix(f".{mode}.qasm")
                res = run("synth", "--model", str(path), "--steps", "2", "--time", "1",
                          "--mode", mode, "--emit", "qasm", "--out", str(out))
                assert res.exit_code == 0, res.output
                header, body = out.read_text().split("qubit[", 1)
                assert header.splitlines()[2:] == definition + [
                    f"// model sha256={hashlib.sha256(path.read_bytes()).hexdigest()}",
                    "",
                ]
                bodies.append(body)
            assert bodies[0] == bodies[1]


class TestEstimate:
    def test_odd_site_count_with_unequal_classes_exits_two(self):
        # n*K/2 = 5 edges cannot fill the 2 classes that order 2 runs unequally
        # often, and 7.5 edges no classes at all; the report's one message
        # names the command line's remedy beside the library's
        for k, order, why in (("2", "2", "5 edges per sweep do not split evenly over K "
                                         "classes that this schedule runs unequally often"),
                              ("3", "1", "n*K/2 = 7.5 is no whole number of edges")):
            res = run("estimate", "--n", "5", "--classes", k, "--order", order,
                      "--epsilon", "0.01", "--time", "1")
            assert res.exit_code == 2, res.output
            assert res.stderr == (f"error: n=5 and K={k} give no class sizes: {why}; a model's "
                                  "coloring gives each class its own edges (edge_cnots, or "
                                  "estimate --model)\n")

    def test_stage_limit_is_not_a_class_size_error(self, memory_cap):
        # an order-40 formula on two classes has 3.8e13 stages per step; the
        # report's own message reaches the user, not a class-size one
        res = run("estimate", "--n", "4", "--classes", "2", "--order", "40",
                  "--epsilon", "0.01", "--time", "1")
        assert res.exit_code == 2, res.output
        assert res.stderr == ("error: an order-40 formula on K=2 classes takes more than "
                              "1000000 stages per step\n")

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

    def test_slope_times_the_schedule(self):
        # K s t = 1.0 at order 1 with t_inf = 0; with t_inf = 1 each of the
        # 300 stages adds 1.0
        for t_inf, want in (("0", 1.0), ("1", 301.0)):
            res = run("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                      "--time", "1.0", "--t-inf", t_inf, "--slope", "0.5")
            assert res.exit_code == 0, res.output
            doc = json.loads(res.stdout)
            assert doc["simulation_time"] == want
            assert set(doc) == {"order", "m", "interaction_gates", "cnots", "depth",
                                "simulation_time", "assumptions"}
            assert f"simulation time    {want}" in res.stderr

    def test_slope_at_order_four_counts_the_backward_step(self):
        res = run("estimate", "--n", "16", "--classes", "4", "--order", "4", "--epsilon",
                  "0.01", "--time", "1", "--t-inf", "0", "--slope", "1")
        assert res.exit_code == 0, res.output
        stages = expand(formula_for_order(4, 4), 36, 1.0)
        assert json.loads(res.stdout)["simulation_time"] == pytest.approx(
            sum(abs(s.tau) for s in stages), rel=0, abs=1e-12)

    def test_compare_orders_with_slope(self):
        res = run("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                  "--time", "1.0", "--compare-orders", "1,2,4", "--t-inf", "0",
                  "--slope", "1")
        assert res.exit_code == 0, res.output
        lines = res.stdout.splitlines()
        assert lines[:3] == ["order,m,N,T", "1,150,600,2.0", "2,57,230,2.0"]
        assert lines[3].startswith("4,11,222,3.8028")
        assert float(lines[3].split(",")[3]) == pytest.approx(
            sum(abs(s.tau) for s in expand(formula_for_order(4, 2), 11, 1.0)), abs=1e-12)

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

    @pytest.mark.parametrize("coupling", ["1.0", "0.0"])
    def test_overflowing_bound_exits_two(self, tmp_path, coupling):
        # the bound's t^2 overflows at t = 1e200 (and is nan times a zero J),
        # while the stage durations and the exact evolution stay finite
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--coupling", coupling,
            "--out", str(model))
        res = run("verify", "--model", str(model), "--order", "1", "--time", "1e200")
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert res.stderr == "error: the first-order error bound overflows a float: t=1e+200\n"

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

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_nonfinite_time_exits_two(self, tmp_path, t):
        model = tmp_path / "chain3.json"
        run("lattice", "--kind", "chain", "--dims", "3", "--out", str(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run("verify", "--model", str(model), "--m-grid", "2", "--time", t)
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: t must be finite, got {t}\n"

    def test_jobs_is_not_listed(self):
        # the grid is measured serially; --jobs is still accepted, and ignored
        res = run("verify", "--help")
        assert res.exit_code == 0
        assert "--m-grid" in res.stdout
        assert "--jobs" not in res.stdout


def _verify_rows(text: str) -> list[tuple[int, float]]:
    return [(int(m), float(err)) for m, err, _, _ in
            (row.split(",") for row in text.splitlines()[1:])]


def _lapack_errors(path, order: int, t: float, ms) -> list[float]:
    model = model_from_json(Path(path).read_text())
    col = color_model(model)
    f = formula_for_order(order, col.num_classes)
    reference = exact_evolution(model, t)
    return [float(np.linalg.norm(formula_unitary(model, col, f, m, t) - reference, 2))
            for m in ms]


_coefficient = st.floats(-1.5, 1.5)


@st.composite
def _verify_cases(draw):
    """A random model of at most 6 sites, with anisotropy and fields, and a grid."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    edges = [(i, j, draw(st.tuples(_coefficient, _coefficient, _coefficient)))
             for i, j in chosen]
    touched = {s for pair in chosen for s in pair}  # a field needs an edge to live on
    fields = [draw(st.tuples(_coefficient, _coefficient, _coefficient)) if s in touched
              else (0.0, 0.0, 0.0) for s in range(n)]
    order = draw(st.sampled_from([1, 2, 4]))
    grid = draw(st.lists(st.integers(1, 32), min_size=1, max_size=5))
    return n, edges, fields, order, grid, draw(st.floats(0.05, 2.0))


_XYZ_CHAIN4 = [(0, 1, (1.0, 0.5, -0.3)), (1, 2, (0.8, 0.8, 0.8)), (2, 3, (1.0, -0.7, 0.2))]


class TestVerifyNorm:
    """verify's errors are the LAPACK norm, with one norm block carried over the grid."""

    @given(case=_verify_cases())
    @example(case=(4, _XYZ_CHAIN4, [(0.3, 0.0, 0.5)] * 4, 2, [2, 2], 0.9))
    @example(case=(4, _XYZ_CHAIN4, [(0.3, -0.2, 0.5)] * 4, 4, [16, 4, 8, 4], 1.3))
    @example(case=(6, [(i, i + 1, (1.0, 1.0, 1.0)) for i in range(5)], [(0.5, 0.0, 0.3)] * 6,
                   1, [4, 8, 16, 32, 8], 1.0))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_error_is_the_lapack_norm(self, tmp_path, case):
        n, edges, fields, order, grid, t = case
        model = from_edges(n, [(i, j, CouplingTensor.diagonal(*c)) for i, j, c in edges],
                           site_fields=fields)
        path = tmp_path / "model.json"
        path.write_text(model_to_json(model))
        res = run("verify", "--model", str(path), "--order", str(order),
                  "--m-grid", ",".join(map(str, grid)), "--time", repr(t))
        assert res.exit_code == 0, res.output
        rows = _verify_rows(res.stdout)
        assert [m for m, _ in rows] == grid
        # roundoff splits a top multiplet wider than the norm's block (a
        # one-class formula's error, or a symmetric error times the identity on
        # untouched sites) by about 2^n eps; the iteration resolves that
        # multiplet only to its width, so an absolute floor of 2^n eps applies
        floor = 2**n * np.finfo(float).eps
        for (m, got), want in zip(rows, _lapack_errors(path, order, t, grid)):
            assert abs(got - want) <= 1e-9 * want + floor, (m, got, want)

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
    def test_first_point_is_the_seeded_norm_bit_for_bit(self, tmp_path, seed):
        path = tmp_path / "chain6.json"
        run("lattice", "--kind", "chain", "--dims", "6", "--field", "0.5,0,0.3",
            "--out", str(path))
        res = run("--seed", str(seed), "verify", "--model", str(path),
                  "--order", "2", "--m-grid", "4,8")
        assert res.exit_code == 0, res.output
        model = model_from_json(path.read_text())
        col = color_model(model)
        diff = (formula_unitary(model, col, formula_for_order(2, col.num_classes), 4, 1.0)
                - exact_evolution(model, 1.0))
        first = res.stdout.splitlines()[1].split(",")[1]
        assert first == format_float(seeded_norm(diff, seed))

    def test_carried_block_cuts_the_sweeps(self, tmp_path, caplog):
        # the chain-check benchmark's model: 23 sweeps cold, then a handful
        path = tmp_path / "chain9.json"
        run("lattice", "--kind", "chain", "--dims", "9", "--coupling", "1.0",
            "--field", "0.5,0,0.3", "--out", str(path))
        with caplog.at_level(logging.INFO, logger="trottersmith.oracle"):
            res = run("verify", "--model", str(path), "--order", "2", "--m-grid", "4,8,16,32")
        assert res.exit_code == 0, res.output
        log = [r.args for r in caplog.records if r.name == "trottersmith.oracle"]
        assert [start for _, start in log] == ["seeded", "carried", "carried", "carried"]
        assert all(sweeps <= 10 for sweeps, _ in log[1:])

    @pytest.mark.parametrize("dims,coupling,field,order,grid,t", [
        ("9", "1.0", "0.5,0,0.3", "2", "4,8,16,32,64", "10"),
        ("9", "1.0", "0.5,0,0.3", "2", "4,8,16,32,64", "50"),
        ("8", "30", "30,0,15", "1", "4,8,16,32,64", "1"),
        ("8", "30", "30,0,15", "2", "4,8,16,32,64", "1"),
        ("7", "30", "30,0,15", "1", "4,8,16", "1"),
    ], ids=["chain9-t10", "chain9-t50", "chain8-J30-order1", "chain8-J30-order2",
            "chain7-J30"])
    def test_errors_near_the_ceiling_fall_back_to_lapack(self, tmp_path, caplog, dims,
                                                         coupling, field, order, grid, t):
        # ||U - R|| <= 2, and near 2 the top singular values cluster
        path = tmp_path / "chain.json"
        run("lattice", "--kind", "chain", "--dims", dims, "--coupling", coupling,
            "--field", field, "--out", str(path))
        with caplog.at_level(logging.INFO, logger="trottersmith.oracle"):
            res = run("verify", "--model", str(path), "--order", order, "--m-grid", grid,
                      "--time", t)
        assert res.exit_code == 0, res.output
        assert "LAPACK fallback" in caplog.text
        # the 200-sweep budget sits above every trusted stop measured, and
        # these clustered errors give up at it
        assert "did not settle within 200 sweeps" in caplog.text
        rows = _verify_rows(res.stdout)
        for (m, got), want in zip(rows, _lapack_errors(path, int(order), float(t),
                                                       [m for m, _ in rows])):
            assert got <= 2.0
            assert abs(got - want) <= 1e-9 * want, (m, got, want)

    def test_zero_time_reports_zero_error(self, tmp_path):
        path = tmp_path / "chain9.json"
        run("lattice", "--kind", "chain", "--dims", "9", "--coupling", "1.0",
            "--field", "0.5,0,0.3", "--out", str(path))
        res = run("verify", "--model", str(path), "--order", "1", "--m-grid", "4,8,16,32",
                  "--time", "0")
        assert res.exit_code == 0, res.output
        assert res.stdout.splitlines()[1:] == [f"{m},0.0,0.0,1" for m in (4, 8, 16, 32)]
        assert res.stderr == "slope=nan\n"


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

    @pytest.mark.parametrize("args", [
        ("synth", "--steps", "1", "--time", "10"),
        ("synth", "--steps", "1", "--time", "10", "--mode", "scaled"),
        ("verify", "--m-grid", "1", "--time", "10"),
        ("estimate", "--epsilon", "0.01", "--time", "10"),
    ], ids=["synth-decomposed", "synth-scaled", "verify", "estimate"])
    def test_overflowing_stage_durations_exit_two(self, tmp_path, args):
        # 1e308 is a finite factor, but 10 * 1e308 is not; the duration is
        # refused where it is formed, before numpy warns on it
        path = tmp_path / "pw.json"
        path.write_text(model_to_json(build_lattice(
            "chain", 3, profile=TimeProfile("piecewise", (1e308,)))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(args[0], "--model", str(path), *args[1:])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert "overflows a float" in res.stderr


class TestExitCodes:
    def test_internal_failure_is_exit_one(self, chain4_file, monkeypatch):
        import trottersmith.cli as cli_mod

        def boom(model):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod.coloring_mod, "color_model", boom)
        res = run("color", "--model", str(chain4_file))
        assert res.exit_code == 1
        assert "internal error: RuntimeError" in res.stderr


class TestSizeLimits:
    """A formula or schedule too large for memory is bad input, refused
    before anything is allocated; a model's stated n sizes nothing."""

    @pytest.mark.parametrize("args", [
        ("verify", "--order", "40"),
        ("synth", "--order", "40", "--steps", "1", "--time", "1"),
        ("estimate", "--order", "40", "--epsilon", "0.01", "--time", "1"),
        ("synth", "--steps", "99999999999999999999", "--time", "1"),
        ("synth", "--epsilon", "1e-300", "--order", "2", "--time", "1"),
        ("verify", "--m-grid", "99999999999999999999"),
        ("verify", "--order", "1000"),
    ], ids=lambda args: " ".join(args))
    def test_stage_limit_exits_two(self, chain4_file, memory_cap, args):
        res = run(args[0], "--model", str(chain4_file), *args[1:])
        assert res.exit_code == 2, res.output
        assert "internal error" not in res.stderr
        assert re.fullmatch(r"error: (an order-\d+ formula on K=2 classes takes more than "
                            r"1000000 stages per step|m=\d+ steps of \d stages exceed 1000000 "
                            r"stages)\n", res.stderr), res.stderr

    def test_plan_builds_no_schedule(self, chain4_file):
        res = run("plan", "--model", str(chain4_file), "--order", "40", "--epsilon", "0.01",
                  "--time", "1")
        assert res.exit_code == 0, res.output
        assert json.loads(res.stdout)["m"] == 3

    @pytest.mark.parametrize("n", [10**8, 10**12, 10**20])
    def test_stated_site_count_does_not_size_the_colorer(self, tmp_path, memory_cap, n):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": n, "edges": [{"i": 0, "j": 1, "J": np.eye(3).tolist()}]}))
        for args in (("color",), ("plan", "--epsilon", "0.01", "--time", "1"),
                     ("synth", "--steps", "1", "--time", "1")):
            res = run(args[0], "--model", str(path), *args[1:])
            assert res.exit_code == 0, res.output
        assert json.loads(run("color", "--model", str(path)).stdout)["classes"] == [[0]]


class TestListOptions:
    """Comma-separated option values: an empty item is bad input, never skipped."""

    @pytest.mark.parametrize("option,args", [
        ("--dims", ("lattice", "--kind", "square", "--dims", "4x4x")),
        ("--field", ("lattice", "--kind", "chain", "--dims", "4", "--field", "1,,2,3")),
        ("--field", ("lattice", "--kind", "chain", "--dims", "4", "--field", "")),
        ("--coupling", ("lattice", "--kind", "chain", "--dims", "4", "--coupling", ",1,1,1")),
        ("--coupling", ("lattice", "--kind", "chain", "--dims", "4", "--coupling", "")),
        ("--m-grid", ("verify", "--model", "{model}", "--m-grid", "2,,4")),
        ("--compare-orders", ("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                              "--time", "1", "--compare-orders", "1,,2")),
        ("--compare-orders", ("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01",
                              "--time", "1", "--compare-orders", "")),
    ], ids=["dims-trailing", "field-inner", "field-blank", "coupling-leading", "coupling-blank",
            "m-grid-inner",
            "compare-orders-inner", "compare-orders-blank"])
    def test_empty_item_exits_two(self, chain4_file, option, args):
        res = run(*(a.format(model=chain4_file) for a in args))
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        assert f"{option} has an empty item in " in res.stderr

    @pytest.mark.parametrize("option,value,message", [
        ("--dims", "4,a", "--dims takes int items, got '4,a'"),
        ("--coupling", "a", "--coupling takes float items, got 'a'"),
        ("--coupling", "1,2", "--coupling needs 1 or 3 comma-separated values, got '1,2'"),
        ("--field", "1,2", "--field needs 3 comma-separated values, got '1,2'"),
    ])
    def test_bad_item_names_the_option(self, option, value, message):
        res = run("lattice", "--kind", "chain", "--dims", "4", option, value)
        assert res.exit_code == 2
        assert message in res.stderr

    def test_full_lists_still_parse(self, tmp_path):
        res = run("lattice", "--kind", "square", "--dims", "2x3", "--coupling", "1,0.5,0.25",
                  "--field", "0.1,0,0.2")
        assert res.exit_code == 0, res.output
        doc = json.loads(res.stdout)
        assert doc["n"] == 6
        res = run("estimate", "--n", "4", "--classes", "2", "--epsilon", "0.01", "--time", "1",
                  "--compare-orders", "1,2")
        assert res.exit_code == 0, res.output
        assert res.stdout.splitlines()[0] == "order,m,N,T"
        assert [row.split(",")[0] for row in res.stdout.splitlines()[1:]] == ["1", "2"]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "K", "classes", "edges", "gates", "layers", "i",
                                       "j", "J", "kind", "qubits", "profile", "depth"]),
                      inner, max_size=5),
    max_leaves=12,
)


_I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
_I4_PAIRS = [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]
# each document with one number x in it; x = 1 gives a document that loads
_NUMBER_DOCS = {
    ("model", "J"): lambda x: {"n": 2, "edges": [{"i": 0, "j": 1,
                                                  "J": [[1, 0, 0], [0, x, 0], [0, 0, 1]]}]},
    ("model", "hi"): lambda x: {"n": 2, "edges": [{"i": 0, "j": 1, "J": _I3, "hi": [0, x, 0]}]},
    ("model", "hj"): lambda x: {"n": 2, "edges": [{"i": 0, "j": 1, "J": _I3, "hj": [0, 0, x]}]},
    ("model", "factor"): lambda x: {"n": 2, "edges": [{"i": 0, "j": 1, "J": _I3}],
                                    "profile": {"kind": "piecewise", "factors": [1.0, x]}},
    ("circuit", "angle"): lambda x: {"n": 1, "gates": [{"kind": "rz", "qubits": [0],
                                                        "angle": x}], "layers": [[0]]},
    ("circuit", "tau"): lambda x: {"n": 2, "gates": [{"kind": "uij", "qubits": [0, 1],
                                                      "matrix": _I4_PAIRS, "tau": x}],
                                   "layers": [[0]]},
    ("circuit", "matrix"): lambda x: {"n": 1, "gates": [{"kind": "u1q", "qubits": [0], "matrix": [
        [[x, 0], [0, 0]], [[0, 0], [1, 0]]]}], "layers": [[0]]},
}


class TestLoaderContract:
    @pytest.mark.parametrize("value", [True, "0.5", math.nan, math.inf, -math.inf],
                             ids=["true", "str", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("what, field", list(_NUMBER_DOCS),
                             ids=["-".join(key) for key in _NUMBER_DOCS])
    def test_every_json_number_is_checked(self, tmp_path, what, field, value):
        make = _NUMBER_DOCS[what, field]
        loader = {"model": model_from_json, "circuit": circuit_from_json}[what]
        loader(json.dumps(make(1)))
        text = json.dumps(make(value))  # Python's json writes and reads NaN
        with pytest.raises(ValueError):
            loader(text)
        if what == "circuit":
            return  # no command reads a circuit
        path = tmp_path / "model.json"
        path.write_text(text)
        res = run("color", "--model", str(path))
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith("error: ")

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

    def test_string_beside_huge_int_is_not_a_number(self, tmp_path):
        # NumPy keeps this row as objects, and float() would read "0.5" from it
        text = json.dumps({"n": 2, "edges": [{"i": 0, "j": 1, "J": [["0.5", 2**64, 0],
                                                                   [0, 1, 0], [0, 0, 1]]}]})
        with pytest.raises(ValueError, match="coupling tensor entries must be a real number, "
                                             "got '0.5'"):
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


    @pytest.mark.parametrize("what, edit, key", [
        ("circuit", lambda d: d["gates"][0].update(tua=d["gates"][0].pop("tau")), "tua"),
        ("circuit", lambda d: d.update(dpeth=d.pop("depth")), "dpeth"),
        ("model", lambda d: d["edges"][-1].update(h_i=[5, 0, 0]), "h_i"),
        ("model", lambda d: d.update(profle={"kind": "piecewise", "factors": [1.0]}), "profle"),
        ("model", lambda d: d["profile"].update(factor=[1.0]), "factor"),
        ("coloring", lambda d: d.update(k=d.pop("K")), "k"),
    ], ids=["gate-tau", "circuit-depth", "model-edge-field", "model-profile",
            "profile-factors", "coloring-k"])
    def test_unknown_fields_are_rejected(self, tmp_path, chain4_file, what, edit, key):
        # a loader reads only the fields it knows; a misspelled one used to
        # load as if absent (a uij gate with no tau, a constant profile, ...)
        model = model_from_json(chain4_file.read_text())
        col = color_model(model)
        text = {
            "circuit": lambda: circuit_to_json(build_trotter_circuit(
                model, col, formula_for_order(1, col.num_classes), 1, 1.0, mode="scaled")),
            "model": lambda: chain4_file.read_text(),
            "coloring": lambda: coloring_to_json(col),
        }[what]()
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
        loader = {"circuit": circuit_from_json, "model": model_from_json,
                  "coloring": coloring_from_json}[what]
        with pytest.raises(ValueError, match=f"has unknown field '{key}'"):
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
        assert f"has unknown field '{key}'" in res.stderr

    @pytest.mark.parametrize("what, doc, message", [
        ("model", {"n": 1, "edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]},
         "model needs at least 2 sites, got n=1"),
        ("model", {"n": 2, "edges": []}, "model has no edges"),
        ("model", {"n": 2, "edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
                   "profile": {"kind": "piecewise", "factors": [float("nan")]}},
         "profile factors must be finite"),
        ("model", {"n": 2, "edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
                   "profile": {"kind": "ramp", "factors": [1.0, 2.0]}},
         "unknown profile kind 'ramp'"),
        ("model", {"n": 2, "edges": [{"i": 0, "j": 1, "J": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
                   "profile": {"kind": "constant", "factors": [1.0, 2.0]}},
         "constant profile takes no factor table"),
        ("coloring", {"n": 4, "classes": [[0, 2], [], [1]]}, "coloring contains an empty class"),
        ("coloring", {"n": 4, "classes": [[0, 2], [1, 3]]}, "class 2 references unknown edge index 3"),
    ], ids=["model-one-site", "model-no-edges", "model-nan-factor", "model-unknown-profile-kind",
            "model-constant-profile-with-table", "coloring-empty-class",
            "coloring-edge-past-model"])
    def test_out_of_range_documents_exit_two(self, tmp_path, chain4_file, what, doc, message):
        path = tmp_path / f"{what}.json"
        path.write_text(json.dumps(doc))  # Python's json writes and reads NaN
        if what == "model":
            res = run("color", "--model", str(path))
        else:
            res = run("synth", "--model", str(chain4_file), "--coloring", str(path),
                      "--steps", "1", "--time", "1.0")
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {message}\n"


def _readme_commands() -> list[list[str]]:
    """Each ``trottersmith`` line of README's usage blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("trottersmith ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    # the README's walkthrough in order, so later commands read earlier files
    commands = _readme_commands()
    assert len(commands) >= 8
    assert any(cmd[0] == "estimate" for cmd in commands)
    monkeypatch.chdir(tmp_path)
    for cmd in commands:
        res = run(*cmd)
        assert res.exit_code == 0, (cmd, res.output)
