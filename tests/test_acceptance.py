"""Acceptance gate: one test per shipped claim, with stated tolerances.

Each test prints its measured values; run with -v for one pass/fail line
per criterion.  Runtime budgets are asserted where the claim carries one.
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np
from click.testing import CliRunner

from trottersmith import (
    GateTimingModel,
    StepPlan,
    audit,
    build_lattice,
    build_trotter_circuit,
    circuit_unitary,
    color_model,
    counts,
    expand,
    first_order,
    first_order_error_bound,
    formula_for_order,
    report_for_plan,
    steps_for_accuracy,
    synth_edge,
)
from trottersmith.cli import main as cli_main
from trottersmith.coloring import validate
from trottersmith.oracle import formula_unitary, trotter_error
from trottersmith.resources import first_order_gate_closed_form

from conftest import (
    PAULIS,
    class_edge_cnots,
    dist_up_to_phase,
    fragment_unitary,
    op_norm,
    ref_edge_hamiltonian,
    ref_edge_terms,
    ref_expm,
)

M_GRID = (4, 8, 16, 32, 64)


def all_builtin_lattices_up_to_8():
    specs = [("chain", n, "open") for n in range(2, 9)]
    specs += [("chain", n, "periodic") for n in range(3, 9)]
    specs += [("square", d, "open") for d in [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]]
    specs += [("hexagonal", d, "open") for d in [(1, 1), (2, 1), (1, 2), (2, 2)]]
    specs += [("hexagonal", (2, 2), "periodic")]
    return [(k, d, b, build_lattice(k, d, b)) for k, d, b in specs]


def test_criterion_1_chromatic_indices():
    start = time.perf_counter()
    expected = {
        ("chain", 6, "open"): 2,
        ("chain", 6, "periodic"): 2,
        ("square", (4, 4), "periodic"): 4,
        ("hexagonal", (2, 2), "periodic"): 3,
    }
    got = {}
    for (kind, dims, boundary), want in expected.items():
        model = build_lattice(kind, dims, boundary)
        coloring = color_model(model)
        validate(model, coloring)
        got[(kind, dims, boundary)] = coloring.num_classes
        assert coloring.num_classes == want, (kind, dims, boundary)
    elapsed = time.perf_counter() - start
    print(f"chromatic indices {got} in {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_2_commuting_classes():
    start = time.perf_counter()
    worst_within = 0.0
    worst_ratio = 0.0
    for kind, dims, boundary, model in all_builtin_lattices_up_to_8():
        coloring = color_model(model)
        validate(model, coloring)
        n = model.n
        dense = ref_edge_terms(model)
        class_sums = []
        for cls in coloring.classes:
            for a, b in itertools.combinations(cls, 2):
                comm = dense[a] @ dense[b] - dense[b] @ dense[a]
                worst_within = max(worst_within, op_norm(comm))
            class_sums.append(sum(dense[e] for e in cls))
        bound = 0.75 * n * model.j_max**2
        for ha, hb in itertools.combinations(class_sums, 2):
            val = op_norm(ha @ hb - hb @ ha)
            worst_ratio = max(worst_ratio, val / bound)
            assert val <= bound, (kind, dims, boundary)
    elapsed = time.perf_counter() - start
    print(
        f"worst within-class commutator {worst_within:.3e}, "
        f"worst class-pair fraction of (3/4)nJ^2 = {worst_ratio:.3f}, {elapsed:.1f}s"
    )
    assert worst_within <= 1e-12
    assert elapsed < 30.0


def test_criterion_3_synthesis_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(0xC0FFEE)
    worst_general = 0.0
    for _ in range(200):
        jmat = rng.standard_normal((3, 3))
        h_i = rng.standard_normal(3)
        h_j = rng.standard_normal(3)
        tau = float(rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0]))
        circ = synth_edge(jmat, h_i, h_j, tau)
        assert counts(circ)["cx"] == 6
        target = ref_expm(
            ref_edge_hamiltonian(0, 1, 2, jmat, h_i, h_j), -1j * tau
        )
        worst_general = max(
            worst_general, dist_up_to_phase(fragment_unitary(circ.layers), target)
        )
    ss = sum(np.kron(p, p) for p in PAULIS) / 4.0
    exchange = (np.eye(3), np.zeros(3), np.zeros(3))
    worst_heis = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(0.05, math.pi) * rng.choice([-1.0, 1.0]))
        circ = synth_edge(*exchange, alpha)
        assert counts(circ)["cx"] == 3
        target = ref_expm(ss, -1j * alpha)
        worst_heis = max(
            worst_heis, dist_up_to_phase(fragment_unitary(circ.layers), target)
        )
    elapsed = time.perf_counter() - start
    print(
        f"synthesis error: general {worst_general:.3e} (6 CNOTs), "
        f"heisenberg {worst_heis:.3e} (3 CNOTs), {elapsed:.1f}s"
    )
    assert worst_general < 1e-9
    assert worst_heis < 1e-9
    assert elapsed < 10.0


def test_criterion_4_convergence_orders():
    start = time.perf_counter()
    model = build_lattice("chain", 6)
    coloring = color_model(model)
    windows = {1: (-1.0, 0.15), 2: (-2.0, 0.2), 4: (-4.0, 0.3)}
    slopes = {}
    for order, (center, tol) in windows.items():
        formula = formula_for_order(order, coloring.num_classes)
        errors = [
            trotter_error(model, coloring, formula, m, 1.0) for m in M_GRID
        ]
        slope = float(
            np.polyfit(np.log(np.asarray(M_GRID, float)), np.log(errors), 1)[0]
        )
        slopes[order] = slope
        assert abs(slope - center) <= tol, (order, slope, errors)
    elapsed = time.perf_counter() - start
    print(
        "fitted slopes "
        + ", ".join(f"order {o}: {s:+.3f}" for o, s in slopes.items())
        + f", {elapsed:.1f}s"
    )
    assert elapsed < 120.0


def test_criterion_5_first_order_bound_dominance():
    margins = []
    for model in (build_lattice("chain", 6), build_lattice("square", (2, 3))):
        coloring = color_model(model)
        formula = first_order(coloring.num_classes)
        for m in M_GRID:
            err = trotter_error(model, coloring, formula, m, 1.0)
            bound = first_order_error_bound(
                coloring.num_classes, model.n, model.j_max, 1.0, m
            )
            assert err <= bound, (model.lattice, m, err, bound)
            margins.append(err / bound)
    print(f"error/bound ratios span [{min(margins):.3f}, {max(margins):.3f}]")


def test_criterion_6_resource_audit_square_lattice():
    model = build_lattice("square", (4, 4), "periodic")
    coloring = color_model(model)
    formula = first_order(4)
    plan = StepPlan(m=10, order=1, bound_used="user", num_classes=4, t=1.0)

    scaled = build_trotter_circuit(model, coloring, formula, 10, 1.0, mode="scaled")
    tally = counts(scaled)
    assert tally["interaction"] == 10 * 16 * 4 // 2 == 320
    assert tally["depth"] == 10 * 4 == 40
    assert audit(report_for_plan(plan, 16), scaled) == []

    decomposed = build_trotter_circuit(
        model, coloring, formula, 10, 1.0, mode="decomposed"
    )
    cx = counts(decomposed)["cx"]
    assert cx == 3 * 320 == 960
    assert audit(report_for_plan(plan, 16, heisenberg=True), decomposed) == []
    print(f"interaction={tally['interaction']} depth={tally['depth']} cnots={cx}")


def test_criterion_7_worked_estimate():
    rep = report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.01), 4)
    assert rep.m == 150
    assert rep.interaction_gates == 600
    closed = first_order_gate_closed_form(2, 4, 1.0, 1.0, 0.01)
    assert closed == rep.m * 4 * 2 / 2 == 600.0

    # with t_inf = 0 the first-order scaled-gate time depends only on (K, s, t)
    timing = GateTimingModel(t_inf=0, s=0.5)
    times = {report_for_plan(steps_for_accuracy(1, 2, n, 1.0, 2.0, eps), n,
                             timing=timing).simulation_time
             for n, eps in [(4, 0.01), (8, 0.01), (4, 1e-4), (12, 1e-6)]}
    assert times == {2.0}
    print(f"m={rep.m} N={rep.interaction_gates} closed_form={closed} scaled_time=2.0")


def test_criterion_7c_scaled_time_runs_the_schedule():
    # every stage takes t_inf + s |tau|; Suzuki's backward middle step makes
    # the order-4 schedule run each class for more than t in total
    timing = GateTimingModel(t_inf=0, s=1.0)
    times = {}
    for order in (1, 2, 4, 6):
        plan = steps_for_accuracy(order, 4, 16, 1.0, 1.0, 0.01)
        times[order] = report_for_plan(plan, 16, timing=timing).simulation_time
        total = sum(abs(st.tau) for st in expand(formula_for_order(order, 4), plan.m, 1.0))
        assert abs(times[order] - total) <= 1e-12, (order, times[order], total)
        if order == 4:
            assert plan.m == 36
    assert times[1] == times[2] == 4.0
    assert 8.4347 < times[4] < 8.4348
    assert 16.4296 < times[6] < 16.4297
    print("K=4 scaled time: " + ", ".join(f"order {o}: {x:.4f}" for o, x in times.items()))


def test_criterion_7b_exact_report_at_every_order():
    # the report counts the merged schedule that expand builds, so audit
    # demands equality at every order, in both modes
    cases = [
        ("torus-4x4", build_lattice("square", (4, 4), "periodic"), (1, 2, 4)),
        ("chain-6-field", build_lattice("chain", 6, field=(0.5, 0.0, 0.3)), (1, 2, 4)),
        ("chain-2", build_lattice("chain", 2), (1, 2)),
    ]
    for name, model, orders in cases:
        coloring = color_model(model)
        edge_cnots = class_edge_cnots(model, coloring)
        for order in orders:
            planned = steps_for_accuracy(order, coloring.num_classes, model.n, model.j_max,
                                         1.0, 0.01)
            fixed = StepPlan(m=4, order=order, bound_used="user",
                             num_classes=coloring.num_classes, t=1.0)
            formula = formula_for_order(order, coloring.num_classes)
            for plan in (planned, fixed):
                report = report_for_plan(plan, model.n, edge_cnots=edge_cnots)
                for mode in ("scaled", "decomposed"):
                    circ = build_trotter_circuit(model, coloring, formula, plan.m, 1.0,
                                                 mode=mode)
                    tally = counts(circ)
                    assert audit(report, circ) == [], (name, order, plan.m, mode)
                    if mode == "scaled":
                        assert (tally["interaction"], tally["depth"]) == (
                            report.interaction_gates, report.depth), (name, order, plan.m)
                    else:
                        assert tally["cx"] == report.cnots, (name, order, plan.m)
                print(f"{name} order={order} m={plan.m} N={report.interaction_gates} "
                      f"depth={report.depth} cx={report.cnots}")
                if name == "torus-4x4" and order == 4 and plan is planned:
                    assert (plan.m, report.interaction_gates, report.depth) == (36, 8648, 1081)


def test_criterion_8_end_to_end_equivalence():
    model = build_lattice("chain", 6)
    coloring = color_model(model)
    formula = first_order(coloring.num_classes)
    reference = formula_unitary(model, coloring, formula, 8, 1.0)
    dists = {}
    for mode in ("decomposed", "scaled"):
        circ = build_trotter_circuit(model, coloring, formula, 8, 1.0, mode=mode)
        dists[mode] = op_norm(circuit_unitary(circ) - reference)
        assert dists[mode] <= 1e-9, (mode, dists[mode])
    print(
        "distance to stage-exponential product: "
        + ", ".join(f"{k}={v:.3e}" for k, v in dists.items())
    )


def test_criterion_9_verify_determinism(tmp_path):
    runner = CliRunner()
    model_path = tmp_path / "chain6.json"
    res = runner.invoke(
        cli_main,
        ["lattice", "--kind", "chain", "--dims", "6", "--out", str(model_path)],
    )
    assert res.exit_code == 0, res.output
    payloads = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        res = runner.invoke(
            cli_main,
            ["--seed", "12345", "verify", "--model", str(model_path),
             "--time", "1.0", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    print(f"verify CSV is {len(payloads[0])} bytes, byte-identical across runs")
