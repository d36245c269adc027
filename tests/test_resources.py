"""Cost estimators, the closed-form gate count, and report audits."""
from __future__ import annotations

import math

import pytest

from trottersmith import (
    CouplingTensor,
    GateTimingModel,
    ResourceReport,
    StepPlan,
    TimeProfile,
    audit,
    build_lattice,
    build_trotter_circuit,
    color_model,
    counts,
    estimate_scaled,
    first_order,
    formula_for_order,
    from_edges,
    report_for_plan,
    steps_for_accuracy,
)
from trottersmith.resources import first_order_gate_closed_form

from conftest import class_edge_cnots


class TestTimingModel:
    def test_defaults(self):
        tm = GateTimingModel()
        assert tm.t_inf == 1.0
        assert tm.s == 0.0

    def test_rejects_negative_and_all_zero(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GateTimingModel(t_inf=-1.0)
        with pytest.raises(ValueError, match="positive"):
            GateTimingModel(t_inf=0.0, s=0.0)
        GateTimingModel(t_inf=0.0, s=2.0)

    @pytest.mark.parametrize("name", ["t_inf", "s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            GateTimingModel(**{name: value})


class TestFirstOrderEstimate:
    def test_worked_chain_example(self):
        rep = report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.01), 4)
        assert rep.m == 150
        assert rep.interaction_gates == 600
        assert rep.depth == 300
        assert rep.simulation_time == pytest.approx(300.0)
        assert rep.cnots == 6 * 600
        assert rep.assumptions["bound_used"] == "first_order_explicit"
        assert rep.assumptions["template"] == "general-6cnot"
        assert "c3" not in rep.assumptions

    def test_heisenberg_template_halves_cnots(self):
        rep = report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.01), 4,
                              heisenberg=True)
        assert rep.cnots == 3 * 600 == 1800
        assert rep.assumptions["template"] == "heisenberg-3cnot"

    def test_closed_form_matches_unceiled_count(self):
        assert first_order_gate_closed_form(2, 4, 1.0, 1.0, 0.01) == pytest.approx(600.0)
        # the ceiled estimate can only exceed the closed form
        for eps in (0.01, 0.007, 0.0031):
            rep = report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, eps), 4)
            assert rep.interaction_gates >= first_order_gate_closed_form(
                2, 4, 1.0, 1.0, eps
            ) - 1e-9

    def test_halving_epsilon_doubles_gates(self):
        a = report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.01), 4)
        b = report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.005), 4)
        assert b.m == 2 * a.m
        assert b.interaction_gates == 2 * a.interaction_gates

    def test_edges_per_sweep_corrects_open_boundaries(self):
        # chain on 4 sites has 3 bonds, not n*K/2 = 4
        rep = report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.01), 4,
                              edges_per_sweep=3)
        assert rep.interaction_gates == 150 * 3
        full = report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.01), 4)
        assert full.interaction_gates == 600


class TestHigherOrderEstimate:
    def test_worked_fourth_order_example(self):
        # 11 stages per step, the first and last on class 1, so the m steps
        # of the merged schedule hold 11 m - (m - 1) stages of n/2 = 2 gates
        rep = report_for_plan(steps_for_accuracy(4, 2, 4, 1.0, 1.0, 0.01), 4)
        assert rep.order == 4
        assert rep.m == 11
        assert rep.depth == 11 * 11 - 10 == 111
        assert rep.interaction_gates == 2 * 111 == 222
        assert rep.cnots == 6 * 222
        assert rep.simulation_time == pytest.approx(111.0)
        assert rep.assumptions["bound_used"] == "higher_order_scaling"
        assert rep.assumptions["stages_per_step"] == 11
        assert rep.assumptions["c3"] == rep.assumptions["c4"] == 1.0

    def test_worked_second_order_example(self):
        rep = report_for_plan(steps_for_accuracy(2, 2, 4, 1.0, 1.0, 0.01), 4)
        assert rep.m == 57
        assert rep.depth == 3 * 57 - 56 == 115
        assert rep.interaction_gates == 2 * 115 == 230
        assert rep.assumptions["stages_per_step"] == 3

    def test_bench_lattice_pin(self):
        # the 8x8 periodic square of the benchmark's lattice workload: 4
        # classes of 32 edges, order 2, m=20, 6 CNOTs per gate; its
        # independent pin is cx = 6 * 32 * (6 m + 1)
        plan = StepPlan(m=20, order=2, bound_used="user", num_classes=4, t=1.0)
        rep = report_for_plan(plan, 64, edges_per_sweep=128)
        assert rep.depth == 6 * 20 + 1 == 121
        assert rep.cnots == 6 * 32 * 121 == 23232

    def test_q_validation(self):
        for order in (0, 3, -2):
            with pytest.raises(ValueError, match="order must be 1 or an even integer"):
                steps_for_accuracy(order, 2, 4, 1.0, 1.0, 0.01)


class TestMonotonicity:
    def test_in_time(self):
        reps = [report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, t, 0.01), 4)
                for t in (0.5, 1.0, 2.0, 4.0)]
        for a, b in zip(reps, reps[1:]):
            assert b.interaction_gates >= a.interaction_gates
            assert b.simulation_time >= a.simulation_time

    def test_in_accuracy(self):
        reps = [report_for_plan(steps_for_accuracy(1, 2, 4, 1.0, 1.0, e), 4)
                for e in (0.1, 0.03, 0.01, 0.001)]
        for a, b in zip(reps, reps[1:]):
            assert b.interaction_gates >= a.interaction_gates
            assert b.simulation_time >= a.simulation_time

    def test_in_system_size(self):
        reps = [report_for_plan(steps_for_accuracy(1, 2, n, 1.0, 1.0, 0.01), n)
                for n in (4, 6, 8, 12)]
        for a, b in zip(reps, reps[1:]):
            assert b.interaction_gates >= a.interaction_gates

    def test_in_class_count(self):
        reps = [report_for_plan(steps_for_accuracy(1, k, 8, 1.0, 1.0, 0.01), 8)
                for k in (2, 3, 4)]
        for a, b in zip(reps, reps[1:]):
            assert b.interaction_gates >= a.interaction_gates
            assert b.simulation_time >= a.simulation_time

    def test_higher_order_in_time(self):
        reps = [report_for_plan(steps_for_accuracy(4, 2, 4, 1.0, t, 0.01), 4)
                for t in (1.0, 2.0, 4.0)]
        for a, b in zip(reps, reps[1:]):
            assert b.interaction_gates >= a.interaction_gates


class TestScaledRegime:
    def test_independence_of_everything_but_kst(self):
        assert estimate_scaled(2, 2.0, 2.0) == pytest.approx(8.0)
        assert estimate_scaled(4, 0.5, 3.0) == pytest.approx(6.0)
        assert estimate_scaled(3, 1.0, 0.0) == 0.0

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            estimate_scaled(2, 0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            estimate_scaled(2, -1.0, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_scaled(2, 1.0, -1.0)


class TestReportValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ResourceReport(order=1, m=1, interaction_gates=-1, cnots=0, depth=0,
                           simulation_time=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ResourceReport(order=1, m=1, interaction_gates=0, cnots=0, depth=0,
                           simulation_time=-1.0)


class TestAudit:
    def test_scaled_first_order_pass(self, heis_chain4):
        col = color_model(heis_chain4)
        plan = steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.2)
        circ = build_trotter_circuit(
            heis_chain4, col, first_order(2), plan.m, 1.0, mode="scaled"
        )
        report = report_for_plan(plan, 4, edges_per_sweep=3)
        assert audit(report, circ) == []

    def test_first_order_mismatch_flagged_both_ways(self, heis_chain4):
        col = color_model(heis_chain4)
        plan = steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.2)
        circ = build_trotter_circuit(
            heis_chain4, col, first_order(2), plan.m, 1.0, mode="scaled"
        )
        good = report_for_plan(plan, 4, edges_per_sweep=3)
        for delta in (-1, +1):
            bad = ResourceReport(
                order=good.order,
                m=good.m,
                interaction_gates=good.interaction_gates + delta,
                cnots=good.cnots,
                depth=good.depth,
                simulation_time=good.simulation_time,
            )
            issues = audit(bad, circ)
            assert any("interaction gates" in msg for msg in issues)

    def test_decomposed_checks_cnots(self, heis_chain4):
        col = color_model(heis_chain4)
        plan = steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.75)
        circ = build_trotter_circuit(
            heis_chain4, col, first_order(2), plan.m, 1.0, mode="decomposed"
        )
        report = report_for_plan(plan, 4, heisenberg=True, edges_per_sweep=3)
        assert audit(report, circ) == []

    def test_higher_order_merging_is_not_an_overrun(self, heis_chain4):
        # the report counts the merged schedule, so it matches exactly
        col = color_model(heis_chain4)
        plan = steps_for_accuracy(2, 2, 4, 1.0, 1.0, 0.05)
        f = formula_for_order(2, 2)
        circ = build_trotter_circuit(heis_chain4, col, f, plan.m, 1.0, mode="scaled")
        report = report_for_plan(plan, 4, edge_cnots=class_edge_cnots(heis_chain4, col))
        tally = counts(circ)
        assert (tally["interaction"], tally["depth"]) == (report.interaction_gates,
                                                          report.depth)
        assert audit(report, circ) == []

    def test_higher_order_underrun_flagged(self, heis_chain4):
        col = color_model(heis_chain4)
        plan = steps_for_accuracy(4, 2, 4, 1.0, 1.0, 0.05)
        f = formula_for_order(4, 2)
        circ = build_trotter_circuit(heis_chain4, col, f, plan.m, 1.0, mode="scaled")
        good = report_for_plan(plan, 4, edge_cnots=class_edge_cnots(heis_chain4, col))
        bad = ResourceReport(order=4, m=plan.m, interaction_gates=good.interaction_gates + 1,
                             cnots=good.cnots, depth=good.depth + 1, simulation_time=0.0)
        issues = audit(bad, circ)
        assert any("interaction gates" in msg for msg in issues)
        assert any("depth" in msg for msg in issues)

    def test_higher_order_overrun_still_flagged(self, heis_chain4):
        col = color_model(heis_chain4)
        plan = steps_for_accuracy(2, 2, 4, 1.0, 1.0, 0.05)
        f = formula_for_order(2, 2)
        circ = build_trotter_circuit(heis_chain4, col, f, plan.m, 1.0, mode="scaled")
        measured = counts(circ)["interaction"]
        bad = ResourceReport(
            order=2,
            m=plan.m,
            interaction_gates=measured - 1,
            cnots=6 * (measured - 1),
            depth=10**6,
            simulation_time=0.0,
        )
        issues = audit(bad, circ)
        assert any("interaction gates" in msg for msg in issues)


class TestPerEdgeCnots:
    @pytest.fixture
    def mixed(self):
        # open 3x3 Heisenberg square with a field: 4 plain-exchange edges
        # (3 CNOTs) and 8 edges with a field share (6 CNOTs)
        model = build_lattice("square", (3, 3), field=(0.5, 0.0, 0.3))
        col = color_model(model)
        plan = StepPlan(m=2, order=1, bound_used="user", num_classes=col.num_classes, t=1.0)
        circ = build_trotter_circuit(model, col, first_order(col.num_classes), 2, 1.0)
        return model, plan, circ

    def test_mixed_templates_audit_clean(self, mixed):
        model, plan, circ = mixed
        report = report_for_plan(plan, model.n, edge_cnots=class_edge_cnots(model, color_model(model)))
        assert report.cnots == 120
        assert report.interaction_gates == 2 * len(model.edges)
        assert report.assumptions["template"] == "per-edge"
        assert audit(report, circ) == []
        # one template for every edge over- or under-counts, and audit says so
        for heisenberg in (False, True):
            uniform = report_for_plan(plan, model.n, heisenberg=heisenberg,
                                      edges_per_sweep=len(model.edges))
            assert uniform.cnots == (72 if heisenberg else 144)
            assert audit(uniform, circ) != []

    @pytest.mark.parametrize("model, cx", [
        (build_lattice("chain", 4, coupling=CouplingTensor.heisenberg(0.0), field=(0, 0, 1)), 0),
        (from_edges(3, [(0, 1, CouplingTensor.heisenberg(0.0)),
                        (1, 2, CouplingTensor.heisenberg(1.0))]), 6),
    ], ids=["pure-field-chain", "one-zero-bond"])
    def test_zero_coupling_edges_cost_no_cnots(self, model, cx):
        col = color_model(model)
        plan = StepPlan(m=2, order=1, bound_used="user", num_classes=col.num_classes, t=1.0)
        circ = build_trotter_circuit(model, col, first_order(col.num_classes), 2, 1.0)
        report = report_for_plan(plan, model.n, edge_cnots=class_edge_cnots(model, col))
        assert report.cnots == counts(circ)["cx"] == cx
        assert audit(report, circ) == []

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("field", [None, (0.3, 0.0, 0.5)], ids=["no-field", "field"])
    def test_zero_time_costs_no_cnots(self, order, field):
        # every stage runs for tau = 0; the scaled circuit still holds its
        # tau = 0 uij gates, so interaction gates and depth are unchanged
        model = build_lattice("chain", 4, field=field)
        col = color_model(model)
        plan = StepPlan(m=2, order=order, bound_used="user", num_classes=col.num_classes, t=0.0)
        formula = formula_for_order(order, col.num_classes)
        report = report_for_plan(plan, model.n, edge_cnots=class_edge_cnots(model, col))
        assert report.cnots == 0
        # classes of 2 and 1 edges; order 2 merges the step boundary on class 1
        assert report.interaction_gates == {1: 6, 2: 8}[order]
        for mode in ("decomposed", "scaled"):
            circ = build_trotter_circuit(model, col, formula, 2, 0.0, mode=mode)
            assert counts(circ)["cx"] == 0
            assert audit(report, circ) == []

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_factor_steps_cost_no_cnots(self, order):
        # the profile runs step 1 for tau = 0; the scaled circuit still holds
        # its tau = 0 uij gates, so interaction gates and depth are unchanged
        model = build_lattice("chain", 4, profile=TimeProfile("piecewise", (1.0, 0.0)))
        col = color_model(model)
        plan = StepPlan(m=2, order=order, bound_used="user", num_classes=col.num_classes, t=1.0)
        formula = formula_for_order(order, col.num_classes)
        report = report_for_plan(plan, model.n, edge_cnots=class_edge_cnots(model, col),
                                 profile=model.profile)
        # step 0 only: 3 exchange edges, and at order 2 class 1 ({0, 2}) twice;
        # a piecewise profile merges no stage across the step boundary
        assert report.cnots == {1: 9, 2: 15}[order]
        assert (report.interaction_gates, report.depth) == {1: (6, 4), 2: (10, 6)}[order]
        for mode in ("decomposed", "scaled"):
            circ = build_trotter_circuit(model, col, formula, 2, 1.0, mode=mode)
            assert audit(report, circ) == []

    def test_uniform_counts_unchanged(self, mixed):
        model, plan, _ = mixed
        six = [[6] * len(c) for c in color_model(model).classes]
        a = report_for_plan(plan, model.n, edges_per_sweep=len(model.edges))
        b = report_for_plan(plan, model.n, edge_cnots=six)
        assert (a.interaction_gates, a.cnots, a.depth) == (b.interaction_gates, b.cnots, b.depth)

    def test_conflicting_inputs_rejected(self, mixed):
        model, plan, _ = mixed
        per_class = [[3] * 3] * plan.num_classes
        with pytest.raises(ValueError, match="not both"):
            report_for_plan(plan, model.n, heisenberg=True, edge_cnots=per_class)
        with pytest.raises(ValueError, match="edges_per_sweep=11"):
            report_for_plan(plan, model.n, edges_per_sweep=11, edge_cnots=per_class)
        with pytest.raises(ValueError, match="edge_cnots has 1 classes"):
            report_for_plan(plan, model.n, edge_cnots=[[3] * 12])
