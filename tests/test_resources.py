"""Cost estimators, the closed-form gate count, and report audits."""
from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottersmith import (
    Circuit,
    CouplingTensor,
    Gate,
    GateKind,
    GateTimingModel,
    ResourceReport,
    StepPlan,
    TimeProfile,
    audit,
    build_lattice,
    build_trotter_circuit,
    color_model,
    counts,
    expand,
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

    @pytest.mark.parametrize("m, gates", [(1, 5), (2, 8), (3, 11)])
    def test_uneven_edges_per_sweep_needs_class_sizes(self, heis_chain4, m, gates):
        # chain-4's classes hold 2 and 1 edges, and order 2 runs the 2-edge
        # class m + 1 times and the other m times: 3 / 2 per class would
        # predict 4 and 10 gates at m = 1 and 3, so the count is refused
        col = color_model(heis_chain4)
        plan = StepPlan(m=m, order=2, bound_used="user", num_classes=2, t=1.0)
        with pytest.raises(ValueError, match="pass edge_cnots"):
            report_for_plan(plan, 4, edges_per_sweep=3)
        circ = build_trotter_circuit(heis_chain4, col, formula_for_order(2, 2), m, 1.0,
                                     mode="scaled")
        report = report_for_plan(plan, 4, edges_per_sweep=3,
                                 edge_cnots=class_edge_cnots(heis_chain4, col))
        assert report.interaction_gates == counts(circ)["interaction"] == gates
        assert audit(report, circ) == []
        # first order runs every class m times, so the even spread is exact
        first = dataclasses.replace(plan, order=1)
        assert report_for_plan(first, 4, edges_per_sweep=3).interaction_gates == 3 * m


class TestOddSiteCount:
    """Without class sizes the report assumes n*K/2 edges per sweep."""

    def test_uneven_classes_at_second_order_refused(self):
        plan = StepPlan(m=2, order=2, bound_used="user", num_classes=2, t=1.0)
        with pytest.raises(ValueError, match="edges_per_sweep=5 does not split evenly"):
            report_for_plan(plan, 5)

    def test_odd_edge_total_refused(self):
        plan = StepPlan(m=2, order=1, bound_used="user", num_classes=3, t=1.0)
        with pytest.raises(ValueError, match=r"n\*K/2 = 7\.5 edges"):
            report_for_plan(plan, 5)

    @pytest.mark.parametrize("m", [1, 2, 3, 188])
    def test_first_order_prices_whole_sweeps(self, m):
        rep = report_for_plan(StepPlan(m=m, order=1, bound_used="user", num_classes=2,
                                       t=1.0), 5)
        assert rep.interaction_gates == 5 * m
        assert rep.cnots == 30 * m


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
        assert rep.assumptions["c3"] == 1.0

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


def _scaled_time(order, k, m, t, profile=TimeProfile(), timing=GateTimingModel(0.0, 1.0)):
    plan = StepPlan(m=m, order=order, bound_used="user", num_classes=k, t=t)
    return report_for_plan(plan, 2 * k, timing=timing, profile=profile).simulation_time


class TestScaledTime:
    """Every stage takes t_inf + s |tau|: time = depth t_inf + s sum |tau|."""

    @settings(max_examples=150, deadline=None)
    @given(order=st.sampled_from([1, 2, 4, 6]), k=st.integers(1, 5), m=st.integers(1, 40),
           t=st.floats(-3.0, 3.0), factors=st.none() | st.lists(
               st.sampled_from([1.0, 0.0, -0.5, 2.0, 0.3]), min_size=1, max_size=12))
    @example(order=4, k=4, m=36, t=1.0, factors=None)
    @example(order=6, k=2, m=7, t=-1.5, factors=None)
    @example(order=4, k=3, m=4, t=1.0, factors=[1.0, 0.0, -0.5, 2.0])
    @example(order=2, k=1, m=3, t=0.0, factors=[0.0, -1.0, 0.0])
    def test_closed_form_sum_matches_expand(self, order, k, m, t, factors):
        profile = TimeProfile() if factors is None else TimeProfile("piecewise", tuple(factors))
        m = m if factors is None else len(factors)
        total = sum(abs(s.tau) for s in expand(formula_for_order(order, k), m, t, profile))
        assert _scaled_time(order, k, m, t, profile) == pytest.approx(total, rel=1e-12,
                                                                      abs=1e-300)

    def test_fixed_part_is_paid_per_stage(self):
        plan = StepPlan(m=36, order=4, bound_used="user", num_classes=4, t=1.0)
        timing = GateTimingModel(t_inf=2.0, s=0.5)
        rep = report_for_plan(plan, 16, timing=timing)
        total = sum(abs(s.tau) for s in expand(formula_for_order(4, 4), 36, 1.0))
        assert rep.depth == 1081
        assert rep.simulation_time == pytest.approx(2.0 * 1081 + 0.5 * total, rel=1e-12)
        assert rep.assumptions["timing"] == {"t_inf": 2.0, "s": 0.5}

    @pytest.mark.parametrize("order", [1, 2])
    def test_orders_one_and_two_give_kst(self, order):
        # the paper's K s t, exactly, and independent of m
        for k, s, t, want in [(2, 2.0, 2.0, 8.0), (4, 0.5, 3.0, 6.0), (3, 1.0, 0.0, 0.0)]:
            for m in (1, 7, 150):
                assert _scaled_time(order, k, m, t, timing=GateTimingModel(0.0, s)) == want

    def test_higher_orders_run_longer_than_kst(self):
        times = [_scaled_time(order, 4, 36, 1.0) for order in (2, 4, 6)]
        assert times[0] == 4.0 < times[1] < times[2]

    def test_no_slope_keeps_depth_times_t_inf(self):
        rep = report_for_plan(steps_for_accuracy(4, 4, 16, 1.0, 1.0, 0.01), 16)
        assert rep.simulation_time == 1081.0
        assert set(rep.assumptions) == {"bound_used", "t", "epsilon", "K", "n", "c3",
                                        "stages_per_step", "timing", "template"}


class TestScaledRegime:
    """The paper's scaled regime: t_inf = 0, so every stage costs s |tau|."""

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GateTimingModel(t_inf=0.0, s=-1.0)
        with pytest.raises(ValueError, match="t_inf or s positive"):
            GateTimingModel(t_inf=0.0, s=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            steps_for_accuracy(1, 2, 4, 1.0, -1.0, 0.01)


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
            bad = dataclasses.replace(good, interaction_gates=good.interaction_gates + delta)
            assert audit(bad, circ) == [f"interaction gates: predicted {bad.interaction_gates}, "
                                        f"circuit has {good.interaction_gates}"]

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
        bad = dataclasses.replace(good, interaction_gates=good.interaction_gates + 1,
                                  depth=good.depth + 1, simulation_time=0.0)
        issues = audit(bad, circ)
        assert any("interaction gates" in msg for msg in issues)
        assert any("depth" in msg for msg in issues)
        assert any("simulation time: predicted 0.0" in msg for msg in issues)

    def test_higher_order_overrun_still_flagged(self, heis_chain4):
        col = color_model(heis_chain4)
        plan = steps_for_accuracy(2, 2, 4, 1.0, 1.0, 0.05)
        f = formula_for_order(2, 2)
        circ = build_trotter_circuit(heis_chain4, col, f, plan.m, 1.0, mode="scaled")
        measured = counts(circ)["interaction"]
        good = report_for_plan(plan, 4, edge_cnots=class_edge_cnots(heis_chain4, col))
        bad = dataclasses.replace(good, interaction_gates=measured - 1,
                                  cnots=6 * (measured - 1), depth=10**6, simulation_time=0.0)
        issues = audit(bad, circ)
        assert any("interaction gates" in msg for msg in issues)
        assert any("simulation time: predicted 0.0" in msg for msg in issues)


class TestAuditScaledTime:
    TIMING = GateTimingModel(t_inf=1.0, s=0.5)

    def _case(self, order, factors):
        profile = TimeProfile() if factors is None else TimeProfile("piecewise", factors)
        model = build_lattice("chain", 6, field=(0.5, 0.0, 0.3), profile=profile)
        col = color_model(model)
        m = 5 if factors is None else len(factors)
        plan = StepPlan(m=m, order=order, bound_used="user", num_classes=col.num_classes,
                        t=1.0)
        circ = build_trotter_circuit(model, col, formula_for_order(order, col.num_classes),
                                     m, 1.0, mode="scaled")
        report = report_for_plan(plan, model.n, timing=self.TIMING, profile=profile,
                                 edge_cnots=class_edge_cnots(model, col))
        return report, circ

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("factors", [None, (1.0, 0.0, -0.5, 2.0)],
                             ids=["constant", "piecewise"])
    def test_honest_circuits_pass(self, order, factors):
        report, circ = self._case(order, factors)
        assert audit(report, circ) == []

    @staticmethod
    def _retimed(g, tau):
        return Gate(GateKind.UIJ, g.qubits, matrix=g.matrix, tau=tau)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_one_perturbed_tau_flagged(self, sign):
        report, circ = self._case(4, None)
        layers = list(circ.layers)
        li = next(i for i, layer in enumerate(layers) if len(layer) > 1)
        g = layers[li][0]
        layers[li] = (self._retimed(g, g.tau + sign * 1e-3),) + layers[li][1:]
        issues = audit(report, Circuit(n=circ.n, layers=tuple(layers)))
        assert "layers with more than one |tau|: predicted 0, circuit has 1" in issues

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_perturbed_layer_flagged(self, sign):
        report, circ = self._case(2, (1.0, 0.0, -0.5, 2.0))
        layers = list(circ.layers)
        layers[-1] = tuple(self._retimed(g, g.tau * (1 + sign * 1e-3)) for g in layers[-1])
        issues = audit(report, Circuit(n=circ.n, layers=tuple(layers)))
        assert len(issues) == 1
        assert issues[0].startswith(f"simulation time: predicted {report.simulation_time!r}")

    def test_slope_mismatch_flagged(self):
        report, circ = self._case(4, None)
        other = dataclasses.replace(report, assumptions={**report.assumptions,
                                                         "timing": {"t_inf": 1.0, "s": 0.6}})
        assert audit(report, circ) == []
        assert len(audit(other, circ)) == 1

    def test_report_without_timing_rejected(self):
        report, circ = self._case(1, None)
        bare = ResourceReport(order=1, m=5, interaction_gates=report.interaction_gates,
                              cnots=report.cnots, depth=report.depth,
                              simulation_time=report.simulation_time)
        with pytest.raises(ValueError, match="timing assumptions"):
            audit(bare, circ)

    def test_decomposed_circuits_keep_the_cnot_check(self):
        model = build_lattice("chain", 6, field=(0.5, 0.0, 0.3))
        col = color_model(model)
        circ = build_trotter_circuit(model, col, formula_for_order(2, col.num_classes), 5, 1.0)
        cnot_only = report_for_plan(StepPlan(m=5, order=2, bound_used="user",
                                             num_classes=col.num_classes, t=1.0),
                                    model.n, edge_cnots=class_edge_cnots(model, col))
        assert audit(dataclasses.replace(cnot_only, simulation_time=0.0), circ) == []


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
