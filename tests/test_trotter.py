"""Product formulas, error bounds, step planning, schedule expansion."""
from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trottersmith import (
    ProductFormula,
    Stage,
    StepPlan,
    TimeProfile,
    expand,
    first_order,
    first_order_error_bound,
    formula_for_order,
    report_for_plan,
    second_order,
    steps_for_accuracy,
    suzuki,
    trotter,
)
from trottersmith.model import CONSTANT_PROFILE
from trottersmith.trotter import MAX_STAGES, class_uses, suzuki_p


def stage_tuples(formula):
    return [(s.k, s.coeff) for s in formula.stages]


def raw_suzuki(q, k):
    """The unmerged order-2q recursion: 2K * 5^(q-1) (class, coeff) stages."""
    stages = [(c, 0.5) for c in range(1, k + 1)] + [(c, 0.5) for c in range(k, 0, -1)]
    for level in range(2, q + 1):
        p = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * level - 1)))
        outer = [(c, x * p) for c, x in stages]
        middle = [(c, x * (1.0 - 4.0 * p)) for c, x in stages]
        stages = outer + outer + middle + outer + outer
    return stages


class TestFirstOrder:
    def test_single_class(self):
        assert stage_tuples(first_order(1)) == [(1, 1.0)]

    def test_four_classes(self):
        assert stage_tuples(first_order(4)) == [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]

    def test_two_classes(self):
        assert stage_tuples(first_order(2)) == [(1, 1.0), (2, 1.0)]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            first_order(0)


class TestSecondOrder:
    def test_k2_palindrome(self):
        assert stage_tuples(second_order(2)) == [(1, 0.5), (2, 1.0), (1, 0.5)]

    def test_k1_degenerate(self):
        assert stage_tuples(second_order(1)) == [(1, 1.0)]

    def test_k4_length(self):
        f = second_order(4)
        assert len(f.stages) == 2 * 4 - 1
        assert stage_tuples(f) == list(reversed(stage_tuples(f)))


class TestSuzuki:
    def test_p2_value(self):
        assert suzuki_p(2) == pytest.approx(0.4144907717, abs=1e-9)

    def test_p_starts_at_two(self):
        with pytest.raises(ValueError, match="q >= 2"):
            suzuki_p(1)

    def test_middle_coefficient_negative(self):
        assert 1.0 - 4.0 * suzuki_p(2) == pytest.approx(-0.6579630868, abs=1e-9)
        assert any(c < 0 for _, c in stage_tuples(suzuki(2, 2)))

    def test_unmerged_stage_count_law(self):
        assert len(raw_suzuki(2, 2)) == 2 * 2 * 5
        assert len(raw_suzuki(2, 3)) == 2 * 3 * 5
        assert len(raw_suzuki(3, 2)) == 2 * 2 * 25

    def test_merged_equals_unmerged_schedule(self):
        for q, k in itertools.product((2, 3), (1, 2, 3, 4)):
            merged = stage_tuples(suzuki(q, k))
            dense = []
            for c, x in raw_suzuki(q, k):
                if dense and dense[-1][0] == c:
                    dense[-1] = (c, dense[-1][1] + x)
                else:
                    dense.append((c, x))
            assert [c for c, _ in dense] == [c for c, _ in merged], (q, k)
            for (_, x1), (_, x2) in zip(dense, merged):
                assert x1 == pytest.approx(x2, abs=1e-14), (q, k)

    @given(st.integers(2, 3), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_per_class_sums_are_one(self, q, k):
        f = suzuki(q, k)
        sums = [0.0] * k
        for s in f.stages:
            sums[s.k - 1] += s.coeff
        assert all(abs(v - 1.0) <= 1e-12 for v in sums)

    def test_q1_rejected(self):
        with pytest.raises(ValueError):
            suzuki(1, 2)


class TestFormulaForOrder:
    def test_dispatch(self):
        assert formula_for_order(1, 3).order == 1
        assert formula_for_order(2, 3).order == 2
        assert formula_for_order(4, 3).order == 4
        assert formula_for_order(6, 2).order == 6

    def test_bad_orders(self):
        for order in (0, 3, 5, -2):
            with pytest.raises(ValueError):
                formula_for_order(order, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_stage_count_closed_form(self, k):
        # the count the stage limit checks before anything is built
        assert len(formula_for_order(1, k).stages) == k
        for order in range(2, 11, 2):
            assert len(formula_for_order(order, k).stages) == 5 ** (order // 2 - 1) * (2 * k - 2) + 1

    @pytest.mark.parametrize("order, k", [(40, 2), (1000, 2), (10**20, 2), (10**20, 1),
                                          (20, 2), (1, MAX_STAGES + 1)])
    def test_stage_limit_refuses_before_building(self, order, k):
        # order 40 on two classes would hold 3.8e13 stages per step; a one-class
        # formula stays one stage, but its build would walk 5e19 levels
        with pytest.raises(ValueError, match=f"an order-{order} formula on K={k} classes takes "
                                             f"more than {MAX_STAGES} stages per step"):
            formula_for_order(order, k)


class TestValidation:
    def test_class_index_below_one_rejected(self):
        with pytest.raises(ValueError, match="class index must be >= 1"):
            Stage(0, 1.0)

    def test_zero_coeff_rejected(self):
        with pytest.raises(ValueError):
            Stage(1, 0.0)

    def test_oversized_coeff_rejected(self):
        with pytest.raises(ValueError):
            Stage(1, 1.5)

    def test_bad_class_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            ProductFormula(order=1, num_classes=2, stages=(Stage(1, 1.0), Stage(2, 0.5)))

    def test_stage_class_out_of_range(self):
        with pytest.raises(ValueError):
            ProductFormula(order=1, num_classes=1, stages=(Stage(2, 1.0),))

    def test_step_plan_m_positive(self):
        with pytest.raises(ValueError):
            StepPlan(m=0, order=1, bound_used="user", num_classes=2, t=1.0)
        with pytest.raises(ValueError):
            StepPlan(m=1, order=1, bound_used="guesswork", num_classes=2, t=1.0)

    @pytest.mark.parametrize("make", [
        lambda: StepPlan(m=2.5, order=1, bound_used="user", num_classes=2, t=1.0),
        lambda: StepPlan(m=2, order=True, bound_used="user", num_classes=2, t=1.0),
        lambda: StepPlan(m=2, order=1, bound_used="user", num_classes=2.5, t=1.0),
        lambda: steps_for_accuracy(True, 2, 4, 1.0, 1.0, 0.01),
        lambda: steps_for_accuracy(1, 2, 4.5, 1.0, 1.0, 0.01),
        lambda: steps_for_accuracy(1, 2.5, 4, 1.0, 1.0, 0.01),
        lambda: first_order(True),
        lambda: formula_for_order(2.0, 2),
    ], ids=["plan-m", "plan-order", "plan-classes", "steps-order-bool", "steps-n",
            "steps-classes", "first-order-bool", "formula-order-float"])
    def test_integer_arguments_must_be_integers(self, make):
        # order True used to plan order 1, and 2.5 steps or classes went unchecked
        with pytest.raises(ValueError, match="must be an integer, got"):
            make()


_PLAN = StepPlan(m=2, order=1, bound_used="user", num_classes=2, t=1.0)


class TestScheduleNumbers:
    @pytest.mark.parametrize("call", [
        lambda: first_order_error_bound(2, 4, 1.0, 1.0, 2.5),
        lambda: first_order_error_bound(2, 4, True, 1.0, 2),
        lambda: first_order_error_bound(2, 4.5, 1.0, 1.0, 2),
        lambda: first_order_error_bound(2, 4, 1.0, math.nan, 2),
        lambda: class_uses(first_order(2), 2.5),
        lambda: expand(first_order(2), 2.5, 1.0),
        lambda: report_for_plan(_PLAN, 4.5, edges_per_sweep=4),
        lambda: report_for_plan(_PLAN, 4, edges_per_sweep=4.5),
        lambda: StepPlan(m=2, order=1, bound_used="user", num_classes=2, t="1"),
        lambda: StepPlan(m=2, order=1, bound_used="user", num_classes=2, t=math.nan),
        lambda: StepPlan(m=2, order=1, bound_used="user", num_classes=2, t=1.0, epsilon="x"),
    ], ids=["bound-m-float", "bound-j-bool", "bound-n-float", "bound-t-nan", "uses-m-float",
            "expand-m-float", "report-n-float", "report-edges-float", "plan-t-str",
            "plan-t-nan", "plan-epsilon-str"])
    def test_every_number_is_checked(self, call):
        # each of these used to return a number, or raise TypeError
        with pytest.raises(ValueError, match="must be"):
            call()


class TestErrorBound:
    def test_worked_example(self):
        assert first_order_error_bound(2, 4, 1.0, 1.0, 150) == pytest.approx(0.01, rel=1e-12)

    def test_single_class_is_exact(self):
        assert first_order_error_bound(1, 8, 1.0, 1.0, 5) == 0.0

    def test_halves_with_doubled_m(self):
        b1 = first_order_error_bound(4, 16, 1.0, 2.0, 100)
        b2 = first_order_error_bound(4, 16, 1.0, 2.0, 200)
        assert b2 == pytest.approx(b1 / 2, rel=1e-15)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            first_order_error_bound(2, 4, 1.0, 1.0, 0)

    def test_piecewise_profile_scales_by_mean_square_factor(self):
        # step p runs H scaled by f_p, and the bound is quadratic in step length
        profile = TimeProfile("piecewise", (1.0, 0.5))
        bound = first_order_error_bound(2, 4, 1.0, 1.0, 2, profile)
        assert bound == first_order_error_bound(2, 4, 1.0, 1.0, 2) * ((1.0 + 0.25) / 2)
        with pytest.raises(ValueError, match="table has 2 entries but the plan has 3"):
            first_order_error_bound(2, 4, 1.0, 1.0, 3, profile)


class TestStepsForAccuracy:
    def test_first_order_worked_examples(self):
        plan = steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.01)
        assert plan.m == 150
        assert plan.bound_used == "first_order_explicit"
        assert steps_for_accuracy(1, 4, 16, 1.0, 1.0, 0.1).m == 360

    def test_higher_order_worked_example(self):
        plan = steps_for_accuracy(4, 2, 4, 1.0, 1.0, 0.01)
        assert plan.m == 11
        assert plan.bound_used == "higher_order_scaling"
        assert plan.m == math.ceil((2.0 * 1.0) ** 1.25 * 4.0**0.25 / 0.01**0.25)

    def test_large_order_limit(self):
        # exponents 1/2q vanish, so m decays toward ceil(c3 * K * t)
        ms = [steps_for_accuracy(o, 2, 4, 1.0, 1.0, 0.01).m for o in (4, 10, 100)]
        assert ms == sorted(ms, reverse=True)
        assert ms[-1] <= math.ceil(2.0) + 1

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            steps_for_accuracy(1, 2, 4, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("t,epsilon,what", [
        (math.nan, 0.01, "t must be finite"),
        (math.inf, 0.01, "t must be finite"),
        (1.0, math.nan, "epsilon must be finite"),
        (1.0, math.inf, "epsilon must be finite"),
    ])
    def test_nonfinite_t_or_epsilon_rejected(self, t, epsilon, what):
        with pytest.raises(ValueError, match=what):
            steps_for_accuracy(2, 2, 4, 1.0, t, epsilon)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("j", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coupling_rejected(self, order, j):
        with pytest.raises(ValueError, match=f"coupling j must be finite, got {j}"):
            steps_for_accuracy(order, 2, 4, j, 1.0, 0.01)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_piecewise_table_fixes_m(self, order):
        profile = TimeProfile("piecewise", (1.0, 0.0, -0.5))
        plan = steps_for_accuracy(order, 2, 4, 1.0, 1.0, 0.01, profile)
        assert (plan.m, plan.order, plan.bound_used) == (3, order, "user")
        assert (plan.t, plan.epsilon) == (1.0, 0.01)

    @pytest.mark.parametrize("args, what", [
        ((3, 2, 4, 1.0, 1.0, 0.01), "order must be 1 or an even integer"),
        ((1, 0, 4, 1.0, 1.0, 0.01), "at least one class"),
        ((1, 2, 1, 1.0, 1.0, 0.01), "at least two sites"),
        ((1, 2, 4, 1.0, 1.0, 0.0), "epsilon must be positive"),
        ((2, 2, 4, 1.0, -1.0, 0.01), "t must be nonnegative"),
        ((2, 2, 4, math.nan, 1.0, 0.01), "coupling j must be finite"),
    ])
    def test_piecewise_table_keeps_input_checks(self, args, what):
        with pytest.raises(ValueError, match=what):
            steps_for_accuracy(*args, TimeProfile("piecewise", (1.0, 0.0)))

    @pytest.mark.parametrize("order, j, t, epsilon", [
        (1, 1e200, 1.0, 0.01),  # J^2 overflows to inf
        (1, 0.0, 1e300, 0.01),  # t^2 = inf times J = 0 is NaN
        (2, 1.0, 1e300, 1e-320),  # float ** raises OverflowError
        (4, 1.0, 1e300, 0.01),
    ])
    def test_step_count_overflow_rejected(self, order, j, t, epsilon):
        with pytest.raises(ValueError, match="overflows a float"):
            steps_for_accuracy(order, 2, 4, j, t, epsilon)

    def test_bound_meets_target(self):
        # the chosen m actually satisfies the first-order inequality
        for eps in (0.5, 0.01, 3e-4):
            m = steps_for_accuracy(1, 3, 6, 1.2, 2.0, eps).m
            assert first_order_error_bound(3, 6, 1.2, 2.0, m) <= eps * (1 + 1e-9)
            if m > 1:
                assert first_order_error_bound(3, 6, 1.2, 2.0, m - 1) > eps


class TestExpand:
    def test_stage_limit_refuses_before_building(self, monkeypatch):
        f = second_order(2)
        for m in (MAX_STAGES // 3 + 1, 99999999999999999999):
            with pytest.raises(ValueError, match=f"m={m} steps of 3 stages exceed {MAX_STAGES} "
                                                 "stages"):
                expand(f, m, 1.0)
        # the limit counts stages before the step boundaries merge
        monkeypatch.setattr(trotter, "MAX_STAGES", 9)
        assert len(expand(f, 3, 1.0)) == 7
        with pytest.raises(ValueError, match="m=4 steps of 3 stages exceed 9 stages"):
            expand(f, 4, 1.0)

    def test_single_step_is_the_schedule(self):
        f = second_order(2)
        out = expand(f, 1, 2.0)
        assert [(s.k, s.tau) for s in out] == [(1, 1.0), (2, 2.0), (1, 1.0)]

    def test_boundary_merge_constant_profile(self):
        out = expand(second_order(2), 2, 1.0)
        assert [(s.k, round(s.tau, 12)) for s in out] == [
            (1, 0.25),
            (2, 0.5),
            (1, 0.5),
            (2, 0.5),
            (1, 0.25),
        ]

    def test_no_merge_for_piecewise_profile(self):
        profile = TimeProfile("piecewise", (1.0, 1.0))
        out = expand(second_order(2), 2, 1.0, profile)
        assert len(out) == 6

    def test_overflowing_duration_rejected(self):
        # every factor is finite, but 10 / 2 * 1e308 is not
        profile = TimeProfile("piecewise", (1.0, 1e308))
        with pytest.raises(ValueError, match="stage duration overflows a float"):
            expand(second_order(2), 2, 10.0, profile)

    def test_piecewise_scales_each_step(self):
        profile = TimeProfile("piecewise", (1.0, 0.5))
        out = expand(first_order(2), 2, 1.0, profile)
        assert [round(s.tau, 12) for s in out] == [0.5, 0.5, 0.25, 0.25]

    @given(st.sampled_from([1, 2, 4]), st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_total_simulated_time_per_class(self, order, k, m):
        f = formula_for_order(order, k)
        t = 0.7
        totals = [0.0] * k
        for s in expand(f, m, t):
            totals[s.k - 1] += s.tau
        assert all(abs(v - t) < 1e-12 for v in totals)


class TestClassUses:
    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_equals_expand_tallies(self, order, k):
        f = formula_for_order(order, k)
        for m in range(1, 9):
            profiles = [
                (CONSTANT_PROFILE, 1.0),
                (CONSTANT_PROFILE, 0.0),
                (TimeProfile("piecewise", (1.0,) * m), 1.0),
                (TimeProfile("piecewise", tuple(float(p % 2) for p in range(m))), 1.0),
                (TimeProfile("piecewise", (0.0,) * m), 1.0),
            ]
            for profile, t in profiles:
                tally = [0] * k
                for stage in expand(f, m, t, profile):
                    tally[stage.k - 1] += 1
                assert class_uses(f, m, profile) == tuple(tally), (m, profile, t)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            class_uses(first_order(2), 0)
        with pytest.raises(ValueError, match="m must be >= 1"):
            expand(first_order(2), 0, 1.0)
