"""Product formulas, error bounds, step planning, schedule expansion."""
from __future__ import annotations

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
    second_order,
    steps_for_accuracy,
    suzuki,
)
from trottersmith.trotter import suzuki_p


def stage_tuples(formula):
    return [(s.k, s.coeff) for s in formula.stages]


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

    def test_middle_coefficient_negative(self):
        assert 1.0 - 4.0 * suzuki_p(2) == pytest.approx(-0.6579630868, abs=1e-9)
        assert any(c < 0 for _, c in stage_tuples(suzuki(2, 2)))

    def test_unmerged_stage_count_law(self):
        assert len(suzuki(2, 2, merge=False).stages) == 2 * 2 * 5
        assert len(suzuki(2, 3, merge=False).stages) == 2 * 3 * 5
        assert len(suzuki(3, 2, merge=False).stages) == 2 * 2 * 25

    def test_merged_equals_unmerged_schedule(self):
        merged = stage_tuples(suzuki(2, 3))
        raw = stage_tuples(suzuki(2, 3, merge=False))
        dense = []
        for k, c in raw:
            if dense and dense[-1][0] == k:
                dense[-1] = (k, dense[-1][1] + c)
            else:
                dense.append((k, c))
        assert len(dense) == len(merged)
        for (k1, c1), (k2, c2) in zip(dense, merged):
            assert k1 == k2 and c1 == pytest.approx(c2, abs=1e-15)

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


class TestValidation:
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


class TestErrorBound:
    def test_worked_example(self):
        assert first_order_error_bound(2, 4, 1.0, 1.0, 150) == pytest.approx(0.01, rel=1e-12)

    def test_single_class_is_exact(self):
        assert first_order_error_bound(1, 8, 1.0, 1.0, 5) == 0.0

    def test_halves_with_doubled_m(self):
        b1 = first_order_error_bound(4, 16, 1.0, 2.0, 100)
        b2 = first_order_error_bound(4, 16, 1.0, 2.0, 200)
        assert b2 == pytest.approx(b1 / 2, rel=1e-15)


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

    def test_bound_meets_target(self):
        # the chosen m actually satisfies the first-order inequality
        for eps in (0.5, 0.01, 3e-4):
            m = steps_for_accuracy(1, 3, 6, 1.2, 2.0, eps).m
            assert first_order_error_bound(3, 6, 1.2, 2.0, m) <= eps * (1 + 1e-9)
            if m > 1:
                assert first_order_error_bound(3, 6, 1.2, 2.0, m - 1) > eps


class TestExpand:
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
