"""Product-formula schedules and step-count planning.

A product formula approximates exp(-itH) for H = H_1 + .. + H_K by a sequence
of stages, each stage exponentiating one class H_k for a signed fraction of
the step duration t/m.  First order S_1 uses one stage per class; second
order is S_2(t) = S_1(t/2) S_1^rev(t/2), the palindrome of half steps with its
middle stages merged; higher even orders come from the recursive construction

    S_2q(t) = S_{2q-2}(p_q t)^2  S_{2q-2}((1 - 4 p_q) t)  S_{2q-2}(p_q t)^2,
    p_q = (4 - 4^{1/(2q-1)})^{-1},

whose middle factor runs backwards in time (1 - 4 p_q < 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .jsonutil import json_int, json_real
from .model import CONSTANT_PROFILE, TimeProfile

COEFF_SUM_TOL = 1e-12

# Most stages a formula may hold per step, or a schedule before merging:
# ``expand`` peaks at about 160 bytes per stage, so a build stays near 160 MB.
MAX_STAGES = 10**6

# Prefactor of the order-2q step rule in ``steps_for_accuracy``.  The paper
# gives only the scaling of m and leaves this constant unspecified, so the
# value is a heuristic convention, not a derived bound.
HIGHER_ORDER_C3 = 1.0


@dataclass(frozen=True)
class Stage:
    """One stage of a product formula: class k (1-based) for coeff * t/m."""

    k: int
    coeff: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"stage class index must be >= 1, got {self.k}")
        if self.coeff == 0.0:
            raise ValueError("stage coefficient must be nonzero")
        if abs(self.coeff) > 1.0 + COEFF_SUM_TOL:
            raise ValueError(f"stage coefficient {self.coeff} exceeds magnitude 1")


@dataclass(frozen=True)
class ProductFormula:
    """An ordered stage list; per-class coefficients always sum to 1."""

    order: int
    num_classes: int
    stages: tuple[Stage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        sums = [0.0] * self.num_classes
        for s in self.stages:
            if s.k > self.num_classes:
                raise ValueError(f"stage references class {s.k} but K={self.num_classes}")
            sums[s.k - 1] += s.coeff
        bad = [k + 1 for k, v in enumerate(sums) if abs(v - 1.0) > COEFF_SUM_TOL]
        if bad:
            raise ValueError(f"coefficients for class {bad[0]} sum to {sums[bad[0] - 1]}, not 1")


@dataclass(frozen=True)
class StepPlan:
    """A chosen Trotter step count and how it was arrived at."""

    m: int
    order: int
    # "first_order_explicit", "higher_order_scaling", or "user" (m set by the
    # caller or by a piecewise profile's table)
    bound_used: str
    num_classes: int
    t: float
    epsilon: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", _check_m(self.m))
        for name in ("order", "num_classes"):
            object.__setattr__(self, name, json_int(getattr(self, name), name))
        object.__setattr__(self, "t", json_real(self.t, "t"))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", json_real(self.epsilon, "epsilon"))
        if self.bound_used not in ("first_order_explicit", "higher_order_scaling", "user"):
            raise ValueError(f"unknown bound tag {self.bound_used!r}")


@dataclass(frozen=True)
class ScheduledStage:
    """A concrete stage of the expanded circuit: class k for duration tau."""

    k: int
    tau: float


def first_order(num_classes: int) -> ProductFormula:
    """S1: one stage per class, in class order."""
    num_classes = _check_k(num_classes)
    stages = tuple(Stage(k, 1.0) for k in range(1, num_classes + 1))
    return ProductFormula(order=1, num_classes=num_classes, stages=stages)


def second_order(num_classes: int) -> ProductFormula:
    """S2(t) = S1(t/2) S1_rev(t/2): half steps up then down, the middle class merged."""
    half = [(s.k, 0.5) for s in first_order(num_classes).stages]
    stages = _merge_adjacent(half + half[::-1])
    return ProductFormula(order=2, num_classes=num_classes,
                          stages=tuple(Stage(k, c) for k, c in stages))


def suzuki(q: int, num_classes: int) -> ProductFormula:
    """Order-2q recursive formula, q >= 2, with adjacent same-class stages merged."""
    if q < 2:
        raise ValueError("suzuki construction starts at q=2; use second_order for q=1")
    num_classes = _check_k(num_classes)
    stages = [(s.k, s.coeff) for s in second_order(num_classes).stages]
    for level in range(2, q + 1):
        p = suzuki_p(level)
        outer = [(k, c * p) for k, c in stages]
        middle = [(k, c * (1.0 - 4.0 * p)) for k, c in stages]
        stages = _merge_adjacent(outer + outer + middle + outer + outer)
    return ProductFormula(
        order=2 * q,
        num_classes=num_classes,
        stages=tuple(Stage(k, c) for k, c in stages),
    )


def formula_for_order(order: int, num_classes: int) -> ProductFormula:
    """Map an even order (or 1) to its formula; ValueError, before building
    anything, past MAX_STAGES stages per step: K at order 1, 5^(q-1) (2K - 2)
    + 1 at order 2q, and q levels to build even at K = 1."""
    order, k = _check_order(order), _check_k(num_classes)
    levels = min(order // 2 - 1, MAX_STAGES.bit_length())  # where 5^levels passes the limit
    if max(k if order == 1 else 5**levels * (2 * k - 2) + 1, order // 2) > MAX_STAGES:
        raise ValueError(f"an order-{order} formula on K={k} classes takes more than "
                         f"{MAX_STAGES} stages per step")
    if order == 1:
        return first_order(k)
    if order == 2:
        return second_order(k)
    return suzuki(order // 2, k)


def suzuki_p(q: int) -> float:
    """Recursion coefficient p_q."""
    if q < 2:
        raise ValueError("p_q is defined for q >= 2")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * q - 1)))


def _merge_adjacent(stages: list[tuple[int, float]]) -> list[tuple[int, float]]:
    out: list[tuple[int, float]] = []
    for k, c in stages:
        if out and out[-1][0] == k:
            out[-1] = (k, out[-1][1] + c)
        else:
            out.append((k, c))
    return out


def _check_m(m: int) -> int:
    m = json_int(m, "m")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return m


def _check_order(order: int) -> int:
    order = json_int(order, "order")
    if order != 1 and (order < 2 or order % 2):
        raise ValueError(f"order must be 1 or an even integer >= 2, got {order}")
    return order


def _check_k(num_classes: int) -> int:
    k = json_int(num_classes, "num_classes")
    if k < 1:
        raise ValueError(f"need at least one class, got K={k}")
    return k


# --- error bounds and step counts ------------------------------------------

def first_order_error_bound(num_classes: int, n: int, j: float, t: float, m: int,
                            profile: TimeProfile = CONSTANT_PROFILE) -> float:
    """First-order Trotter error bound (3/16) K (K-1) t^2 n J^2 / m.

    Follows from summing the pairwise class commutator bound
    ||[H_k, H_l]|| <= (3/4) n J^2 over the K(K-1)/2 class pairs at second
    order in t/m.  Step p of a piecewise ``profile`` runs H scaled by f_p,
    and the bound is quadratic in step length, so it gains the factor
    sum f_p^2 / m; the table must have m entries.
    """
    num_classes, m = _check_k(num_classes), _check_m(m)
    n, j, t = json_int(n, "n"), json_real(j, "coupling j"), json_real(t, "t")
    bound = (3.0 / 16.0) * num_classes * (num_classes - 1) * t * t * n * j * j / m
    if not profile.is_constant:
        factors = [profile.factor(p, m) for p in range(m)]
        bound *= sum(f * f for f in factors) / m
    return bound


def _ceil_guarded(x: float) -> int:
    # float products that are mathematically integral can land an ulp above
    # the integer; back off by a relative hair before taking the ceiling
    return math.ceil(x - 1e-9 * max(1.0, abs(x)))


def steps_for_accuracy(
    order: int,
    num_classes: int,
    n: int,
    j: float,
    t: float,
    epsilon: float,
    profile: TimeProfile = CONSTANT_PROFILE,
) -> StepPlan:
    """Smallest step count whose error bound meets the accuracy target.

    First order inverts ``first_order_error_bound``:
        m >= (3/16) K (K-1) t^2 n J^2 / epsilon.
    Order 2q uses the scaling form
        m >= c3 (K t)^{1 + 1/2q} n^{1/2q} / epsilon^{1/2q}
    with c3 = ``HIGHER_ORDER_C3``, a heuristic constant: the rule is not a
    proven error bound.  A piecewise ``profile`` fixes m to its table length
    ("user") after the same checks.  Raises ValueError for K < 1, n < 2, a
    bad order, a j, t or epsilon that is not finite or out of range, or a
    step count that overflows a float.
    """
    num_classes = _check_k(num_classes)
    n = json_int(n, "n")
    if n < 2:
        raise ValueError(f"need at least two sites, got n={n}")
    epsilon = json_real(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t = json_real(t, "t")
    if t < 0:
        raise ValueError("t must be nonnegative")
    j = json_real(j, "coupling j")
    order = _check_order(order)
    if not profile.is_constant:
        return StepPlan(m=len(profile.factors), order=order, bound_used="user",
                        num_classes=num_classes, t=t, epsilon=epsilon)
    bound = "first_order_explicit" if order == 1 else "higher_order_scaling"
    if order == 1:
        raw = first_order_error_bound(num_classes, n, j, t, 1) / epsilon
    else:
        inv = 1.0 / order  # 1/(2q)
        try:
            raw = HIGHER_ORDER_C3 * (num_classes * t) ** (1.0 + inv) * n ** inv / epsilon ** inv
        except OverflowError:  # float ** raises where * and / give inf
            raw = math.inf
    if not math.isfinite(raw):
        raise ValueError(f"step count overflows a float: t={t}, J={j}, epsilon={epsilon}")
    return StepPlan(m=max(1, _ceil_guarded(raw)), order=order, bound_used=bound,
                    num_classes=num_classes, t=t, epsilon=epsilon)


def expand(
    formula: ProductFormula,
    m: int,
    t: float,
    profile: TimeProfile = CONSTANT_PROFILE,
) -> tuple[ScheduledStage, ...]:
    """Concatenate m steps of a formula into concrete stage durations.

    Each stage of step p runs for coeff * (t/m) * scale_p, where scale_p is
    the time profile's factor for that step (left-endpoint sampling).
    Adjacent stages on the same class are merged across step boundaries,
    but only under a constant profile, where neighboring steps agree.
    Raises ValueError past MAX_STAGES stages, before building, or when a
    duration overflows a float.
    """
    m = _check_m(m)
    if m * len(formula.stages) > MAX_STAGES:
        raise ValueError(f"m={m} steps of {len(formula.stages)} stages exceed {MAX_STAGES} stages")
    dt = json_real(t, "t") / m
    stages: list[tuple[int, float]] = []
    for p in range(m):
        scale = profile.factor(p, m)
        stages += [(s.k, s.coeff * dt * scale) for s in formula.stages]
    if profile.is_constant:
        stages = _merge_adjacent(stages)
    if not all(math.isfinite(tau) for _, tau in stages):
        raise ValueError(f"a stage duration overflows a float: t={t}, m={m}")
    return tuple(ScheduledStage(k, tau) for k, tau in stages)


def class_uses(
    formula: ProductFormula,
    m: int,
    profile: TimeProfile = CONSTANT_PROFILE,
) -> tuple[int, ...]:
    """Stages of each class that ``expand(formula, m, t, profile)`` emits.

    Under a constant profile ``expand`` merges each step's last stage into
    the next step's first when they share a class (every palindromic order
    >= 2 and every one-class formula), so that class loses m - 1 stages.
    """
    m = _check_m(m)
    uses = [0] * formula.num_classes
    for s in formula.stages:
        uses[s.k - 1] += m
    first, last = formula.stages[0].k, formula.stages[-1].k
    if profile.is_constant and first == last:
        uses[first - 1] -= m - 1
    return tuple(uses)
