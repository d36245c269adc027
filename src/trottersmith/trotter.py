"""Product-formula schedules and step-count planning.

A product formula approximates exp(-itH) for H = H_1 + .. + H_K by a sequence
of stages, each stage exponentiating one class H_k for a signed fraction of
the step duration t/m.  First order uses one stage per class; second order is
the palindromic splitting with the middle stages merged; higher even orders
come from the recursive construction

    S_2q(t) = S_{2q-2}(p_q t)^2  S_{2q-2}((1 - 4 p_q) t)  S_{2q-2}(p_q t)^2,
    p_q = (4 - 4^{1/(2q-1)})^{-1},

whose middle factor runs backwards in time (1 - 4 p_q < 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CONSTANT_PROFILE, TimeProfile

COEFF_SUM_TOL = 1e-12


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
    bound_used: str  # "first_order_explicit", "higher_order_scaling", or "user"
    num_classes: int
    t: float
    epsilon: float | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"step count must be >= 1, got m={self.m}")
        if self.bound_used not in ("first_order_explicit", "higher_order_scaling", "user"):
            raise ValueError(f"unknown bound tag {self.bound_used!r}")


@dataclass(frozen=True)
class ScheduledStage:
    """A concrete stage of the expanded circuit: class k for duration tau."""

    k: int
    tau: float


def first_order(num_classes: int) -> ProductFormula:
    """S1: one stage per class, in class order."""
    _check_k(num_classes)
    stages = tuple(Stage(k, 1.0) for k in range(1, num_classes + 1))
    return ProductFormula(order=1, num_classes=num_classes, stages=stages)


def second_order(num_classes: int) -> ProductFormula:
    """S2: half-steps up then down, middle class merged to a full step."""
    _check_k(num_classes)
    if num_classes == 1:
        return ProductFormula(order=2, num_classes=1, stages=(Stage(1, 1.0),))
    up = [Stage(k, 0.5) for k in range(1, num_classes)]
    down = [Stage(k, 0.5) for k in range(num_classes - 1, 0, -1)]
    stages = tuple(up + [Stage(num_classes, 1.0)] + down)
    return ProductFormula(order=2, num_classes=num_classes, stages=stages)


def suzuki(q: int, num_classes: int, merge: bool = True) -> ProductFormula:
    """Order-2q recursive formula, q >= 2.

    With ``merge`` (the default), adjacent stages acting on the same class
    are combined; the unmerged construction has 2K * 5^(q-1) stages.
    """
    if q < 2:
        raise ValueError("suzuki construction starts at q=2; use second_order for q=1")
    _check_k(num_classes)
    if merge:
        stages = [(s.k, s.coeff) for s in second_order(num_classes).stages]
    else:
        # raw palindrome, 2K stages: the unmerged count law needs this base
        ks = list(range(1, num_classes + 1))
        stages = [(k, 0.5) for k in ks] + [(k, 0.5) for k in reversed(ks)]
    for level in range(2, q + 1):
        p = suzuki_p(level)
        outer = [(k, c * p) for k, c in stages]
        middle = [(k, c * (1.0 - 4.0 * p)) for k, c in stages]
        stages = outer + outer + middle + outer + outer
        if merge:
            stages = _merge_adjacent(stages)
    return ProductFormula(
        order=2 * q,
        num_classes=num_classes,
        stages=tuple(Stage(k, c) for k, c in stages),
    )


def formula_for_order(order: int, num_classes: int) -> ProductFormula:
    """Map an even order (or 1) to its formula."""
    if order == 1:
        return first_order(num_classes)
    if order == 2:
        return second_order(num_classes)
    if order >= 4 and order % 2 == 0:
        return suzuki(order // 2, num_classes)
    raise ValueError(f"order must be 1 or an even integer >= 2, got {order}")


def suzuki_p(q: int) -> float:
    """Recursion coefficient p_q."""
    if q < 2:
        raise ValueError("p_q is defined for q >= 2")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * q - 1)))


def _merge_adjacent(stages: list[tuple[int, float]]) -> list[tuple[int, float]]:
    out: list[tuple[int, float]] = []
    for k, c in stages:
        if out and out[-1][0] == k:
            merged = out[-1][1] + c
            if merged == 0.0:
                out.pop()
            else:
                out[-1] = (k, merged)
        else:
            out.append((k, c))
    return out


def _check_k(num_classes: int) -> None:
    if num_classes < 1:
        raise ValueError(f"need at least one class, got K={num_classes}")


# --- error bounds and step counts ------------------------------------------

def first_order_error_bound(num_classes: int, n: int, j: float, t: float, m: int) -> float:
    """First-order Trotter error bound (3/16) K (K-1) t^2 n J^2 / m.

    Follows from summing the pairwise class commutator bound
    ||[H_k, H_l]|| <= (3/4) n J^2 over the K(K-1)/2 class pairs at second
    order in t/m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return (3.0 / 16.0) * num_classes * (num_classes - 1) * t * t * n * j * j / m


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
    c3: float = 1.0,
) -> StepPlan:
    """Smallest step count whose error bound meets the accuracy target.

    First order inverts ``first_order_error_bound``:
        m >= (3/16) K (K-1) t^2 n J^2 / epsilon.
    Order 2q uses the scaling form with configurable constant c3:
        m >= c3 (K t)^{1 + 1/2q} n^{1/2q} / epsilon^{1/2q}.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if order == 1:
        raw = first_order_error_bound(num_classes, n, j, t, 1) / epsilon
        bound = "first_order_explicit"
    elif order >= 2 and order % 2 == 0:
        inv = 1.0 / order  # 1/(2q)
        raw = c3 * (num_classes * t) ** (1.0 + inv) * n ** inv / epsilon ** inv
        bound = "higher_order_scaling"
    else:
        raise ValueError(f"order must be 1 or an even integer >= 2, got {order}")
    m = max(1, _ceil_guarded(raw))
    return StepPlan(m=m, order=order, bound_used=bound, num_classes=num_classes,
                    t=t, epsilon=epsilon)


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
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    dt = t / m
    out: list[ScheduledStage] = []
    for p in range(m):
        scale = profile.factor(p, m)
        for s in formula.stages:
            tau = s.coeff * dt * scale
            if out and out[-1].k == s.k and profile.is_constant:
                out[-1] = ScheduledStage(s.k, out[-1].tau + tau)
            else:
                out.append(ScheduledStage(s.k, tau))
    return tuple(out)
