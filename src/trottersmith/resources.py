"""Gate-count and simulation-time estimates, and audits against circuits.

Every estimate is ``report_for_plan(steps_for_accuracy(...), n, ...)``: the
step rule picks m, and the report counts stages and gates per step.  First
order on a regular K-colorable lattice needs N = m * n * K / 2 interaction
gates; with the error bound inverted for m this closes to
(3/32) K^2 (K-1) t^2 n^2 J^2 / epsilon.  Each color class runs in one
parallel layer, so the simulation time is the stage count times the gate
time.  Higher even orders report the unmerged stage count 2K * 5^(q-1)
per step as an upper bound.  With natively scaled interaction gates the
simulation time collapses to K * s * t, independent of m, n, and epsilon.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .circuits import Circuit, counts
from .model import CONSTANT_PROFILE, TimeProfile
from .trotter import HIGHER_ORDER_C3, StepPlan


@dataclass(frozen=True)
class GateTimingModel:
    """Gate execution time t_g = t_inf + s * tau for simulated duration tau.

    ``t_inf`` is the fixed part (seconds); ``s`` is the scaled-gate slope
    in simulation seconds per simulated second.
    """

    t_inf: float = 1.0
    s: float = 0.0

    def __post_init__(self):
        for name in ("t_inf", "s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"timing parameter {name} must be finite, got {value}")
        if self.t_inf < 0 or self.s < 0:
            raise ValueError("timing parameters must be nonnegative")
        if self.t_inf == 0 and self.s == 0:
            raise ValueError("timing model needs t_inf or s positive")


DEFAULT_TIMING = GateTimingModel()


@dataclass(frozen=True)
class ResourceReport:
    """Predicted circuit cost for one planned simulation."""

    order: int
    m: int
    interaction_gates: int
    cnots: int
    depth: int
    simulation_time: float
    assumptions: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.m, self.interaction_gates, self.cnots, self.depth) < 0:
            raise ValueError("resource counts must be nonnegative")
        if self.simulation_time < 0:
            raise ValueError("simulation time must be nonnegative")


def first_order_gate_closed_form(
    num_classes: int, n: int, j: float, t: float, epsilon: float
) -> float:
    """Interaction-gate count with m at its (un-ceiled) first-order bound:
    (3/32) K^2 (K-1) t^2 n^2 J^2 / epsilon.
    """
    k = num_classes
    return (3.0 / 32.0) * k * k * (k - 1) * t * t * n * n * j * j / epsilon


def class_repetitions(order: int) -> int:
    """Times each class is exponentiated per step, before stage merging.

    1 for first order; the even order 2q repeats every class 2 * 5^(q-1)
    times (so a step has 2K * 5^(q-1) stages).
    """
    if order == 1:
        return 1
    if order >= 2 and order % 2 == 0:
        return 2 * 5 ** (order // 2 - 1)
    raise ValueError(f"order must be 1 or an even integer >= 2, got {order}")


def report_for_plan(
    plan: StepPlan,
    n: int,
    timing: GateTimingModel = DEFAULT_TIMING,
    heisenberg: bool = False,
    edges_per_sweep: int | None = None,
    edge_cnots: Sequence[int] | None = None,
    profile: TimeProfile = CONSTANT_PROFILE,
) -> ResourceReport:
    """Predicted cost of running a given step plan on an n-site model.

    The gate count uses n*K/2 edges per sweep, exact for regular lattices
    with every class full; pass ``edges_per_sweep`` (the model's actual
    edge count) to correct for open boundaries.  CNOTs assume the 6-CNOT
    template, or 3 per gate when ``heisenberg``.  ``edge_cnots`` gives the
    CNOTs of each edge's own template instead (see
    :func:`trottersmith.synth.template_cnots`), which is exact for models
    that mix templates; its length is the edge count per sweep.  CNOTs
    are counted only for steps p with t * profile.factor(p, m) != 0: the
    other steps run every stage for tau = 0, and decomposed synthesis emits
    no CNOT for an identity.
    """
    k = plan.num_classes
    reps = class_repetitions(plan.order)
    template = "heisenberg-3cnot" if heisenberg else "general-6cnot"
    if edge_cnots is not None:
        edge_cnots = list(edge_cnots)
        if heisenberg:
            raise ValueError("pass heisenberg or edge_cnots, not both")
        if edges_per_sweep is not None and edges_per_sweep != len(edge_cnots):
            raise ValueError(
                f"edges_per_sweep={edges_per_sweep} but edge_cnots has {len(edge_cnots)} edges"
            )
        edges_per_sweep = len(edge_cnots)
        template = "per-edge"
    # one full sweep of every class covers nK/2 edges on a regular lattice
    per_sweep = edges_per_sweep if edges_per_sweep is not None else n * k / 2.0
    gates = int(round(plan.m * reps * per_sweep))
    # a constant profile's factor is 1 at every step, so one step stands for all m
    steps = 1 if profile.is_constant else plan.m
    live = plan.m // steps * sum(plan.t * profile.factor(p, plan.m) != 0 for p in range(steps))
    if edge_cnots is not None:
        cnots = live * reps * sum(edge_cnots)
    else:
        cnots = (3 if heisenberg else 6) * int(round(live * reps * per_sweep))
    depth = plan.m * reps * k
    sim_time = float(depth * timing.t_inf)
    assumptions = {
        "bound_used": plan.bound_used,
        "t": plan.t,
        "epsilon": plan.epsilon,
        "K": k,
        "n": n,
        "stages_per_step": reps * k,
        "timing": {"t_inf": timing.t_inf, "s": timing.s},
        "fixed_gate_regime": True,
        "template": template,
        # the stage count is explicit, so the gate count needs no prefactor
        "c4": 1.0,
    }
    if edges_per_sweep is None and (n * k) % 2 == 0:
        assumptions["regular_lattice_gates"] = plan.m * reps * (n * k // 2)
    if plan.bound_used == "higher_order_scaling":
        assumptions["c3"] = HIGHER_ORDER_C3
    return ResourceReport(
        order=plan.order,
        m=plan.m,
        interaction_gates=gates,
        cnots=cnots,
        depth=depth,
        simulation_time=sim_time,
        assumptions=assumptions,
    )


def estimate_scaled(num_classes: int, s: float, t: float) -> float:
    """Simulation-time bound K*s*t with natively scaled interaction gates.

    Independent of m, n, and epsilon: every class accumulates total
    simulated duration t, executed at slope s, across however many steps.
    """
    if s <= 0:
        raise ValueError("scaled-gate slope s must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return num_classes * s * t


def audit(report: ResourceReport, circuit: Circuit) -> list[str]:
    """Compare a report's predictions against a built circuit's tallies.

    Returns a list of discrepancy descriptions; empty means the audit
    passed.  Interaction-gate count and depth are checked against scaled
    circuits (where each stage is one uij layer); the CNOT total against
    decomposed circuits.  Merged stages can legitimately make measured
    counts fall below higher-order predictions, so only first-order
    reports demand exact agreement; higher orders flag only overruns.
    """
    got = counts(circuit)
    issues: list[str] = []
    exact = report.order == 1

    def check(name: str, predicted: int, measured: int) -> None:
        if measured > predicted or (exact and measured != predicted):
            issues.append(f"{name}: predicted {predicted}, circuit has {measured}")

    if got["interaction"] > 0:
        check("interaction gates", report.interaction_gates, got["interaction"])
        check("depth", report.depth, got["depth"])
    else:
        check("cnots", report.cnots, got["cx"])
    return issues
