"""Gate-count and simulation-time estimates, and audits against circuits.

Every estimate is ``report_for_plan(steps_for_accuracy(...), n, ...)``: the
step rule picks m, and the report counts exactly the stages that
``trotter.expand`` emits for the merged schedule, at every order, and the
gates of each stage.  First order on a regular K-colorable lattice needs
N = m * n * K / 2 interaction gates; with the error bound inverted for m
this closes to (3/32) K^2 (K-1) t^2 n^2 J^2 / epsilon.  Each color class
runs in one parallel layer, and a stage of duration tau takes
t_inf + s * |tau|, so the simulation time is depth * t_inf + s * sum |tau|.
With t_inf = 0 at orders 1 and 2 that is K * s * |t|, independent of m, n
and epsilon; from order 4 on, Suzuki's backward middle step makes it larger.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .circuits import Circuit, counts
from .jsonutil import json_int, json_real
from .model import CONSTANT_PROFILE, TimeProfile
from .trotter import HIGHER_ORDER_C3, StepPlan, class_uses, formula_for_order

# the simulation time is a float sum over stages; its rounding stays far below this
TIME_REL_TOL = 1e-9


@dataclass(frozen=True)
class GateTimingModel:
    """Stage execution time t_inf + s * |tau| for a simulated duration tau.

    ``t_inf`` is the fixed part (seconds) that every stage pays; ``s`` is
    the scaled-gate slope in simulation seconds per simulated second.  A
    stage's gates run in parallel, so a stage costs one such time.
    """

    t_inf: float = 1.0
    s: float = 0.0

    def __post_init__(self):
        for name in ("t_inf", "s"):
            value = json_real(getattr(self, name), f"timing parameter {name}")
            object.__setattr__(self, name, value)
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


def report_for_plan(
    plan: StepPlan,
    n: int,
    timing: GateTimingModel = DEFAULT_TIMING,
    heisenberg: bool = False,
    edges_per_sweep: int | None = None,
    edge_cnots: Sequence[Sequence[int]] | None = None,
    profile: TimeProfile = CONSTANT_PROFILE,
) -> ResourceReport:
    """Predicted cost of running a given step plan on an n-site model.

    Counts the stages ``expand`` emits for the plan's formula
    (:func:`trottersmith.trotter.class_uses`), so a stage of class k costs
    |class k| interaction gates and one layer of depth.  ``edge_cnots``
    holds one sequence per color class of each edge's template CNOTs (see
    :func:`trottersmith.synth.template_cnots`), which fixes class sizes and
    CNOTs exactly.  Without it each class has ``edges_per_sweep`` / K
    edges, which defaults to n*K/2 as on a regular lattice with every class
    full (ValueError when n*K is odd), and each gate costs 6 CNOTs, or 3
    when ``heisenberg``; an ``edges_per_sweep`` that K does not divide
    raises ValueError when the schedule runs the classes unequally often
    (orders >= 2), since the count then depends on which class holds the
    extra edges.  CNOTs are counted only
    for steps p with t * profile.factor(p, m) != 0: the other steps run
    every stage for tau = 0, and decomposed synthesis emits no CNOT for an
    identity.  Every stage takes ``timing``'s t_inf + s * |tau|, so the
    simulation time is depth * t_inf + s * sum |tau|.
    """
    k = plan.num_classes
    n = json_int(n, "n")
    if edges_per_sweep is not None:
        edges_per_sweep = json_int(edges_per_sweep, "edges_per_sweep")
    formula = formula_for_order(plan.order, k)
    uses = class_uses(formula, plan.m, profile)
    if edge_cnots is None:
        if edges_per_sweep is None:
            if n * k % 2:
                raise ValueError(
                    f"n={n} sites in K={k} full classes would hold n*K/2 = {n * k / 2} "
                    "edges; pass edges_per_sweep or edge_cnots")
            edges_per_sweep = n * k // 2
        if edges_per_sweep % k and len(set(uses)) > 1:
            # which class holds the extra edges decides the count; only the
            # coloring knows, so an even spread would price a fractional gate
            raise ValueError(
                f"edges_per_sweep={edges_per_sweep} does not split evenly over K={k} "
                "classes that this schedule runs unequally often; pass edge_cnots "
                "to give each class's edges")
        size = edges_per_sweep / k
        sizes, class_cnots = [size] * k, [(3 if heisenberg else 6) * size] * k
        template = "heisenberg-3cnot" if heisenberg else "general-6cnot"
    else:
        if heisenberg:
            raise ValueError("pass heisenberg or edge_cnots, not both")
        if len(edge_cnots) != k:
            raise ValueError(f"edge_cnots has {len(edge_cnots)} classes but the plan has K={k}")
        sizes, class_cnots = [len(c) for c in edge_cnots], [sum(c) for c in edge_cnots]
        if edges_per_sweep is not None and edges_per_sweep != sum(sizes):
            raise ValueError(
                f"edges_per_sweep={edges_per_sweep} but edge_cnots has {sum(sizes)} edges"
            )
        template = "per-edge"
    gates = int(round(sum(u * c for u, c in zip(uses, sizes))))
    # the share of live steps: a constant profile's factor is 1 at every step,
    # so one step stands for all m, and a piecewise profile merges no stage,
    # so each live step runs class k for uses[k] / m stages
    steps = 1 if profile.is_constant else plan.m
    scales = [plan.t * profile.factor(p, plan.m) for p in range(steps)]
    live = sum(f != 0 for f in scales) / steps
    cnots = int(round(live * sum(u * c for u, c in zip(uses, class_cnots))))
    depth = sum(uses)
    # step p runs each stage for |coeff * t f_p / m|; merging across a step
    # boundary joins stages of one sign, so it leaves sum |tau| unchanged
    abs_tau = sum(abs(stage.coeff) for stage in formula.stages) * sum(map(abs, scales)) / steps
    if not math.isfinite(abs_tau):
        raise ValueError(f"the sum of |tau| over the schedule overflows a float: t={plan.t}")
    sim_time = depth * timing.t_inf + timing.s * abs_tau
    assumptions = {
        "bound_used": plan.bound_used,
        "t": plan.t,
        "epsilon": plan.epsilon,
        "K": k,
        "n": n,
        "stages_per_step": len(formula.stages),
        "timing": {"t_inf": timing.t_inf, "s": timing.s},
        "template": template,
    }
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


def audit(report: ResourceReport, circuit: Circuit) -> list[str]:
    """Compare a report's predictions against a built circuit's tallies.

    Returns a list of discrepancy descriptions; empty means the audit
    passed.  Scaled circuits (each stage one uij layer) are checked for
    interaction gates and depth exactly, for one |tau| per layer, and for
    the simulation time under ``assumptions["timing"]`` (ValueError if the
    report has none) to ``TIME_REL_TOL``.  Decomposed circuits: CNOT total.
    """
    got = counts(circuit)
    if got["interaction"] == 0:
        checks = [("cnots", report.cnots, got["cx"])]
    else:
        # a gate with no recorded tau counts as tau = 0
        taus = [({abs(g.tau or 0.0) for g in layer}, uses)
                for layer, uses in circuit._layer_uses().values()]
        timing = report.assumptions.get("timing")
        if timing is None:
            raise ValueError("a scaled circuit's time needs the report's timing assumptions")
        sim_time = got["depth"] * timing["t_inf"] + timing["s"] * sum(
            uses * max(ts, default=0.0) for ts, uses in taus)
        checks = [("interaction gates", report.interaction_gates, got["interaction"]),
                  ("depth", report.depth, got["depth"]),
                  ("layers with more than one |tau|", 0, sum(len(ts) > 1 for ts, _ in taus))]
        if not math.isclose(sim_time, report.simulation_time, rel_tol=TIME_REL_TOL):
            checks.append(("simulation time", report.simulation_time, sim_time))
    return [f"{name}: predicted {predicted}, circuit has {measured}"
            for name, predicted, measured in checks if measured != predicted]
