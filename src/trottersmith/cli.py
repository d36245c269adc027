"""Command-line pipeline: build, color, plan, synthesize, estimate, verify.

Artifacts are JSON (models, colorings, plans, circuits), OpenQASM 3, or
CSV; identical inputs and seed produce byte-identical output files.  Exit
codes: 0 on success, 2 on a validation problem (bad input, invalid file,
oracle size cap), 1 on an internal failure.
"""
from __future__ import annotations

import functools
import hashlib
import json
import re
import sys
from pathlib import Path

import click
import numpy as np

from . import coloring as coloring_mod
from . import model as model_mod
from . import oracle, resources, synth, trotter
from .circuits import circuit_to_json, circuit_to_qasm3, counts
from .jsonutil import dump_json, format_float

DEFAULT_SEED = 0xC0FFEE


def _guard(fn):
    """Map exceptions to the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            raise SystemExit(1)

    return wrapper


def _write_artifact(text: str, out: str | None, summary: str | None = None) -> None:
    """Send the artifact to --out or stdout; the summary never mixes into it."""
    if out is None:
        sys.stdout.write(text)
        if summary:
            click.echo(summary, err=True)
    else:
        Path(out).write_text(text)
        if summary:
            click.echo(summary)


def _load_model(path: str) -> model_mod.SpinModel:
    return model_mod.model_from_json(Path(path).read_bytes())


def _parse_list(text: str, option: str, convert, sep: str = ",") -> list:
    """The items of an option's list value, each converted; an empty item,
    as in ``1,,2``, ``,1`` or ``4x4x``, is bad input."""
    items = re.split(sep, text)
    if not all(p.strip() for p in items):
        raise ValueError(f"{option} has an empty item in {text!r}")
    try:
        return [convert(p) for p in items]
    except ValueError:
        raise ValueError(f"{option} takes {convert.__name__} items, got {text!r}") from None


@click.group()
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Seed for every stochastic ingredient (norm power iteration).")
@click.pass_context
def main(ctx, seed: int) -> None:
    """Trotterized spin-lattice simulation compiler."""
    ctx.obj = {"seed": seed}


@main.command()
@click.option("--kind", type=click.Choice(["chain", "square", "hexagonal"]), required=True)
@click.option("--dims", required=True,
              help="Site count for chain; ROWSxCOLS for square; LXxLY cells for hexagonal.")
@click.option("--boundary", type=click.Choice(["open", "periodic"]), default="open",
              show_default=True)
@click.option("--coupling", "coupling_spec", default="1.0", show_default=True,
              help="Isotropic J, or JX,JY,JZ for a diagonal tensor.")
@click.option("--field", "field_spec", default=None, help="Uniform site field HX,HY,HZ.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def lattice(kind, dims, boundary, coupling_spec, field_spec, out) -> None:
    """Build a lattice model and write it as JSON."""
    values = _parse_list(coupling_spec, "--coupling", float)
    if len(values) == 1:
        coupling = model_mod.CouplingTensor.heisenberg(values[0])
    elif len(values) == 3:
        coupling = model_mod.CouplingTensor.diagonal(*values)
    else:
        raise ValueError(f"--coupling needs 1 or 3 comma-separated values, got {coupling_spec!r}")
    field = None
    if field_spec is not None:
        field = tuple(_parse_list(field_spec, "--field", float, "[,x]"))
        if len(field) != 3:
            raise ValueError(f"--field needs 3 comma-separated values, got {field_spec!r}")
    dims = tuple(_parse_list(dims, "--dims", int, "[,x]"))
    model = model_mod.build_lattice(kind, dims, boundary, coupling, field)
    summary = f"n={model.n} edges={len(model.pairs)} lattice={model.lattice.value}"
    _write_artifact(model_mod.model_to_json(model), out, summary)


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def color(model_path, out) -> None:
    """Color a model's edges into commuting classes."""
    model = _load_model(model_path)
    coloring = coloring_mod.color_model(model)
    coloring_mod.validate(model, coloring)
    _write_artifact(coloring_mod.coloring_to_json(coloring), out,
                    f"K={coloring.num_classes}")


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--order", type=int, default=1, show_default=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--time", "t", type=float, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def plan(model_path, order, epsilon, t, out) -> None:
    """Choose the Trotter step count for an accuracy target."""
    model = _load_model(model_path)
    coloring = coloring_mod.color_model(model)
    step_plan = trotter.steps_for_accuracy(
        order, coloring.num_classes, model.n, model.j_max, t, epsilon, model.profile
    )
    doc = {
        "order": step_plan.order,
        "m": step_plan.m,
        "K": step_plan.num_classes,
        "n": model.n,
        "J": model.j_max,
        "t": step_plan.t,
        "epsilon": step_plan.epsilon,
        "bound_used": step_plan.bound_used,
    }
    summary = f"K={step_plan.num_classes} m={step_plan.m} bound={step_plan.bound_used}"
    _write_artifact(dump_json(doc), out, summary)


@main.command("synth")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--coloring", "coloring_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Coloring JSON; computed from the model when omitted.")
@click.option("--order", type=int, default=1, show_default=True)
@click.option("--steps", type=int, default=None, help="Explicit m; overrides --epsilon.")
@click.option("--epsilon", type=float, default=None)
@click.option("--time", "t", type=float, required=True)
@click.option("--mode", type=click.Choice(list(synth.MODES)), default="decomposed",
              show_default=True)
@click.option("--emit", type=click.Choice(["json", "qasm"]), default="json",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def synth_cmd(model_path, coloring_path, order, steps, epsilon, t, mode, emit, out) -> None:
    """Compile a Trotter circuit for a model.

    QASM output names the model by the SHA-256 of the bytes read from
    ``--model``, which ``sha256sum`` of that file reproduces.
    """
    data = Path(model_path).read_bytes()
    model = model_mod.model_from_json(data)
    if coloring_path is None:
        coloring = coloring_mod.color_model(model)
    else:
        coloring = coloring_mod.coloring_from_json(Path(coloring_path).read_text())
    coloring_mod.validate(model, coloring)
    if steps is None:
        if epsilon is None:
            raise ValueError("provide --steps or --epsilon")
        steps = trotter.steps_for_accuracy(
            order, coloring.num_classes, model.n, model.j_max, t, epsilon, model.profile
        ).m
    formula = trotter.formula_for_order(order, coloring.num_classes)
    circuit = synth.build_trotter_circuit(model, coloring, formula, steps, t, mode=mode)
    tally = counts(circuit)
    summary = (
        f"m={steps} depth={tally['depth']} gates={tally['total']} "
        f"cx={tally['cx']} interaction={tally['interaction']}"
    )
    if emit == "qasm":
        _write_artifact(circuit_to_qasm3(circuit, hashlib.sha256(data).hexdigest()), out,
                        summary)
    else:
        _write_artifact(circuit_to_json(circuit), out, summary)


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Take n, K, J, and the edge count from a model file.")
@click.option("--n", "n_sites", type=int, default=None)
@click.option("--classes", "k_classes", type=int, default=None, help="Color count K.")
@click.option("--coupling", "j_val", type=float, default=1.0, show_default=True)
@click.option("--order", type=int, default=1, show_default=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--time", "t", type=float, required=True)
@click.option("--t-inf", type=float, default=1.0, show_default=True)
@click.option("--slope", type=float, default=0.0, show_default=True,
              help="Scaled-gate slope s: each stage of duration tau takes "
                   "t_inf + s*|tau|.")
@click.option("--heisenberg", is_flag=True,
              help="Count 3 CNOTs per interaction gate (without --model, which counts "
                   "each edge's own template).")
@click.option("--compare-orders", default=None, help="e.g. 1,2,4: emit CSV of m,N,T.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guard
def estimate(model_path, n_sites, k_classes, j_val, order, epsilon, t, t_inf, slope,
             heisenberg, compare_orders, out) -> None:
    """Closed-form resource estimates."""
    edge_cnots, profile = None, model_mod.CONSTANT_PROFILE
    if model_path is not None:
        if heisenberg:
            raise ValueError("--heisenberg applies without --model; a model's edges "
                             "are counted by their own templates")
        model = _load_model(model_path)
        n_sites = model.n
        classes = coloring_mod.color_model(model).classes
        k_classes = len(classes)
        j_val = model.j_max
        cnots = synth.template_cnots(model)
        edge_cnots = [[cnots[e] for e in c] for c in classes]
        profile = model.profile
    if n_sites is None or k_classes is None:
        raise ValueError("provide --model, or both --n and --classes")
    timing = resources.GateTimingModel(t_inf=t_inf, s=slope)
    orders = [order] if compare_orders is None else \
        _parse_list(compare_orders, "--compare-orders", int)
    plans = [trotter.steps_for_accuracy(o, k_classes, n_sites, j_val, t, epsilon, profile)
             for o in orders]
    try:
        reports = [resources.report_for_plan(p, n_sites, timing=timing, heisenberg=heisenberg,
                                             edge_cnots=edge_cnots, profile=profile)
                   for p in plans]
    except ValueError:
        if edge_cnots is not None:
            raise
        # without a model the report can fail only on the n*K/2 edges it spreads
        # evenly over the classes, and only a model gives each class its edges
        edges = n_sites * k_classes / 2
        why = (f"n*K/2 = {edges} is no whole number of edges" if n_sites * k_classes % 2 else
               f"n*K/2 = {edges:.0f} does not split evenly over K={k_classes} classes that "
               f"this schedule runs unequally often")
        raise ValueError(f"--n {n_sites} and --classes {k_classes} give no class sizes: {why}; "
                         "pass --model to count each class's own edges") from None
    if compare_orders is not None:
        lines = ["order,m,N,T"] + [
            f"{rep.order},{rep.m},{rep.interaction_gates},{format_float(rep.simulation_time)}"
            for rep in reports
        ]
        _write_artifact("\n".join(lines) + "\n", out)
        return
    rep = reports[0]
    doc = {
        "order": rep.order,
        "m": rep.m,
        "interaction_gates": rep.interaction_gates,
        "cnots": rep.cnots,
        "depth": rep.depth,
        "simulation_time": rep.simulation_time,
        "assumptions": rep.assumptions,
    }
    table = "\n".join([
        f"order              {rep.order}",
        f"steps m            {rep.m}",
        f"interaction gates  {rep.interaction_gates}",
        f"CNOTs              {rep.cnots}",
        f"depth              {rep.depth}",
        f"simulation time    {format_float(rep.simulation_time)}",
    ])
    _write_artifact(dump_json(doc), out, table)


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--order", type=int, default=1, show_default=True)
@click.option("--time", "t", type=float, default=1.0, show_default=True)
@click.option("--m-grid", default="4,8,16,32,64", show_default=True)
# ignored, since the grid is measured serially; accepted for scripts that still pass it
@click.option("--jobs", type=click.IntRange(min=1), default=1, hidden=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
@_guard
def verify(ctx, model_path, order, t, m_grid, jobs, out) -> None:
    """Measure Trotter error against the dense oracle over a step grid.

    Every model is measured against ``oracle.exact_evolution``; a
    piecewise profile fixes m, so its grid must be exactly the table length.

    Writes CSV with header m,error,bound,order (bound only for order 1)
    and reports the fitted log-log slope of error versus m, or nan unless
    the grid has at least two distinct m and every error is positive.
    """
    seed = ctx.obj["seed"]
    model = _load_model(model_path)
    coloring = coloring_mod.color_model(model)
    formula = trotter.formula_for_order(order, coloring.num_classes)
    ms = _parse_list(m_grid, "--m-grid", int)
    if any(m < 1 for m in ms):
        raise ValueError(f"bad --m-grid {m_grid!r}")
    steps = len(model.profile.factors or ())
    if steps and ms != [steps]:
        raise ValueError(
            f"a piecewise profile fixes m to its table length {steps}; "
            f"pass --m-grid {steps}"
        )
    reference = oracle.exact_evolution(model, t)
    bounds = [trotter.first_order_error_bound(coloring.num_classes, model.n, model.j_max, t, m,
                                              model.profile) for m in ms if order == 1]
    if not np.isfinite(bounds).all():  # t^2 overflows, or times a zero J gives nan
        raise ValueError(f"the first-order error bound overflows a float: t={t}")
    # one norm block through the grid: each point starts from its predecessor's
    # top singular subspace plus half the seeded draw
    dim = 2**model.n
    block = np.zeros((dim, min(oracle.NORM_BLOCK, dim)), dtype=complex)
    errors = [oracle.trotter_error(model, coloring, formula, m, t, reference=reference,
                                   seed=seed, block=block) for m in ms]
    lines = ["m,error,bound,order"]
    for m, err, bound in zip(ms, errors, [format_float(b) for b in bounds] or [""] * len(ms)):
        lines.append(f"{m},{format_float(err)},{bound},{order}")
    slope = _loglog_slope(ms, errors)
    _write_artifact("\n".join(lines) + "\n", out)
    click.echo(f"slope={slope:.4f}", err=True)


def _loglog_slope(ms: list[int], errors: list[float]) -> float:
    if len(set(ms)) < 2 or min(errors) <= 0.0:
        return float("nan")
    xs = np.log(np.asarray(ms, dtype=float))
    ys = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


if __name__ == "__main__":
    main()
