"""The benchmark tracer still finds every pipeline function it hooks.

``bench/tracing.py`` patches functions by module attribute name, so deleting
or renaming one of them breaks ``bench/run.py --trace 1``; this suite fails
first.
"""
from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from trottersmith import circuits, resources, synth
from trottersmith import model as model_mod

from conftest import edge_tau_slots, kak_inputs

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_swaps_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    hooks = [(owner, attr) for owner, attr, *_ in tracing._PATCHES]
    hooks.append((circuits.Gate, "__post_init__"))
    before = [getattr(owner, attr) for owner, attr in hooks]
    report_for_plan = resources.report_for_plan
    with tracing.Tracer().installed(0):
        assert resources.report_for_plan is not report_for_plan
        for (owner, attr), fn in zip(hooks, before):
            assert getattr(owner, attr) is not fn, attr
    assert resources.report_for_plan is report_for_plan
    for (owner, attr), fn in zip(hooks, before):
        assert getattr(owner, attr) is fn, attr


def test_traced_build_counts_each_decomposition(xyz_square44, monkeypatch):
    # a memo that bound kak_decompose locally would bypass the hook and read 0;
    # a build without one would read the (edge, tau) count
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracing").Tracer()
    with tracer.installed(0):
        synth.build_trotter_circuit(*xyz_square44)
    metrics = tracer.pass_metrics(0)
    inputs = kak_inputs(*xyz_square44)
    pairs, _ = edge_tau_slots(*xyz_square44)
    assert metrics["synth.kak_calls"] == metrics["synth.kak_distinct"] == len(inputs)
    assert 0 < len(inputs) < len(pairs)


def test_traced_load_validates_each_distinct_gate_once(xyz_square44, monkeypatch):
    # a loader that bypassed Gate.__post_init__ would read 0, one without
    # sharing would read the slot count, and one that checked like entries
    # through Gate would read the table length
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracing").Tracer()
    text = circuits.circuit_to_json(synth.build_trotter_circuit(*xyz_square44))
    table = json.loads(text)["gates"]
    full = [g for g in table if "like" not in g]
    with tracer.installed(0):
        circuits.circuit_from_json(text)
    inits = tracer.pass_metrics(0)["circuits.gate_inits"]
    assert inits == len(full) > 0
    assert len(full) < len(table)


_J = model_mod.CouplingTensor.diagonal(1.0, 0.5, -0.3)
_CHAIN_TEXT = model_mod.model_to_json(model_mod.build_lattice("chain", 7, field=(0.2, 0.0, 0.4)))


@pytest.mark.parametrize("make", [
    lambda: model_mod.build_lattice("square", (3, 4), "periodic", coupling=_J),
    lambda: model_mod.from_edges(5, [(0, 1, _J), (1, 3, _J), (0, 4, _J), (2, 3, _J)]),
    lambda: model_mod.model_from_json(_CHAIN_TEXT),
], ids=["build_lattice", "from_edges", "model_from_json"])
def test_traced_model_counts_its_edges(make, monkeypatch):
    # the hook reads len(model.edges) after each traced build and load, so
    # SpinModel.edges must stay, one view per stack row, while it does
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracing").Tracer()
    with tracer.installed(0):
        spin_model = make()
    assert tracer.pass_metrics(0)["model.edges"] == len(spin_model.pairs) > 0
