"""Span recording around trottersmith's public functions, from outside the package.

A traced pass installs wrappers on the module attributes through which the
pipeline looks each function up, runs, and restores the originals.  Names
imported with ``from x import y`` are separate bindings, so every binding
that the pipeline reaches is patched on its own (``synth.expand`` and
``oracle.expand`` both lead to ``trotter.expand``; ``dump_json`` is bound in
four modules).  Spans stay in memory with the index of their parent span,
so self time is a span's duration minus the durations of its children.

``Gate.__post_init__`` runs once per gate (tens of thousands of times per
pass), so it is counted and timed in aggregate instead of as spans.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from trottersmith import circuits, cli, coloring, model, oracle, resources, synth, trotter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _edges(tracer: "Tracer", spin_model) -> None:
    tracer.counters["model.edges"] = max(tracer.counters["model.edges"], len(spin_model.edges))


def _classes(tracer: "Tracer", edge_coloring) -> None:
    tracer.counters["coloring.classes"] = max(tracer.counters["coloring.classes"],
                                              edge_coloring.num_classes)


def _count_stages(tracer: "Tracer", stages) -> None:
    tracer.counters["trotter.stages"] += len(stages)


def _note_kak(tracer: "Tracer", args) -> None:
    tracer.counters["synth.kak_calls"] += 1
    tracer.kak_inputs.add(np.asarray(args[0], dtype=complex).tobytes())


def _count_gates(tracer: "Tracer", args) -> None:
    tracer.counters["circuits.gates"] += args[0].gate_count()


def _count_playback(tracer: "Tracer", args) -> None:
    tracer.counters["oracle.gate_applications"] += args[1].gate_count()


# (owner, attribute, span name, hook on the result, hook on the arguments)
_PATCHES = (
    (model, "build_lattice", "model.build", _edges, None),
    (model, "from_edges", "model.build", _edges, None),
    (model, "model_to_json", "model.json", None, None),
    (model, "model_from_json", "model.json", _edges, None),
    (coloring, "color_model", "coloring.color", _classes, None),
    (coloring, "validate", "coloring.validate", None, None),
    (coloring, "coloring_to_json", "coloring.json", None, None),
    (coloring, "coloring_from_json", "coloring.json", None, None),
    (trotter, "formula_for_order", "trotter.formula", None, None),
    (synth, "expand", "trotter.expand", _count_stages, None),
    (oracle, "expand", "trotter.expand", _count_stages, None),
    (synth, "build_trotter_circuit", "synth.build", None, None),
    (synth, "kak_decompose", "synth.kak", None, _note_kak),
    (cli, "circuit_to_json", "circuits.to_json", None, _count_gates),
    (cli, "circuit_to_qasm3", "circuits.to_qasm", None, _count_gates),
    (circuits, "circuit_from_json", "circuits.from_json", None, None),
    (cli, "counts", "circuits.counts", None, None),
    (resources, "counts", "circuits.counts", None, None),
    (cli, "dump_json", "jsonutil.dump", None, None),
    (model, "dump_json", "jsonutil.dump", None, None),
    (coloring, "dump_json", "jsonutil.dump", None, None),
    (circuits, "dump_json", "jsonutil.dump", None, None),
    (oracle, "exact_evolution", "oracle.exact", None, None),
    (oracle, "trotter_error", "oracle.error", None, None),
    (oracle, "formula_unitary", "oracle.formula", None, None),
    (oracle, "spectral_norm", "oracle.norm", None, None),
    (oracle, "run_circuit", "oracle.playback", None, _count_playback),
    (resources, "report_for_plan", "resources.report", None, None),
    (resources, "audit", "resources.audit", None, None),
)


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.kak_inputs: set[bytes] = set()
        self.pass_id = 0
        self.active = False
        self._open: list[int] = []  # indices of the spans enclosing the current call

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; a no-op outside a traced pass."""
        if not self.active:
            yield
            return
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._open[-1] if self._open else None, self.pass_id))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, fn, name, on_result, on_args):
        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(self, args)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def _wrap_gate_init(self, fn):
        counters = self.counters

        def __post_init__(gate):
            t0 = time.perf_counter_ns()
            try:
                fn(gate)
            finally:
                counters["circuits.gate_inits"] += 1
                counters["circuits.gate_init_ns"] += time.perf_counter_ns() - t0
        return __post_init__

    @contextlib.contextmanager
    def installed(self, pass_id: int):
        """Patch every traced binding for the duration of one pass.

        Counters start from zero for each pass; spans are kept for all passes.
        """
        self.counters.clear()
        self.kak_inputs.clear()
        saved = []
        for owner, attr, name, on_result, on_args in _PATCHES:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, on_result, on_args))
        init = circuits.Gate.__post_init__
        saved.append((circuits.Gate, "__post_init__", init))
        circuits.Gate.__post_init__ = self._wrap_gate_init(init)
        self.pass_id = pass_id
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer metrics of the last traced pass, from its spans and counters."""
        mine = [(k, s) for k, s in enumerate(self.spans) if s.pass_id == pass_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in mine:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for k, s in mine:
            total[s.name] += s.duration
            self_time[s.name] += s.duration - child_time[k]
        counters = self.counters
        calls = counters["synth.kak_calls"]
        kak_distinct = len(self.kak_inputs)
        return {
            "model.build_s": total["model.build"],
            "model.json_s": total["model.json"],
            "model.edges": counters["model.edges"],
            "coloring.color_s": total["coloring.color"],
            "coloring.classes": counters["coloring.classes"],
            "trotter.stages": counters["trotter.stages"],
            "synth.build_s": total["synth.build"],
            "synth.kak_calls": calls,
            "synth.kak_distinct": kak_distinct,
            "synth.kak_useful_ratio": kak_distinct / calls if calls else 0.0,
            "synth.kak_s": total["synth.kak"],
            "circuits.gate_inits": counters["circuits.gate_inits"],
            "circuits.gate_init_s": counters["circuits.gate_init_ns"] * 1e-9,
            "circuits.to_json_s": self_time["circuits.to_json"],
            "circuits.from_json_s": total["circuits.from_json"],
            "circuits.to_qasm_s": total["circuits.to_qasm"],
            "circuits.gates": counters["circuits.gates"],
            "jsonutil.dump_s": total["jsonutil.dump"],
            "oracle.exact_s": total["oracle.exact"],
            "oracle.formula_s": total["oracle.formula"],
            "oracle.norm_s": total["oracle.norm"],
            "oracle.norm_calls": sum(1 for _, s in mine if s.name == "oracle.norm"),
            "oracle.playback_s": total["oracle.playback"],
            "oracle.gate_applications": counters["oracle.gate_applications"],
            "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
        }

    def spans_as_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
