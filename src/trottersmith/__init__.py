"""Compiler for Trotterized simulation of spin-1/2 lattice Hamiltonians.

Pipeline: build a model (``model``), split its bonds into commuting color
classes (``coloring``), pick a product formula and step count (``trotter``),
lower each stage to two-qubit gates or native interactions (``synth``,
``circuits``), predict the cost (``resources``), and check everything
against dense references (``oracle``).  The ``trottersmith`` console
script fronts the same pipeline.
"""
from .circuits import Circuit, Gate, GateKind, circuit_from_json, circuit_to_json, \
    circuit_to_qasm3, counts
from .coloring import EdgeColoring, color_model, coloring_from_json, coloring_to_json
from .model import Boundary, CouplingTensor, EdgeTerm, LatticeKind, SpinModel, \
    TimeProfile, build_lattice, from_edges, model_from_json, model_to_json
from .oracle import circuit_unitary, exact_evolution, run_circuit, spectral_norm, \
    total_hamiltonian, trotter_error
from .resources import GateTimingModel, ResourceReport, audit, report_for_plan
from .synth import CartanCoefficients, build_trotter_circuit, kak_decompose, synth_edge
from .trotter import ProductFormula, ScheduledStage, Stage, StepPlan, expand, \
    first_order, first_order_error_bound, formula_for_order, second_order, \
    steps_for_accuracy, suzuki

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "CartanCoefficients",
    "Circuit",
    "CouplingTensor",
    "EdgeColoring",
    "EdgeTerm",
    "Gate",
    "GateKind",
    "GateTimingModel",
    "LatticeKind",
    "ProductFormula",
    "ResourceReport",
    "ScheduledStage",
    "SpinModel",
    "Stage",
    "StepPlan",
    "TimeProfile",
    "audit",
    "build_lattice",
    "build_trotter_circuit",
    "circuit_from_json",
    "circuit_to_json",
    "circuit_to_qasm3",
    "circuit_unitary",
    "color_model",
    "coloring_from_json",
    "coloring_to_json",
    "counts",
    "exact_evolution",
    "expand",
    "first_order",
    "first_order_error_bound",
    "formula_for_order",
    "from_edges",
    "kak_decompose",
    "model_from_json",
    "model_to_json",
    "report_for_plan",
    "run_circuit",
    "second_order",
    "spectral_norm",
    "steps_for_accuracy",
    "suzuki",
    "synth_edge",
    "total_hamiltonian",
    "trotter_error",
]
