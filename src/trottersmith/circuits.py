"""Layered gate-list IR with JSON round-tripping and OpenQASM 3 export.

A circuit is a sequence of layers; gates in one layer act on disjoint qubits
and run concurrently, so depth equals the layer count.  Qubit 0 is the
leftmost tensor factor.  Rotation conventions: rx/ry/rz(theta) apply
exp(-i theta P / 2) for the matching Pauli P, and cx lists the control
first.  Two gate kinds carry explicit matrices: ``u1q`` for an arbitrary
single-qubit unitary and ``uij`` for a native two-qubit interaction
exp(-i tau H_ij), stored evaluated so playback never re-exponentiates.

The JSON document is ``{"n", "depth", "gates", "layers"}``: ``gates`` holds
each distinct gate document once, in order of first use, and each layer is a
list of indices into it, so size and load checks scale with distinct gates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

import numpy as np

from .jsonutil import dump_json, format_float, has_bool, json_document, json_int

UNITARITY_TOL = 1e-12


class GateKind(str, Enum):
    H = "h"
    CX = "cx"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    U1Q = "u1q"
    UIJ = "uij"


_ARITY = {
    GateKind.H: 1,
    GateKind.CX: 2,
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.U1Q: 1,
    GateKind.UIJ: 2,
}

_ANGLE_KINDS = (GateKind.RX, GateKind.RY, GateKind.RZ)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _rotation(kind: GateKind, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


def _check_unitary(ms: np.ndarray, kind: GateKind) -> None:
    """Raise ValueError unless a matrix, or each of a stack (E, d, d), is unitary.

    One batched product checks a whole stack; the deviation reported is the
    largest entry of |M^dagger M - 1| over the stack, and NaN fails too.
    """
    dim = ms.shape[-1]
    dev = float(np.max(np.abs(np.swapaxes(ms.conj(), -1, -2) @ ms - np.eye(dim))))
    if not dev <= UNITARITY_TOL:
        raise ValueError(f"{kind.value} matrix deviates from unitary by {dev:.2e}")


@dataclass(frozen=True, eq=False)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None
    edge: tuple[int, int] | None = None
    tau: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        qs = tuple(json_int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qs)
        if len(qs) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind.value} takes {_ARITY[self.kind]} qubits, got {qs}")
        if len(set(qs)) != len(qs):
            raise ValueError(f"repeated qubit in {self.kind.value} gate: {qs}")
        if any(q < 0 for q in qs):
            raise ValueError(f"negative qubit index in {qs}")
        if self.kind in _ANGLE_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind.value} requires a finite angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind.value} takes no angle")
        if self.kind in (GateKind.U1Q, GateKind.UIJ):
            dim = 2 if self.kind is GateKind.U1Q else 4
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (dim, dim):
                raise ValueError(f"{self.kind.value} matrix must be {dim}x{dim}, got {m.shape}")
            _check_unitary(m, self.kind)
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise ValueError(f"{self.kind.value} takes no matrix")
        if self.edge is not None:
            if self.kind is not GateKind.UIJ:
                raise ValueError("edge metadata is only valid on uij gates")
            edge = (json_int(self.edge[0]), json_int(self.edge[1]))
            object.__setattr__(self, "edge", edge)
        if self.tau is not None:
            if self.kind is not GateKind.UIJ:
                raise ValueError("tau metadata is only valid on uij gates")
            tau = float(self.tau)
            if not math.isfinite(tau):
                raise ValueError("uij tau must be finite")
            object.__setattr__(self, "tau", tau)

    def unitary(self) -> np.ndarray:
        """The gate's matrix on its own qubits, first-listed qubit leftmost."""
        if self.kind is GateKind.H:
            return _H.copy()
        if self.kind is GateKind.CX:
            return _CX.copy()
        if self.kind in _ANGLE_KINDS:
            return _rotation(self.kind, self.angle)
        return self.matrix.copy()


def _uij_gates(pairs, us: np.ndarray, tau: float) -> tuple[Gate, ...]:
    """One uij gate per edge (i, j) with 0 <= i < j, all run for one tau.

    The (E, 4, 4) stack ``us`` is copied and checked for unitarity once, as
    a whole, with the message :class:`Gate` gives; the gates then hold
    read-only views of the copy and skip the per-gate check.
    """
    us = np.array(us, dtype=complex)
    _check_unitary(us, GateKind.UIJ)
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError("uij tau must be finite")
    us.flags.writeable = False
    gates = []
    for (i, j), u in zip(pairs, us):
        ij = (int(i), int(j))
        g = object.__new__(Gate)
        g.__dict__.update(kind=GateKind.UIJ, qubits=ij, angle=None, matrix=u, edge=ij, tau=tau)
        gates.append(g)
    return tuple(gates)


@dataclass(frozen=True, eq=False)
class Circuit:
    n: int
    layers: tuple[tuple[Gate, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"circuit needs at least one qubit, got n={self.n}")
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        for li, layer in enumerate(layers):
            seen: set[int] = set()
            for g in layer:
                for q in g.qubits:
                    if q >= self.n:
                        raise ValueError(f"layer {li}: qubit {q} out of range for n={self.n}")
                    if q in seen:
                        raise ValueError(f"layer {li}: qubit {q} used by two gates")
                    seen.add(q)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def all_gates(self) -> Iterator[Gate]:
        for layer in self.layers:
            yield from layer

    def gate_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def interaction_edges(self) -> tuple[tuple[int, int], ...]:
        """Distinct (i, j) pairs touched by uij gates, sorted."""
        edges = {g.edge if g.edge is not None else g.qubits for g in self.all_gates()
                 if g.kind is GateKind.UIJ}
        return tuple(sorted(edges))


def counts(circuit: Circuit) -> dict:
    """Tally of a circuit: depth, totals, and per-kind gate counts."""
    by_kind = {kind.value: 0 for kind in GateKind}
    for g in circuit.all_gates():
        by_kind[g.kind.value] += 1
    return {
        "depth": circuit.depth,
        "total": sum(by_kind.values()),
        "cx": by_kind[GateKind.CX.value],
        "interaction": by_kind[GateKind.UIJ.value],
        "by_kind": by_kind,
    }


# --- JSON ------------------------------------------------------------------

def _complex_matrix_to_lists(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _gate_to_obj(g: Gate) -> dict:
    obj: dict = {"kind": g.kind.value, "qubits": list(g.qubits)}
    if g.angle is not None:
        obj["angle"] = g.angle
    if g.matrix is not None:
        obj["matrix"] = _complex_matrix_to_lists(g.matrix)
    if g.edge is not None:
        obj["edge"] = list(g.edge)
    if g.tau is not None:
        obj["tau"] = g.tau
    return obj


def _gate_from_obj(obj: dict) -> Gate:
    # float() reads "0.5" as 0.5, and float() and complex() read true/false as 1/0
    scalars = {type(obj.get("angle")), type(obj.get("tau"))}
    if not scalars <= {int, float, type(None)} or has_bool(obj.get("matrix", ()), 3):
        raise ValueError("gate angle, tau and matrix entries must be numbers")
    matrix = None
    if "matrix" in obj:
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in obj["matrix"]]
        )
    edge = tuple(obj["edge"]) if "edge" in obj else None
    return Gate(
        kind=GateKind(obj["kind"]),
        qubits=tuple(obj["qubits"]),
        angle=obj.get("angle"),
        matrix=matrix,
        edge=edge,
        tau=obj.get("tau"),
    )


def circuit_to_json(circuit: Circuit) -> str:
    """Serialize a circuit; table entries are keyed on ``repr`` of the gate
    document, which tells -0.0 from 0.0, so the bytes depend on gate content
    and not on which ``Gate`` objects are shared."""
    gates: list[dict] = []
    by_doc: dict[str, int] = {}
    by_id: dict[int, int] = {}

    def index(g: Gate) -> int:
        k = by_id.get(id(g))
        if k is None:
            obj = _gate_to_obj(g)
            k = by_id[id(g)] = by_doc.setdefault(repr(obj), len(gates))
            if k == len(gates):
                gates.append(obj)
        return k

    layers = [[index(g) for g in layer] for layer in circuit.layers]
    return dump_json({"n": circuit.n, "depth": circuit.depth, "gates": gates, "layers": layers})


def circuit_from_json(text: str) -> Circuit:
    """Parse and validate a circuit document; the trust boundary for circuits.

    ``n``, ``depth``, gate qubits and edges and every layer entry must be
    JSON integers.  Each table entry goes through :class:`Gate` and its full
    checks once, and every slot that indexes it shares that ``Gate``.  An
    index outside ``0 <= k < len(gates)`` is rejected.
    """
    with json_document(text, "circuit") as obj:
        gates = [_gate_from_obj(g) for g in obj["gates"]]

        def gate(k) -> Gate:
            k = json_int(k)
            if not 0 <= k < len(gates):
                raise ValueError(f"gate index {k} out of range for a table of {len(gates)}")
            return gates[k]

        layers = tuple(tuple(gate(k) for k in layer) for layer in obj["layers"])
        circ = Circuit(n=json_int(obj["n"]), layers=layers)
        if "depth" in obj and json_int(obj["depth"]) != circ.depth:
            raise ValueError(f"stored depth {obj['depth']} != layer count {circ.depth}")
    return circ


# --- OpenQASM 3 ------------------------------------------------------------

def _zyz(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (theta, phi, lam, gamma) with u = e^{i gamma} U(theta, phi, lam).

    U is the OpenQASM 3 builtin, U(theta, phi, lam) =
    e^{i (phi + lam) / 2} Rz(phi) Ry(theta) Rz(lam).
    """
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = 0.5 * math.atan2(det.imag, det.real)
    v = u * complex(math.cos(-alpha), math.sin(-alpha))
    theta = 2.0 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[0, 0]) < 1e-12:
        d = math.atan2(v[1, 0].imag, v[1, 0].real)
        phi, lam = d, -d
    elif abs(v[1, 0]) < 1e-12:
        s = math.atan2(v[1, 1].imag, v[1, 1].real)
        phi, lam = s, s
        theta = 0.0
    else:
        s = math.atan2(v[1, 1].imag, v[1, 1].real)
        d = math.atan2(v[1, 0].imag, v[1, 0].real)
        phi, lam = s + d, s - d
    gamma = alpha - 0.5 * (phi + lam)
    return theta, phi, lam, gamma


def circuit_to_qasm3(circuit: Circuit, model=None) -> str:
    """Text export.  Parameterized std gates reproduce the stored unitaries
    exactly (including phase, via one trailing ``gphase``).  Native ``uij``
    interactions have no std-gate body; they are emitted as named calls and
    documented in header comments, with coupling rows when ``model`` (a
    SpinModel whose edge order matches the uij edge metadata) is supplied.
    """
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    edges = circuit.interaction_edges()
    if edges:
        lines.append("// uij(tau) a, b is the target-defined interaction exp(-i tau H_ab):")
        by_pair = {}
        if model is not None:
            for term in model.edges:
                by_pair[(term.i, term.j)] = term
        for i, j in edges:
            lines.append(f"//   edge ({i}, {j})")
            term = by_pair.get((i, j))
            if term is not None:
                for a, row in zip("xyz", np.asarray(term.coupling.matrix)):
                    vals = ", ".join(format_float(float(x)) for x in row)
                    lines.append(f"//     J[{a},:] = [{vals}]")
        lines.append("")
    lines.append(f"qubit[{circuit.n}] q;")
    lines.append("")
    gphase_total = 0.0
    for layer in circuit.layers:
        for g in layer:
            if g.kind is GateKind.H:
                lines.append(f"h q[{g.qubits[0]}];")
            elif g.kind is GateKind.CX:
                lines.append(f"cx q[{g.qubits[0]}], q[{g.qubits[1]}];")
            elif g.kind in _ANGLE_KINDS:
                lines.append(
                    f"{g.kind.value}({format_float(g.angle)}) q[{g.qubits[0]}];"
                )
            elif g.kind is GateKind.U1Q:
                theta, phi, lam, gamma = _zyz(g.matrix)
                gphase_total += gamma
                args = ", ".join(format_float(x) for x in (theta, phi, lam))
                lines.append(f"U({args}) q[{g.qubits[0]}];")
            else:
                tau = 0.0 if g.tau is None else g.tau
                lines.append(
                    f"uij({format_float(tau)}) q[{g.qubits[0]}], q[{g.qubits[1]}];"
                )
    if abs(gphase_total) > 1e-15:
        lines.append(f"gphase({format_float(gphase_total)});")
    lines.append("")
    return "\n".join(lines)
