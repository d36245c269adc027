"""Layered gate-list IR with JSON round-tripping and OpenQASM 3 export.

A circuit is a sequence of layers; gates in one layer act on disjoint qubits
and run concurrently, so depth equals the layer count.  Qubit 0 is the
leftmost tensor factor.  Rotation conventions: rx/ry/rz(theta) apply
exp(-i theta P / 2) for the matching Pauli P, and cx lists the control
first.  Two gate kinds carry explicit matrices: ``u1q`` for an arbitrary
single-qubit unitary and ``uij`` for a native two-qubit interaction
exp(-i tau H_ij), stored evaluated so playback never re-exponentiates.

The JSON document is ``{"n", "depth", "gates", "layers"}``.  ``gates`` holds
each distinct gate once, in order of first use.  A product formula repeats a
few gate bodies (kind, angle, matrix, tau) on many qubit tuples, so only the
first entry with a body spells it out; a later entry with the same body is
``{"like": k, "qubits": [...]}``, where k is that first entry's index.  Each
layer is a list of indices into ``gates``, or, when an earlier layer has the
same list, that earlier layer's position as a bare int.  Both back-references
are keyed on content, so the bytes depend on the circuit and not on which
objects it shares, and the artifact scales with distinct bodies and rows.
Documents without ``like`` entries or int layers load as before.

A schedule repeats the same layer tuples from stage to stage; validation,
tallies, the JSON and QASM writers and the JSON loader visit each distinct
layer once.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

import numpy as np

from .jsonutil import (_has_bool, dump_json, format_float, json_document, json_int, json_real,
                       known_fields, real_stack)

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
    with np.errstate(all="ignore"):  # an infinite or huge entry deviates by inf or nan
        dev = float(np.max(np.abs(np.swapaxes(ms.conj(), -1, -2) @ ms - np.eye(dim))))
    if not dev <= UNITARITY_TOL:
        raise ValueError(f"{kind.value} matrix deviates from unitary by {dev:.2e}")


def _checked_qubits(kind: GateKind, qubits) -> tuple[int, ...]:
    """``qubits`` as a tuple of ints, never bools, checked against ``kind``'s
    arity, for repeats and for negative indices."""
    qs = tuple(map(json_int, qubits))
    if len(qs) != _ARITY[kind]:
        raise ValueError(f"{kind.value} takes {_ARITY[kind]} qubits, got {qs}")
    if len(set(qs)) != len(qs):
        raise ValueError(f"repeated qubit in {kind.value} gate: {qs}")
    if min(qs) < 0:
        raise ValueError(f"negative qubit index in {qs}")
    return qs


@dataclass(frozen=True, eq=False)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None
    tau: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        object.__setattr__(self, "qubits", _checked_qubits(self.kind, self.qubits))
        if self.kind in _ANGLE_KINDS:
            object.__setattr__(self, "angle", json_real(self.angle, f"{self.kind.value} angle"))
        elif self.angle is not None:
            raise ValueError(f"{self.kind.value} takes no angle")
        if self.kind in (GateKind.U1Q, GateKind.UIJ):
            dim = 2 if self.kind is GateKind.U1Q else 4
            m = np.asarray(self.matrix)  # reads a bool in Python rows as a number
            if m.dtype.kind != "c":  # real entries, or Python rows of them
                m = real_stack([self.matrix], m.shape, "gate matrix entries", finite=False)[0]
            elif not isinstance(self.matrix, np.ndarray) and _has_bool([self.matrix], m.ndim + 1):
                raise ValueError("gate matrix entries must be numbers, got a boolean")
            m = m.astype(complex)  # a copy the gate owns
            if m.shape != (dim, dim):
                raise ValueError(f"{self.kind.value} matrix must be {dim}x{dim}, got {m.shape}")
            _check_unitary(m, self.kind)
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise ValueError(f"{self.kind.value} takes no matrix")
        if self.tau is not None:
            if self.kind is not GateKind.UIJ:
                raise ValueError("tau metadata is only valid on uij gates")
            object.__setattr__(self, "tau", json_real(self.tau, "uij tau"))

    def unitary(self) -> np.ndarray:
        """The gate's matrix on its own qubits, first-listed qubit leftmost."""
        if self.kind is GateKind.H:
            return _H.copy()
        if self.kind is GateKind.CX:
            return _CX.copy()
        if self.kind in _ANGLE_KINDS:
            return _rotation(self.kind, self.angle)
        return self.matrix.copy()


def _unchecked_gate(kind: GateKind, qubits: tuple[int, ...], angle: float | None = None,
                    matrix: np.ndarray | None = None, tau: float | None = None) -> Gate:
    """A Gate that skips :class:`Gate`'s checks, for fields already checked:
    a stack of matrices checked as a whole, a checked gate moved to other
    qubits, or a checked product.  The fields must be what the checks leave:
    a GateKind, a tuple of ints, floats and a read-only complex matrix."""
    g = object.__new__(Gate)
    g.__dict__.update(kind=kind, qubits=qubits, angle=angle, matrix=matrix, tau=tau)
    return g


def _uij_gates(pairs, us: np.ndarray, tau: float) -> tuple[Gate, ...]:
    """One uij gate per edge (i, j) with 0 <= i < j, all run for one tau.

    The (E, 4, 4) stack ``us`` is copied and checked for unitarity once, as
    a whole, with the message :class:`Gate` gives; the gates then hold
    read-only views of the copy and skip the per-gate check.
    """
    us = np.array(us, dtype=complex)
    _check_unitary(us, GateKind.UIJ)
    tau = json_real(tau, "uij tau")
    us.flags.writeable = False
    return tuple(_unchecked_gate(GateKind.UIJ, (int(i), int(j)), matrix=u, tau=tau)
                 for (i, j), u in zip(pairs, us))


@dataclass(frozen=True, eq=False)
class Circuit:
    n: int
    layers: tuple[tuple[Gate, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = json_int(self.n)
        if n < 1:
            raise ValueError(f"circuit needs at least one qubit, got n={n}")
        object.__setattr__(self, "n", n)
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        # layers are immutable tuples, so a repeated one needs no second check
        checked: set[int] = set()
        for li, layer in enumerate(layers):
            if id(layer) in checked:
                continue
            checked.add(id(layer))
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

    def _layer_uses(self) -> dict[int, tuple[tuple[Gate, ...], int]]:
        """Each distinct layer object, keyed on its ``id``, with how often it
        appears, in order of first appearance."""
        uses = Counter(map(id, self.layers))
        return {id(layer): (layer, uses[id(layer)]) for layer in self.layers}


def counts(circuit: Circuit) -> dict:
    """Tally of a circuit: depth, totals, and per-kind gate counts."""
    by_kind = {kind.value: 0 for kind in GateKind}
    for layer, uses in circuit._layer_uses().values():
        for g in layer:
            by_kind[g.kind.value] += uses
    return {
        "depth": circuit.depth,
        "total": sum(by_kind.values()),
        "cx": by_kind[GateKind.CX.value],
        "interaction": by_kind[GateKind.UIJ.value],
        "by_kind": by_kind,
    }


# --- JSON ------------------------------------------------------------------

def _gate_to_obj(g: Gate) -> dict:
    obj: dict = {"kind": g.kind.value, "qubits": list(g.qubits)}
    if g.angle is not None:
        obj["angle"] = g.angle
    if g.matrix is not None:
        obj["matrix"] = np.stack([g.matrix.real, g.matrix.imag], -1).tolist()
    if g.tau is not None:
        obj["tau"] = g.tau
    return obj


def _gate_from_obj(obj: dict) -> Gate:
    matrix = obj.get("matrix")
    if "matrix" in obj:  # [re, im] pairs; a complex view keeps a -0.0 that re + 1j * im loses
        matrix = real_stack(matrix, (len(matrix), 2), "gate matrix entries", finite=False)
        matrix = matrix.view(complex)[..., 0]
    return Gate(
        kind=GateKind(obj["kind"]),
        qubits=tuple(obj["qubits"]),
        angle=obj.get("angle"),
        matrix=matrix,
        tau=obj.get("tau"),
    )


def _body_key(g: Gate) -> tuple:
    """Equal for two gates exactly when their documents, qubits aside, are
    equal; floats enter by their bits, which tells -0.0 from 0.0."""
    return (g.kind,
            None if g.angle is None else g.angle.hex(),
            None if g.tau is None else g.tau.hex(),
            None if g.matrix is None else g.matrix.tobytes())


def circuit_to_json(circuit: Circuit) -> str:
    """Serialize a circuit.  Table entries are keyed on qubits and
    :func:`_body_key`, ``like`` references on the body alone and layer
    references on the row of indices, so the bytes depend on gate content and
    not on which ``Gate`` objects or layer tuples are shared."""
    gates: list[dict] = []
    by_key: dict[tuple, int] = {}
    first_with_body: dict[tuple, int] = {}
    by_id: dict[int, int] = {}

    def index(g: Gate) -> int:
        k = by_id.get(id(g))
        if k is None:
            body = _body_key(g)
            k = by_id[id(g)] = by_key.setdefault((g.qubits, body), len(gates))
            if k == len(gates):
                like = first_with_body.setdefault(body, k)
                gates.append(_gate_to_obj(g) if like == k
                             else {"like": like, "qubits": list(g.qubits)})
        return k

    rows = {key: tuple(map(index, layer)) for key, (layer, _) in circuit._layer_uses().items()}
    first_with_row: dict[tuple[int, ...], int] = {}
    layers: list = []
    for pos, layer in enumerate(circuit.layers):
        row = rows[id(layer)]
        first = first_with_row.setdefault(row, pos)
        layers.append(list(row) if first == pos else first)
    return dump_json({"n": circuit.n, "depth": circuit.depth, "gates": gates, "layers": layers})


_CIRCUIT_FIELDS = frozenset({"n", "depth", "gates", "layers"})
# older uij documents repeat ``qubits`` as ``edge``; it is accepted and ignored
_GATE_FIELDS = frozenset({"kind", "qubits", "angle", "matrix", "tau", "edge", "like"})
_LIKE_FIELDS = frozenset({"like", "qubits"})


def circuit_from_json(text: str) -> Circuit:
    """Parse and validate a circuit document; the trust boundary for circuits.

    ``n``, ``depth``, gate qubits, ``like`` references and every layer entry
    must be JSON integers, and every layer a list or an int.  Each full
    table entry goes through :class:`Gate` and its full checks once, and
    every slot that indexes it shares that ``Gate``.  A ``like`` entry must
    name an earlier entry and carry only ``qubits``; its qubits are checked
    as :class:`Gate` checks them, and it shares that entry's checked body.
    Each distinct layer row is range-checked and built once, and every layer
    that repeats it, as a list or as an int ``0 <= L < position``, shares
    that tuple.  An index outside ``0 <= k < len(gates)`` is rejected.
    """
    with json_document(text, "circuit") as obj:
        known_fields([obj], _CIRCUIT_FIELDS, "circuit document")
        known_fields(obj["gates"], _GATE_FIELDS, "gate")
        gates: list[Gate] = []
        for i, entry in enumerate(obj["gates"]):
            if "like" not in entry:
                gates.append(_gate_from_obj(entry))
                continue
            if entry.keys() != _LIKE_FIELDS:
                raise ValueError(f"gate entry {i} is a like entry, which carries only qubits")
            k = json_int(entry["like"])
            if not 0 <= k < i:
                raise ValueError(f"gate entry {i} is like entry {k}, which is not an earlier one")
            g = gates[k]
            gates.append(_unchecked_gate(g.kind, _checked_qubits(g.kind, entry["qubits"]),
                                         g.angle, g.matrix, g.tau))
        built: dict[tuple[int, ...], tuple[Gate, ...]] = {}
        layers: list[tuple[Gate, ...]] = []
        for pos, row in enumerate(obj["layers"]):
            if type(row) is int:
                if not 0 <= row < pos:
                    raise ValueError(f"layer {pos} repeats layer {row}, which is not an earlier one")
                layers.append(layers[row])
                continue
            if type(row) is not list:
                raise ValueError("circuit layers must be lists of gate indices or earlier "
                                 "layer positions")
            # true and 1.0 would hash as 1 does; json_int refuses them
            key = tuple(row) if set(map(type, row)) <= {int} else tuple(map(json_int, row))
            layer = built.get(key)
            if layer is None:
                bad = [k for k in key if not 0 <= k < len(gates)]
                if bad:
                    raise ValueError(
                        f"gate index {bad[0]} out of range for a table of {len(gates)}")
                layer = built[key] = tuple(gates[k] for k in key)
            layers.append(layer)
        circ = Circuit(n=obj["n"], layers=layers)
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


def _qasm_layer(layer: tuple[Gate, ...]) -> tuple[list[str], list[float]]:
    """One layer's QASM lines, and the global phase of each u1q in it."""
    lines, gammas = [], []
    for g in layer:
        if g.kind is GateKind.H:
            lines.append(f"h q[{g.qubits[0]}];")
        elif g.kind is GateKind.CX:
            lines.append(f"cx q[{g.qubits[0]}], q[{g.qubits[1]}];")
        elif g.kind in _ANGLE_KINDS:
            lines.append(f"{g.kind.value}({format_float(g.angle)}) q[{g.qubits[0]}];")
        elif g.kind is GateKind.U1Q:
            theta, phi, lam, gamma = _zyz(g.matrix)
            gammas.append(gamma)
            args = ", ".join(format_float(x) for x in (theta, phi, lam))
            lines.append(f"U({args}) q[{g.qubits[0]}];")
        else:
            tau = 0.0 if g.tau is None else g.tau
            lines.append(f"uij({format_float(tau)}) q[{g.qubits[0]}], q[{g.qubits[1]}];")
    return lines, gammas


def circuit_to_qasm3(circuit: Circuit, model_sha256: str | None = None) -> str:
    """Text export.  Parameterized std gates reproduce the stored unitaries
    exactly (including phase, via one trailing ``gphase``).  Native ``uij``
    interactions have no std-gate body; they are emitted as named calls and
    defined in a header comment.  When ``model_sha256``, the hex SHA-256 of
    the model file's bytes, is supplied, a header line names the model by
    it, after the ``uij`` definition if there is one.  Each distinct layer
    tuple is rendered once.
    """
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    uses = circuit._layer_uses()
    if any(g.kind is GateKind.UIJ for layer, _ in uses.values() for g in layer):
        lines.append("// uij(tau) a, b is the target-defined interaction exp(-i tau H_ab):")
    if model_sha256 is not None:
        lines.append(f"// model sha256={model_sha256}")
    if len(lines) > 2:  # a header ends in a blank line
        lines.append("")
    lines.append(f"qubit[{circuit.n}] q;")
    lines.append("")
    rendered = {key: _qasm_layer(layer) for key, (layer, _) in uses.items()}
    gphase_total = 0.0
    for layer in circuit.layers:
        text, gammas = rendered[id(layer)]
        lines.extend(text)
        for gamma in gammas:  # in slot order, so the sum's rounding never changes
            gphase_total += gamma
    if abs(gphase_total) > 1e-15:
        lines.append(f"gphase({format_float(gphase_total)});")
    lines.append("")
    return "\n".join(lines)
