"""Shared fixtures and independent linear-algebra helpers.

The helpers here rebuild reference operators from raw Pauli matrices and
numpy kron products on purpose: tests must not verify the package against
its own embedding and exponentiation code.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULIS = (SX, SY, SZ)


def kron_chain(ops) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def pauli_at(p: np.ndarray, site: int, n: int) -> np.ndarray:
    """sigma at one site, identity elsewhere; site 0 is the leftmost factor."""
    return kron_chain([p if s == site else I2 for s in range(n)])


def ref_edge_hamiltonian(i: int, j: int, n: int, jmat, h_i=None, h_j=None) -> np.ndarray:
    """Independent 2^n embedding of one edge term, S = sigma/2 convention."""
    jmat = np.asarray(jmat, dtype=float)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for a in range(3):
        for b in range(3):
            if jmat[a, b] != 0.0:
                h += jmat[a, b] * (pauli_at(PAULIS[a], i, n) / 2) @ (pauli_at(PAULIS[b], j, n) / 2)
        if h_i is not None and h_i[a] != 0.0:
            h += h_i[a] * pauli_at(PAULIS[a], i, n) / 2
        if h_j is not None and h_j[a] != 0.0:
            h += h_j[a] * pauli_at(PAULIS[a], j, n) / 2
    return h


def ref_edge_terms(model) -> list[np.ndarray]:
    """Independent 2^n embedding of each edge term, row k of the model's stacks."""
    rows = zip(model.pairs.tolist(), model.coupling, model.h_i, model.h_j)
    return [ref_edge_hamiltonian(i, j, model.n, jmat, h_i, h_j) for (i, j), jmat, h_i, h_j in rows]


def ref_model_hamiltonian(model) -> np.ndarray:
    """Independent dense Hamiltonian of a whole model."""
    h = np.zeros((2**model.n, 2**model.n), dtype=complex)
    for term in ref_edge_terms(model):
        h += term
    return h


def ref_expm(h: np.ndarray, factor: complex = -1j) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(factor * w)) @ v.conj().T


def op_norm(a: np.ndarray) -> float:
    """Reference spectral norm straight from LAPACK."""
    return float(np.linalg.norm(a, 2))


def seeded_norm(a: np.ndarray, seed: int = 0xC0FFEE) -> float:
    """The oracle's seeded block power iteration, restated: 8 columns from one
    seeded draw, stopped once the top Ritz value of a^H a changes by at most
    1e-10.  ``spectral_norm`` without a carried block must return these bits
    wherever the block's Ritz values end apart."""
    a = np.asarray(a, dtype=complex)
    dim = a.shape[1]
    width = min(8, dim)
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((dim, width)) + 1j * rng.standard_normal((dim, width)))
    lam = 0.0
    for _ in range(1000):
        w = (a.T @ (a @ v).conj()).conj()
        ritz = v.conj().T @ w
        lam_new = float(np.linalg.eigvalsh(0.5 * (ritz + ritz.conj().T))[-1])
        v, _ = np.linalg.qr(w)
        if abs(lam_new - lam) <= 1e-10 * max(abs(lam_new), 1e-300):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    raise AssertionError("the seeded iteration did not settle")


def dist_up_to_phase(u: np.ndarray, target: np.ndarray) -> float:
    tr = np.trace(target.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return op_norm(u - phase * target)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


CX01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CX10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def _one_qubit_matrix(g) -> np.ndarray:
    """Own-convention 2x2 matrix of a gate: rotations are exp(-i theta P / 2)."""
    kind = g.kind.value
    if kind == "h":
        return HADAMARD
    if kind == "u1q":
        return np.asarray(g.matrix)
    pauli = {"rx": SX, "ry": SY, "rz": SZ}[kind]
    return ref_expm(pauli, -0.5j * g.angle)


def fragment_unitary(layers) -> np.ndarray:
    """Evaluate a two-qubit gate run (qubit labels 0 and 1) from raw matrices,
    independent of the package's playback code."""
    u = np.eye(4, dtype=complex)
    for layer in layers:
        for g in layer:
            kind = g.kind.value
            if kind == "cx":
                m = CX01 if g.qubits == (0, 1) else CX10
            elif kind == "uij":
                assert g.qubits == (0, 1)
                m = np.asarray(g.matrix)
            else:
                q = g.qubits[0]
                one = _one_qubit_matrix(g)
                m = np.kron(one, I2) if q == 0 else np.kron(I2, one)
            u = m @ u
    return u


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def heis_chain4():
    from trottersmith import build_lattice

    return build_lattice("chain", (4,))


@pytest.fixture
def memory_cap():
    """Caps this process's address space 2 GiB above its size for one test, so
    that an input meant to be refused before anything is allocated fails with
    MemoryError, not by exhausting the host, should the refusal regress.  A
    no-op where the platform has no such limit."""
    try:
        import resource

        with open("/proc/self/statm") as f:
            size = int(f.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 2**31 if soft == resource.RLIM_INFINITY else min(size + 2**31, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def heis_chain6():
    from trottersmith import build_lattice

    return build_lattice("chain", (6,))


@pytest.fixture
def xyz_square44():
    """(model, coloring, formula, m, t): 4x4 periodic XYZ square with a field,
    order 2, m=5, whose every edge takes the 6-CNOT (KAK) template."""
    from trottersmith import CouplingTensor, build_lattice, color_model, formula_for_order

    model = build_lattice("square", (4, 4), "periodic",
                          coupling=CouplingTensor.diagonal(1.0, 0.7, 0.4),
                          field=(0.3, 0.0, 0.5))
    col = color_model(model)
    return model, col, formula_for_order(2, col.num_classes), 5, 1.0


def edge_tau_slots(model, coloring, formula, m, t) -> tuple[set, int]:
    """Distinct (edge index, tau, sign of tau) keys of a schedule, and its
    edge-stage slot count; the sign keeps tau = +0.0 and -0.0 apart."""
    from trottersmith.trotter import expand

    slots = [(ei, s.tau, math.copysign(1.0, s.tau))
             for s in expand(formula, m, t, model.profile)
             for ei in coloring.classes[s.k - 1]]
    return set(slots), len(slots)


def kak_inputs(model, coloring, formula, m, t) -> set[bytes]:
    """Bytes of each distinct unitary that decomposed mode hands to the KAK
    template: the edge exponentials of every stage, stacked by class as the
    builder stacks them, of every edge that is not a field-free isotropic
    exchange (those take the closed-form 3-CNOT core)."""
    from trottersmith.model import edge_hamiltonians
    from trottersmith.synth import _expm_herm, _plain_exchange
    from trottersmith.trotter import expand

    hterms = edge_hamiltonians(model.coupling, model.h_i, model.h_j)
    plain = _plain_exchange(model.coupling, model.h_i, model.h_j)
    inputs = set()
    for s in expand(formula, m, t, model.profile):
        cls = coloring.classes[s.k - 1]
        us = _expm_herm(hterms[list(cls)], -1j * s.tau)
        inputs |= {u.tobytes() for ei, u in zip(cls, us) if not plain[ei]}
    return inputs


def ref_format_float(x: float) -> str:
    """The QASM and CSV float format, written the plain way: 17 significant
    digits, integral values below 1e16 with one decimal."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} has no text form")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def class_edge_cnots(model, coloring) -> list[list[int]]:
    """Each color class's per-edge template CNOTs, as ``estimate --model`` passes them."""
    from trottersmith.synth import template_cnots

    cnots = template_cnots(model)
    return [[cnots[e] for e in c] for c in coloring.classes]
