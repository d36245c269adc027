"""Dense reference evolution, statevector playback, and norm utilities.

Everything here is exact up to floating point and deliberately small-scale:
dense operators are capped at DEFAULT_ORACLE_LIMIT qubits (overridable through
the TROTTERSMITH_ORACLE_LIMIT environment variable) and statevector playback
at STATEVECTOR_LIMIT.  One kernel, ``_apply_local``, puts every local operator
onto the n qubits: edge terms into H, the product formula's 4x4 edge
exponentials into the running unitary edge by edge, and gates into a
statevector.  These routines are the measuring stick the compiled circuits
are judged against, so they share no code with the synthesis path.
"""
from __future__ import annotations

import os

import numpy as np

from .circuits import Circuit, Gate
from .coloring import EdgeColoring
from .model import SpinModel, term_hamiltonian
from .trotter import ProductFormula, expand

DEFAULT_ORACLE_LIMIT = 12
STATEVECTOR_LIMIT = 20

NORM_SEED = 0xC0FFEE
NORM_MAX_ITERS = 1000
NORM_RTOL = 1e-10
NORM_BLOCK = 8


def _oracle_limit() -> int:
    raw = os.environ.get("TROTTERSMITH_ORACLE_LIMIT")
    return DEFAULT_ORACLE_LIMIT if raw is None else int(raw)


def _check_dense(n: int) -> None:
    limit = _oracle_limit()
    if n > limit:
        raise ValueError(
            f"dense oracle is capped at {limit} sites (requested n={n}); "
            "raise TROTTERSMITH_ORACLE_LIMIT to override"
        )


def _apply_local(op: np.ndarray, qubits: tuple[int, ...], block: np.ndarray) -> np.ndarray:
    """Apply a k-qubit operator to ``qubits`` of a (2**n,) or (2**n, b) array.

    The array is viewed with one axis per qubit (site 0 leftmost, any column
    axis last), the operator's first tensor factor acts on ``qubits[0]``, and
    only the 2^k x 2^k matrix is contracted in.
    """
    n = int(block.shape[0]).bit_length() - 1
    k = len(qubits)
    psi = block.reshape((2,) * n + block.shape[1:])
    res = np.tensordot(
        op.reshape((2,) * (2 * k)), psi, axes=(list(range(k, 2 * k)), list(qubits))
    )
    return np.moveaxis(res, list(range(k)), list(qubits)).reshape(block.shape)


def expm_hermitian(h: np.ndarray, factor: complex = -1j) -> np.ndarray:
    """exp(factor * h) for Hermitian h, via the spectral decomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(factor * w)) @ v.conj().T


def total_hamiltonian(model: SpinModel) -> np.ndarray:
    """Dense H = sum of edge terms, fields included (profile factored out)."""
    _check_dense(model.n)
    eye = np.eye(2**model.n, dtype=complex)
    h = np.zeros_like(eye)
    for term in model.edges:
        h += _apply_local(term_hamiltonian(term), (term.i, term.j), eye)
    return h


def exact_evolution(model: SpinModel, t: float) -> np.ndarray:
    """exp(-i t H).  Only defined for a constant time profile."""
    if not model.profile.is_constant:
        raise ValueError(
            "exact evolution needs a constant profile; use reference_evolution"
        )
    return expm_hermitian(total_hamiltonian(model), -1j * t)


def reference_evolution(model: SpinModel, t: float, m_ref: int) -> np.ndarray:
    """Time-ordered evolution on an m_ref-step grid, left-endpoint sampling.

    A profile scales all of H, so the steps commute and their product is one
    exponential of H over the summed step durations.  Exact for a constant
    profile (any m_ref); for a piecewise profile this is the reference the
    compiled circuits aim at.
    """
    if m_ref < 1:
        raise ValueError("m_ref must be >= 1")
    total = sum(model.profile.factor_at_fraction(p / m_ref) for p in range(m_ref))
    return expm_hermitian(total_hamiltonian(model), -1j * t * (total / m_ref))


def spectral_norm(
    a: np.ndarray,
    seed: int = NORM_SEED,
    max_iters: int = NORM_MAX_ITERS,
    rtol: float = NORM_RTOL,
) -> float:
    """Largest singular value by seeded block power iteration on a^H a.

    The block absorbs clustered top singular values, which would stall a
    single-vector iteration.  Deterministic for a fixed seed.  Raises
    RuntimeError if the iteration has not stabilized to ``rtol`` within
    ``max_iters`` sweeps.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    dim = a.shape[1]
    block = min(NORM_BLOCK, dim)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dim, block)) + 1j * rng.standard_normal((dim, block))
    v, _ = np.linalg.qr(v)
    lam = 0.0
    for _ in range(max_iters):
        w = a.conj().T @ (a @ v)
        if not np.any(w):
            return 0.0
        ritz = v.conj().T @ w
        lam_new = float(np.linalg.eigvalsh(0.5 * (ritz + ritz.conj().T))[-1])
        v, _ = np.linalg.qr(w)
        if abs(lam_new - lam) <= rtol * max(abs(lam_new), 1e-300):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    raise RuntimeError(
        f"power iteration did not converge within {max_iters} sweeps"
    )


def formula_unitary(
    model: SpinModel,
    coloring: EdgeColoring,
    formula: ProductFormula,
    m: int,
    t: float,
) -> np.ndarray:
    """Dense product-formula unitary; the first scheduled stage acts first.

    A class's edges are disjoint, so each stage is applied edge by edge as
    4x4 exponentials contracted into the running unitary's columns.
    """
    if formula.num_classes != coloring.num_classes:
        raise ValueError(
            f"formula has K={formula.num_classes} but coloring has {coloring.num_classes}"
        )
    _check_dense(model.n)
    local = [
        [(model.edges[ei], term_hamiltonian(model.edges[ei])) for ei in cls]
        for cls in coloring.classes
    ]
    u = np.eye(2**model.n, dtype=complex)
    for stage in expand(formula, m, t, model.profile):
        for e, h in local[stage.k - 1]:
            u = _apply_local(expm_hermitian(h, -1j * stage.tau), (e.i, e.j), u)
    return u


def trotter_error(
    model: SpinModel,
    coloring: EdgeColoring,
    formula: ProductFormula,
    m: int,
    t: float,
    reference: np.ndarray | None = None,
    seed: int = NORM_SEED,
) -> float:
    """Spectral-norm distance between the product formula and the target.

    ``reference`` defaults to the exact evolution, which requires a constant
    profile; pass an explicit reference matrix otherwise.  ``seed`` drives
    the norm's power iteration.
    """
    if reference is None:
        reference = exact_evolution(model, t)
    approx = formula_unitary(model, coloring, formula, m, t)
    return spectral_norm(approx - reference, seed=seed)


# --- statevector playback --------------------------------------------------

def _check_state(n: int) -> None:
    if n > STATEVECTOR_LIMIT:
        raise ValueError(
            f"statevector playback is capped at {STATEVECTOR_LIMIT} qubits, got n={n}"
        )


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a state of shape (2**n,) or a batch (2**n, b).

    The state is reshaped to one axis per qubit and only the gate's own
    small matrix is contracted in; the full 2^n operator is never built.
    """
    state = np.asarray(state, dtype=complex)
    n = int(state.shape[0]).bit_length() - 1
    if state.shape[0] != 2**n:
        raise ValueError(f"state dimension {state.shape[0]} is not a power of two")
    _check_state(n)
    if any(q >= n for q in gate.qubits):
        raise ValueError(f"gate on qubits {gate.qubits} does not fit n={n}")
    return _apply_local(gate.unitary(), gate.qubits, state)


def run_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Play a circuit on a statevector (or batch of column statevectors)."""
    state = np.asarray(state, dtype=complex)
    dim = 2**circuit.n
    if state.shape[0] != dim:
        raise ValueError(f"state has dimension {state.shape[0]}, circuit needs {dim}")
    for layer in circuit.layers:
        for g in layer:
            state = apply_gate(state, g)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of the circuit, by batched playback."""
    _check_dense(circuit.n)
    return run_circuit(np.eye(2**circuit.n, dtype=complex), circuit)


def phase_distance(u: np.ndarray, target: np.ndarray, seed: int = NORM_SEED) -> float:
    """||u - e^{i phi} target|| in spectral norm at phi = arg tr(target^H u).

    That phase minimizes the Frobenius distance, not the spectral one, so the
    result is an upper bound on the minimum over phi of the spectral distance.
    """
    u = np.asarray(u, dtype=complex)
    target = np.asarray(target, dtype=complex)
    tr = np.trace(target.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return spectral_norm(u - phase * target, seed=seed)
