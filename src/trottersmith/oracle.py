"""Dense reference evolution, statevector playback, and norm utilities.

Everything here is exact up to floating point and deliberately small-scale:
dense operators are capped at DEFAULT_ORACLE_LIMIT qubits (overridable through
the TROTTERSMITH_ORACLE_LIMIT environment variable) and statevector playback
at STATEVECTOR_LIMIT.  One kernel, ``_apply_local``, puts every local operator
onto the n qubits with a single matmul: edge terms into H, the product
formula's 4x4 edge exponentials into the running unitary (each distinct
stage exponentiated once), and fused gate blocks into a statevector.
Consecutive ascending targets, such as every chain edge, are contracted
through a copy-free view; other targets are moved to the front and back.
Under a constant profile the product formula walks only the first m / 2^s
of its m equal steps and squares that unitary s times: halving m saves
the walk of half the steps, and one 2^n x 2^n matmul costs as much as
about 2^(n-4) edge applications up to n = 8 and 2^(n-5) from n = 9 on, so
the cost is O(E 4^n) per walked step plus O(8^n) per squaring.  Every
Hermitian exponential, of H or of a stack of edge terms, uses the real
symmetric eigensolver when the matrix has no imaginary part, and a zero
factor (t = 0, or a piecewise step of factor 0) gives the exact identity.
The spectral norm is a seeded block power iteration on a^H a.  Across a
step grid the caller can carry one block from point to point, so each
point starts from its predecessor's top Ritz vectors beside half the
seeded draw: the error operators of neighbouring m share their leading
nested commutators, and chain-9's order-2 grid 4..32 takes 23, 8, 6 and 5
sweeps instead of 23 each.  An iteration that does not settle within
NORM_MAX_ITERS sweeps, a measured budget, or settles on clustered Ritz
values, as where an error nears its ceiling of 2, ends in LAPACK's norm.
Playback first multiplies a circuit's gates into blocks on at most two
qubits, so a compiled edge fragment costs one contraction, not one per gate.
These routines are the measuring stick the compiled circuits are judged
against, so they share no code with the synthesis path.  ``exact_evolution``
is the reference for every time profile: a profile scales all of H, so the
steps of a piecewise table commute into one exponential.
"""
from __future__ import annotations

import logging
import math
import os

import numpy as np

from .circuits import Circuit, Gate
from .coloring import EdgeColoring
from .jsonutil import json_int, json_real
from .model import ID2, SpinModel, edge_hamiltonians
from .trotter import ProductFormula, class_uses, expand

DEFAULT_ORACLE_LIMIT = 12
STATEVECTOR_LIMIT = 20

NORM_SEED = 0xC0FFEE
# sweeps before the exact LAPACK fallback: over some 80,000 `verify` grid norms
# (random XYZ+field chains and rings, 3-8 sites, orders 1, 2, 4) the longest
# trusted stop took 180; stops on clustered values took 337-675
NORM_MAX_ITERS = 200
NORM_RTOL = 1e-10
NORM_BLOCK = 8
# a stop is trusted only if the block's smallest Ritz value is at most this
# share of its largest: the top then converges at least as fast as 0.95 per
# sweep, and the tail a stop leaves, NORM_RTOL * 0.95 / 0.05, is 2e-9 of a^H a's
# norm, 1e-9 of a's
NORM_CLUSTER = 0.95

logger = logging.getLogger(__name__)


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
    only the 2^k x 2^k matrix is contracted in.  Consecutive ascending
    targets (q0, q0+1, ...) are one middle axis of a copy-free
    (2**q0, 2**k, rest) view, contracted by one stacked matmul; any other
    targets are moved to the front and back around one matmul.
    """
    k = len(qubits)
    q0 = qubits[0]
    if qubits == tuple(range(q0, q0 + k)):
        return (op @ block.reshape(2**q0, 2**k, -1)).reshape(block.shape)
    n = int(block.shape[0]).bit_length() - 1
    front = range(k)
    psi = np.moveaxis(block.reshape((2,) * n + block.shape[1:]), qubits, front)
    res = (op @ psi.reshape(2**k, -1)).reshape(psi.shape)
    return np.moveaxis(res, front, qubits).reshape(block.shape)


def expm_hermitian(h: np.ndarray, factor: complex = -1j) -> np.ndarray:
    """exp(factor * h) for Hermitian h, or each of a stack (..., d, d).

    Computed via the spectral decomposition, by the real symmetric solver
    when h has no imaginary part (an XYZ model whose field has no y
    component, say), which is several times faster than the complex one.
    A zero factor gives the exact identity, not the roundoff of V V^H.
    """
    if factor == 0:
        return np.broadcast_to(np.eye(h.shape[-1], dtype=complex), h.shape).copy()
    if not h.imag.any():
        h = h.real
    w, v = np.linalg.eigh(h)
    return (v * np.exp(factor * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def total_hamiltonian(model: SpinModel) -> np.ndarray:
    """Dense H = sum of edge terms, fields included (profile factored out)."""
    _check_dense(model.n)
    eye = np.eye(2**model.n, dtype=complex)
    h = np.zeros_like(eye)
    hterms = edge_hamiltonians(model.coupling, model.h_i, model.h_j)
    for pair, h4 in zip(model.edges, hterms):
        h += _apply_local(h4, pair, eye)
    return h


def exact_evolution(model: SpinModel, t: float) -> np.ndarray:
    """exp(-i t H f), f the mean of a piecewise profile's table (1 if constant).

    A profile scales all of H, so the steps of its table commute and their
    product is this one exponential: the target a piecewise circuit aims at.
    Raises ValueError unless t is finite, and when t f overflows a float.
    """
    t = json_real(t, "t")
    factors = model.profile.factors or (1.0,)
    mean = sum(factors) / len(factors)
    if not math.isfinite(t * mean):
        raise ValueError(f"t={t} times the mean profile factor {mean} overflows a float")
    return expm_hermitian(total_hamiltonian(model), -1j * t * mean)


def spectral_norm(a: np.ndarray, seed: int = NORM_SEED, *,
                  block: np.ndarray | None = None) -> float:
    """Largest singular value by seeded block power iteration on a^H a.

    The block absorbs clustered top singular values, which would stall a
    single-vector iteration.  Deterministic for a fixed seed.  The
    iteration stops once the top Ritz value changes by at most NORM_RTOL of
    itself (on two sweeps in a row from a carried start, once from a
    seeded one).  Its result is kept when the block's smallest Ritz value
    is at most NORM_CLUSTER of its largest (or the block spans the whole
    space).  Otherwise, or if it has
    not stopped within NORM_MAX_ITERS sweeps, the norm is LAPACK's
    ``np.linalg.norm(a, 2)``.  Both happen where the top singular values
    cluster more widely than the block, as where a Trotter error nears its
    ceiling of 2 or a symmetric error acts on a few of many sites.

    ``block`` is an optional in/out complex array of shape
    (a.shape[1], min(NORM_BLOCK, a.shape[1])), like numpy's ``out=``.  All
    zeros carries nothing: the iteration starts from the seeded draw, as
    without it.  Otherwise the start is the block's first half of columns
    beside the draw's first half, so a nearby operator (the next m of a
    step grid) starts in its predecessor's top singular subspace, while the
    seeded half keeps a cold start's component in every direction.  On
    return the block holds the top Ritz vectors, largest first, or zeros
    after a LAPACK fallback: Ritz vectors inside a cluster are a mixture,
    and a start from them stops before its seeded half can show the
    cluster.  Each call logs its sweep count, its start and any fallback on
    this module's logger.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("spectral_norm expects a matrix")
    dim = a.shape[1]
    width = min(NORM_BLOCK, dim)
    if block is not None and block.shape != (dim, width):
        raise ValueError(f"norm block has shape {block.shape}, expected {(dim, width)}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dim, width)) + 1j * rng.standard_normal((dim, width))
    start = "carried" if block is not None and block.any() else "seeded"
    if start == "carried":
        half = width // 2
        v = np.concatenate([block[:, :half], v[:, :width - half]], axis=1)
    v, _ = np.linalg.qr(v)
    # a carried half converges within a sweep or two, ahead of the seeded
    # half, and one small change can be the dip between the two
    needed = 1 if start == "seeded" else 2
    lam, quiet = 0.0, 0
    for sweep in range(1, NORM_MAX_ITERS + 1):
        w = (a.T @ (a @ v).conj()).conj()  # a^H (a v) without a copy of a^H
        if not np.any(w):
            logger.info("norm: zero matrix, %s start", start)
            return 0.0
        ritz = v.conj().T @ w
        ritz = 0.5 * (ritz + ritz.conj().T)
        ritz_values = np.linalg.eigvalsh(ritz)
        lam_new = float(ritz_values[-1])
        small = abs(lam_new - lam) <= NORM_RTOL * max(abs(lam_new), 1e-300)
        quiet = quiet + 1 if small else 0
        if quiet == needed or sweep == NORM_MAX_ITERS:
            break
        v, _ = np.linalg.qr(w)
        lam = lam_new
    if quiet < needed:
        reason = f"did not settle within {NORM_MAX_ITERS} sweeps"
    elif width < dim and ritz_values[0] > NORM_CLUSTER * lam_new:
        reason = f"settled after {sweep} sweeps on clustered Ritz values"
    else:
        if block is not None:
            block[:] = v @ np.linalg.eigh(ritz)[1][:, ::-1]
        logger.info("norm: %d sweeps from a %s start", sweep, start)
        return float(np.sqrt(max(lam_new, 0.0)))
    if block is not None:
        block[:] = 0.0
    logger.info("norm: %s start %s; LAPACK fallback", start, reason)
    return float(np.linalg.norm(a, 2))


def _squarings(formula: ProductFormula, sizes: list[int], m: int, n: int) -> int:
    """How often ``formula_unitary`` squares: s with U(m) = U(m / 2^s)^(2^s).

    One squaring replaces the walk of the second half of the steps, whose
    stages cost cost(m) - cost(m / 2) edge applications, cost(m) being
    sum_k class_uses(formula, m)[k] * |class k|; m is halved while it is
    even and that saving is at least the cost of one 2^n x 2^n complex
    matmul, taken as 2^(n-4) edge applications up to n = 8 and 2^(n-5)
    beyond.  Measured on 2 vCPUs with OpenBLAS, a matmul cost at most 1
    edge application up to n = 5 and about 3, 5, 8-10, 10-15, 18-30, 21-26
    and 49-58 at n = 6 to 12: more than 2^(n-5) while the matrix is small,
    and well under it beyond, where each edge application streams the
    whole matrix from memory.  The rule is at or above every measurement
    (a saving is a whole number, so below n = 5 any halving that saves an
    edge application squares), so by these measurements no squaring costs
    more than the walk it replaces.  Raises ValueError unless m >= 1.
    """
    def cost(steps: int) -> int:
        return sum(u * size for u, size in zip(class_uses(formula, steps), sizes))

    matmul = 2.0 ** (n - 4 if n <= 8 else n - 5)
    squarings, walked = 0, cost(m)
    while m % 2 == 0:
        half = cost(m // 2)
        if walked - half < matmul:
            break
        m, walked, squarings = m // 2, half, squarings + 1
    return squarings


def formula_unitary(
    model: SpinModel,
    coloring: EdgeColoring,
    formula: ProductFormula,
    m: int,
    t: float,
) -> np.ndarray:
    """Dense product-formula unitary; the first scheduled stage acts first.

    Under a constant profile every step is the same S(t/m), so for a
    formula of more than one class U(m) = U(m / 2^s)^(2^s): the walk covers
    m / 2^s steps of t / 2^s and the result is squared s times, s from
    :func:`_squarings`.  A piecewise profile, an odd m and a one-class
    formula (whose steps merge into one exact exponential) are walked in
    full.  A class's edges are disjoint, so each walked stage is applied
    edge by edge as 4x4 exponentials contracted into the running unitary's
    columns.  Each distinct (class, tau) stage is exponentiated once, by
    one stacked ``eigh`` over the class's edge terms.  At most two
    2^n x 2^n work matrices are alive while squaring.
    """
    if formula.num_classes != coloring.num_classes:
        raise ValueError(
            f"formula has K={formula.num_classes} but coloring has {coloring.num_classes}"
        )
    _check_dense(model.n)
    m, t = json_int(m, "m"), json_real(t, "t")
    squarings = 0
    if formula.num_classes > 1 and model.profile.is_constant:
        squarings = _squarings(formula, [len(cls) for cls in coloring.classes], m, model.n)
    hterms = edge_hamiltonians(model.coupling, model.h_i, model.h_j)
    pairs = [[model.edges[ei] for ei in cls] for cls in coloring.classes]
    terms = [hterms[list(cls)] for cls in coloring.classes]
    stage_ops: dict[tuple[int, float], np.ndarray] = {}
    u = np.eye(2**model.n, dtype=complex)
    for stage in expand(formula, m >> squarings, t / 2**squarings, model.profile):
        key = (stage.k, stage.tau)
        ops = stage_ops.get(key)
        if ops is None:
            ops = stage_ops[key] = expm_hermitian(terms[stage.k - 1], -1j * stage.tau)
        for pair, op in zip(pairs[stage.k - 1], ops):
            u = _apply_local(op, pair, u)
    work = np.empty_like(u) if squarings else None
    for _ in range(squarings):
        np.matmul(u, u, out=work)
        u, work = work, u
    return u


def trotter_error(
    model: SpinModel,
    coloring: EdgeColoring,
    formula: ProductFormula,
    m: int,
    t: float,
    reference: np.ndarray | None = None,
    seed: int = NORM_SEED,
    *,
    block: np.ndarray | None = None,
) -> float:
    """Spectral-norm distance between the product formula and the target.

    ``reference`` defaults to ``exact_evolution(model, t)``, for any profile;
    pass it to reuse one matrix across a step grid.  ``seed`` drives the
    norm's power iteration, and ``block`` is :func:`spectral_norm`'s in/out
    start block: pass one across a step grid to carry each point's top
    singular subspace to the next.
    """
    if reference is None:
        reference = exact_evolution(model, t)
    diff = formula_unitary(model, coloring, formula, m, t)
    diff -= reference
    return spectral_norm(diff, seed=seed, block=block)


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


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b for two 2x2 matrices, without the overhead of ``np.kron``."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _swap_factors(u: np.ndarray) -> np.ndarray:
    """A 4x4 operator with its two tensor factors exchanged."""
    return u.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def run_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Play a circuit on a statevector (or batch of column statevectors).

    The layers are walked once and fused into blocks on at most two qubits:
    one-qubit gates fold into the open block on their qubit, and two-qubit
    gates on the same pair, in either order, multiply into one 4x4 block.
    A block is applied only when a gate on another pair needs one of its
    qubits, or at the end.  Open blocks act on disjoint qubits, so they
    commute and the order they are applied in does not matter.
    """
    state = np.asarray(state, dtype=complex)
    dim = 2**circuit.n
    if state.shape[0] != dim:
        raise ValueError(f"state has dimension {state.shape[0]}, circuit needs {dim}")
    _check_state(circuit.n)
    unitaries: dict[Gate, np.ndarray] = {}
    open_blocks: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}

    def flush(q: int) -> None:
        nonlocal state
        qubits, op = open_blocks[q]
        for p in qubits:
            del open_blocks[p]
        state = _apply_local(op, qubits, state)

    for g in circuit.all_gates():
        u = unitaries.get(g)
        if u is None:
            u = unitaries[g] = g.unitary()
        if len(g.qubits) == 1:
            (q,) = g.qubits
            block = open_blocks.get(q)
            if block is None:
                block = (g.qubits, u)
            elif len(block[0]) == 1:
                block = (block[0], u @ block[1])
            else:
                qubits, op = block
                lifted = _kron2(u, ID2) if q == qubits[0] else _kron2(ID2, u)
                block = (qubits, lifted @ op)
        else:
            a, b = g.qubits
            block_a, block_b = open_blocks.get(a), open_blocks.get(b)
            if block_a is not None and block_a is block_b:
                qubits, op = block_a
                block = (qubits, (u if qubits == (a, b) else _swap_factors(u)) @ op)
            else:
                ops = []
                for q, side in ((a, block_a), (b, block_b)):
                    if side is not None and len(side[0]) == 2:
                        flush(q)
                        side = None
                    ops.append(ID2 if side is None else side[1])
                block = ((a, b), u @ _kron2(ops[0], ops[1]))
        for q in block[0]:
            open_blocks[q] = block
    while open_blocks:
        flush(next(iter(open_blocks)))
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of the circuit, by batched playback."""
    _check_dense(circuit.n)
    return run_circuit(np.eye(2**circuit.n, dtype=complex), circuit)

