"""Two-qubit synthesis: Cartan decomposition and CNOT-counted templates.

Any 4x4 unitary factors as

    U = (v1 x v2) exp(-i (alpha XX + beta YY + gamma ZZ) / 4) (u1 x u2)

with the interaction coefficients canonical in the cell
pi >= alpha >= beta >= |gamma| (gamma >= 0 when alpha = pi) and the global
phase folded into v1.  The decomposition works in the magic (Bell) basis,
where the interaction core is diagonal and the local factors become real
orthogonal, so extracting them reduces to simultaneously diagonalizing the
commuting real and imaginary parts of a complex symmetric matrix.

Two templates lower a two-qubit exponential to CNOTs.  A general term is
decomposed and its core runs on a six-CNOT circuit, wrapped in the
decomposition's one-qubit locals; the template is written with its
one-qubit runs fused, 13 layers with no two one-qubit layers adjacent.  A
field-free isotropic term,
exp(-i alpha S.S), already is the core at angles (alpha, alpha, alpha), so
it goes straight to the closed-form three-CNOT core circuit of Vatan &
Williams, exact with its global phase and with no decomposition at all.
:func:`synth_edge` lowers one edge row by running the builder on it.

The circuit builder lowers each distinct template input once per call, on
qubits (0, 1): edges whose terms and durations give the same input share
one fragment, re-targeted to each edge's qubits, so a translation-invariant
lattice costs a handful of decompositions however large and long it is.
Where one stage ends and the next begins with a layer of one-qubit gates
only, the two layers fuse into one, a u1q of the product on each qubit both
touch; each distinct product is computed once per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .circuits import (_H, Circuit, Gate, GateKind, _check_unitary, _rotation, _uij_gates,
                       _unchecked_gate)
from .coloring import EdgeColoring
from .jsonutil import json_real
from .model import PAULIS, SpinModel, coupled_rows, edge_hamiltonians, isotropic_rows
from .trotter import ProductFormula, expand, first_order

KAK_UNITARITY_TOL = 1e-10
KAK_RECONSTRUCTION_TOL = 1e-8

_S = np.array([[1, 0], [0, 1j]], dtype=complex)
# the 6-CNOT template's quarter turn rx(pi/2) followed by a Hadamard
_H_RX = _H @ _rotation(GateKind.RX, math.pi / 2.0)

_XX, _YY, _ZZ = (np.kron(p, p) for p in PAULIS)

# columns are Bell-type states; the interaction core is diagonal here
_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / math.sqrt(2.0)


def _expm_herm(h: np.ndarray, factor: complex = -1j) -> np.ndarray:
    """exp(factor * h) for a Hermitian matrix or a stack (..., d, d) of them."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(factor * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def canonical_core_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """exp(-i (alpha XX + beta YY + gamma ZZ) / 4)."""
    return _expm_herm((alpha * _XX + beta * _YY + gamma * _ZZ) / 4.0)


@dataclass(frozen=True, eq=False)
class CartanCoefficients:
    """Canonical interaction coefficients and local factors of a 4x4 unitary.

    Reconstruction: (v1 x v2) @ core(alpha, beta, gamma) @ (u1 x u2).
    The global phase lives in v1; u2, v2 have unit determinant.
    """

    alpha: float
    beta: float
    gamma: float
    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        for name in ("u1", "u2", "v1", "v2"):
            m = np.asarray(getattr(self, name), dtype=complex).copy()
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


def cartan_unitary(c: CartanCoefficients) -> np.ndarray:
    """Rebuild the unitary a CartanCoefficients describes."""
    core = canonical_core_unitary(c.alpha, c.beta, c.gamma)
    return np.kron(c.v1, c.v2) @ core @ np.kron(c.u1, c.u2)


# --- magic-basis machinery -------------------------------------------------

def _simdiag_sym(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common eigenbasis of commuting real symmetric a, b.

    Diagonalizes a fixed sequence of mixtures until both residuals clear
    1e-10; the fixed angles keep the output deterministic.
    """
    for t in (0.0, 0.7853981, 0.3183098861, 1.234567, 2.71828):
        m = math.cos(t) * a + math.sin(t) * b
        _, p = np.linalg.eigh(m)
        da = p.T @ a @ p
        db = p.T @ b @ p
        if (
            np.max(np.abs(da - np.diag(np.diag(da)))) < 1e-10
            and np.max(np.abs(db - np.diag(np.diag(db)))) < 1e-10
        ):
            return p
    raise RuntimeError("failed to find a simultaneous eigenbasis")


def _kak_standard(u: np.ndarray):
    """u = e^{ig} (L1 x L2) exp(i k . (XX, YY, ZZ)) (R1 x R2), k not yet canonical.

    Returns (g, left, k, right) with left/right still in product form.
    """
    g = np.angle(np.linalg.det(u)) / 4.0
    usu = u * np.exp(-1j * g)
    m = _MAGIC.conj().T @ usu @ _MAGIC
    gram = m.T @ m
    p = _simdiag_sym(gram.real, gram.imag)
    if np.linalg.det(p) < 0:
        p[:, -1] = -p[:, -1]
    lam = np.angle(np.diag(p.T @ gram @ p))
    d = np.exp(1j * lam / 2.0)
    if np.real(np.prod(d)) < 0:  # det of the diagonal must be +1
        d[0] = -d[0]
    left_o = m @ p @ np.diag(1.0 / d)
    if np.max(np.abs(left_o.imag)) > 1e-8:
        raise RuntimeError("left factor failed to come out real orthogonal")
    left_o = left_o.real
    # magic-basis phases decompose over the global phase and the three
    # interaction coefficients; solve the 4x4 linear pattern for them
    pattern = np.array(
        [
            [1, 1, -1, 1],
            [1, 1, 1, -1],
            [1, -1, -1, -1],
            [1, -1, 1, 1],
        ],
        dtype=float,
    )
    sol = np.linalg.solve(pattern, np.angle(d))
    g2, k = sol[0], sol[1:]
    left = _MAGIC @ left_o @ _MAGIC.conj().T
    right = _MAGIC @ p.T @ _MAGIC.conj().T
    return g + g2, left, k, right


def split_local(m4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a product-form m4 = A x B into 2x2 pieces, deterministically.

    A comes out special unitary with its largest entry rotated to positive
    real part; the compensating scalar lands in B.
    """
    km = m4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    ii, jj = np.unravel_index(np.argmax(np.abs(km)), km.shape)
    row = km[ii, :]
    col = km[:, jj] / row[jj]
    a = col.reshape(2, 2)
    b = row.reshape(2, 2)
    det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    root = np.sqrt(det_a)
    a = a / root
    b = b * root
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    piv = a[idx]
    if piv.real < 0 or (abs(piv.real) < 1e-12 and piv.imag < 0):
        a, b = -a, -b
    if np.max(np.abs(np.kron(a, b) - m4)) > KAK_RECONSTRUCTION_TOL:
        raise RuntimeError("operator is not a product of single-qubit factors")
    return a, b


_AXIS_SWAP = {
    frozenset((0, 1)): _S,
    frozenset((0, 2)): _H,
    frozenset((1, 2)): _rotation(GateKind.RX, -math.pi / 2.0),
}


def _canonicalize(g, left, right, k):
    """Drive k into pi/4 >= k0 >= k1 >= |k2| while tracking the locals."""
    l1, l2 = split_local(left)
    r1, r2 = split_local(right)
    k = np.array(k, dtype=float)

    def shift(a: int, sgn: int) -> None:
        # k[a] += sgn*pi/2 is compensated by sigma_a x sigma_a on the left
        # and a global phase
        nonlocal g, l1, l2
        k[a] += sgn * math.pi / 2.0
        sig = PAULIS[a]
        l1 = l1 @ sig
        l2 = l2 @ sig
        g += -sgn * math.pi / 2.0

    def negate(a: int, b: int) -> None:
        # conjugating by sigma_c (c the third axis) on one qubit flips the
        # signs of k[a] and k[b] together
        nonlocal l1, r1
        sig = PAULIS[3 - a - b]
        l1 = l1 @ sig
        r1 = sig @ r1
        k[a] = -k[a]
        k[b] = -k[b]

    def swap(a: int, b: int) -> None:
        nonlocal l1, l2, r1, r2
        w = _AXIS_SWAP[frozenset((a, b))]
        l1 = l1 @ w.conj().T
        l2 = l2 @ w.conj().T
        r1 = w @ r1
        r2 = w @ r2
        k[a], k[b] = k[b], k[a]

    def into_band(a: int) -> None:
        while k[a] > math.pi / 4.0 + 1e-12:
            shift(a, -1)
        while k[a] <= -math.pi / 4.0 - 1e-12:
            shift(a, +1)

    for a in range(3):
        into_band(a)
    if abs(k[0]) < abs(k[1]):
        swap(0, 1)
    if abs(k[1]) < abs(k[2]):
        swap(1, 2)
    if abs(k[0]) < abs(k[1]):
        swap(0, 1)
    if k[0] < 0:
        negate(0, 2)
    if k[1] < 0:
        negate(1, 2)
    into_band(2)
    if k[0] > math.pi / 4.0 - 1e-12 and k[2] < -1e-15:
        # boundary of the cell: prefer k2 >= 0 when k0 = pi/4; the negation
        # takes k0 to -pi/4, and a quarter turn brings it back to pi/4
        negate(0, 2)
        shift(0, +1)
    return g, l1, l2, k, r1, r2


def _kak_canonical(u: np.ndarray):
    g, left, k, right = _kak_standard(u)
    g, l1, l2, k, r1, r2 = _canonicalize(g, left, right, k)
    if not (math.pi / 4.0 + 1e-9 >= k[0] >= k[1] >= abs(k[2]) - 1e-12):
        raise RuntimeError(f"interaction coefficients left the canonical cell: {k}")
    return g, l1, l2, k, r1, r2


def kak_decompose(u: np.ndarray) -> CartanCoefficients:
    """Canonical Cartan form of a two-qubit unitary.

    Raises ValueError if the input deviates from unitarity by more than
    1e-10 (the measured deviation is reported).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(4))))
    if not dev <= KAK_UNITARITY_TOL:  # NaN fails this too
        raise ValueError(f"matrix deviates from unitary by {dev:.3e}")
    # decompose the adjoint: its canonical form has the conjugated locals
    # on the convenient sides and flips the core's sign convention to the
    # exp(-i . /4) used here
    g, l1, l2, k, r1, r2 = _kak_canonical(u.conj().T)
    alpha, beta, gamma = (4.0 * k).tolist()
    c = CartanCoefficients(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        u1=l1.conj().T,
        u2=l2.conj().T,
        v1=np.exp(-1j * g) * r1.conj().T,
        v2=r2.conj().T,
    )
    rec = cartan_unitary(c)
    err = float(np.max(np.abs(rec - u)))
    if err > KAK_RECONSTRUCTION_TOL:
        raise RuntimeError(f"decomposition failed to reconstruct its input ({err:.2e})")
    return c


# --- templates -------------------------------------------------------------

Fragment = list[list[Gate]]
"""A run of layers on one edge, ready for positional merging."""


def _core_3cnot(alpha: float, beta: float, gamma: float) -> Fragment:
    """Three-CNOT realization of canonical_core_unitary on qubits (0, 1).

    The fixed circuit of Vatan & Williams, PRA 69, 032315 (2004), Fig. 6,
    exact for any angles with the global phase included.
    """
    half = math.pi / 2.0
    return [
        [Gate(GateKind.CX, (1, 0))],
        [
            Gate(GateKind.RZ, (0,), angle=gamma / 2.0 + half),
            Gate(GateKind.U1Q, (1,), matrix=_rotation(GateKind.RY, alpha / 2.0 + half) @ _S),
        ],
        [Gate(GateKind.CX, (0, 1))],
        [Gate(GateKind.RY, (1,), angle=-beta / 2.0 - half)],
        [Gate(GateKind.CX, (1, 0))],
        [Gate(GateKind.RZ, (0,), angle=-half)],
    ]


def _cartan_fragment(c: CartanCoefficients, core: bool) -> Fragment:
    """The 6-CNOT template wrapped in a decomposition's locals, on qubits (0, 1).

    Each interaction coefficient becomes one CNOT-conjugated rz on qubit 1;
    Hadamards map the ZZ rotation onto XX, an extra x-axis quarter turn onto
    YY.  The template's one-qubit runs are written fused: the opening
    Hadamards into the input locals u1, u2, and the closing quarter turn
    with the Hadamards after it into the constant H rx(pi/2), so the
    fragment has 13 layers and no two adjacent one-qubit layers.  Without
    ``core`` the template is dropped and the locals merge into one layer.
    """
    def locals_(m0: np.ndarray, m1: np.ndarray) -> list[Gate]:
        return [Gate(GateKind.U1Q, (0,), matrix=m0), Gate(GateKind.U1Q, (1,), matrix=m1)]

    if not core:
        return [locals_(c.v1 @ c.u1, c.v2 @ c.u2)]
    half = math.pi / 2.0
    cx = Gate(GateKind.CX, (0, 1))

    def rz(theta: float) -> list[Gate]:
        return [Gate(GateKind.RZ, (1,), angle=theta / 2.0)]

    return [
        locals_(_H @ c.u1, _H @ c.u2),
        [cx], rz(c.alpha), [cx],
        [Gate(GateKind.RX, (0,), angle=-half), Gate(GateKind.RX, (1,), angle=-half)],
        [cx], rz(c.beta), [cx],
        locals_(_H_RX, _H_RX),
        [cx], rz(c.gamma), [cx],
        locals_(c.v1, c.v2),
    ]


# --- Trotter circuit assembly ----------------------------------------------

MODES = ("decomposed", "scaled")


def _plain_exchange(coupling: np.ndarray, h_i: np.ndarray, h_j: np.ndarray) -> np.ndarray:
    """One bool per edge row: True where decomposed mode lowers the edge with
    the 3-CNOT exchange template, an isotropic coupling and no field share."""
    return isotropic_rows(coupling) & ~h_i.any(axis=1) & ~h_j.any(axis=1)


def template_cnots(model: SpinModel) -> list[int]:
    """CNOTs ``decomposed`` mode emits per edge row at tau != 0: 3 or 6 by its
    template, or 0 where :func:`~trottersmith.model.coupled_rows` finds no
    coupling.  The builder drops the CNOT core by the same rule, so the count
    and the circuit agree for every coupling."""
    plain = _plain_exchange(model.coupling, model.h_i, model.h_j)
    return np.where(coupled_rows(model.coupling), np.where(plain, 3, 6), 0).tolist()


def _template(shared: dict, plain: bool, core: bool, alpha: float, u: np.ndarray) -> Fragment:
    """CNOTs and one-qubit gates for an edge's u = exp(-i tau H_ij), on qubits (0, 1).

    ``plain`` picks the 3-CNOT core at the exchange angle ``alpha`` = tau J,
    else the KAK template of u.  Without ``core`` (an uncoupled edge, or tau
    = 0) a plain edge gets no gate and any other one layer of u's KAK locals.
    ``shared`` maps each template input (the angle, or the bytes of u) to
    the one fragment built for it.
    """
    key = (plain, core, alpha if plain else u.tobytes())
    if key not in shared:
        if plain:
            shared[key] = _core_3cnot(alpha, alpha, alpha) if core else []
        else:
            shared[key] = _cartan_fragment(kak_decompose(u), core)
    return shared[key]


def _retarget(frag: Fragment, to: dict[int, int]) -> Fragment:
    """Copies of a fragment's gates moved to other qubits by the map ``to``.

    The copies skip :class:`Gate`'s checks: kind, angle and matrix were
    checked on the originals, and the new qubits are a model edge's sites.
    """
    return [[_unchecked_gate(g.kind, tuple([to[q] for q in g.qubits]), g.angle, g.matrix, g.tau)
             for g in layer] for layer in frag]


def _fuse_layers(first: tuple[Gate, ...], then: tuple[Gate, ...],
                 products: dict) -> tuple[Gate, ...] | None:
    """One layer that runs ``first`` and then ``then``, or None unless both
    hold only one-qubit gates.

    A qubit that both layers touch gets one u1q of the two gates' product;
    a qubit that only one touches keeps its gate.  The fused gates come in
    ``first``'s order, then ``then``'s gates on the other qubits in theirs.
    """
    if any(len(g.qubits) != 1 for g in chain(first, then)):
        return None
    later = {g.qubits[0]: g for g in then}
    out = [g if (h := later.pop(g.qubits[0], None)) is None else _fuse_gates(g, h, products)
           for g in first]
    out.extend(later.values())
    return tuple(out)


def _fuse_gates(g: Gate, h: Gate, products: dict) -> Gate:
    """A u1q running one-qubit gate g and then h on g's qubit.

    ``products`` memoises h @ g on the identities of the two gates'
    matrices, which re-targeted copies share (of the gates themselves when
    they hold none), so each product is computed and checked for unitarity
    once.  The gate skips :class:`Gate`'s checks, as :func:`_retarget` does.
    """
    key = (id(g if g.matrix is None else g.matrix), id(h if h.matrix is None else h.matrix))
    m = products.get(key)
    if m is None:
        m = h.unitary() @ g.unitary()
        _check_unitary(m, GateKind.U1Q)
        m.flags.writeable = False
        products[key] = m
    return _unchecked_gate(GateKind.U1Q, g.qubits, matrix=m)


def build_trotter_circuit(
    model: SpinModel,
    coloring: EdgeColoring,
    formula: ProductFormula,
    m: int,
    t: float,
    mode: str = "decomposed",
) -> Circuit:
    """Compile m product-formula steps into a layered circuit.

    Every edge Hamiltonian is built in one stacked pass, and each distinct
    stage, a class k run for a signed duration tau, is exponentiated once
    for all of its edges by one stacked eigendecomposition.  ``scaled``
    keeps each edge's 4x4 unitary as one native uij gate, so every stage is
    a single layer, and checks the stage's whole stack for unitarity once
    instead of gate by gate.  ``decomposed`` lowers each unitary to a
    fragment of CNOTs and one-qubit gates; one pass over the stacks
    (:func:`_plain_exchange`) picks the 3-CNOT core circuit for each edge
    isotropic with no field share and the 6-CNOT KAK template for the rest;
    an edge that :func:`~trottersmith.model.coupled_rows` finds uncoupled,
    and every edge at tau = 0, gets its template without the CNOT core.
    Fragments of the edges in a class run in parallel, aligned from the
    stage's first layer.  Each distinct template input (the exchange angle,
    or the bytes of the unitary for KAK) is lowered once per call on qubits
    (0, 1), and every edge with that input gets a copy on its own qubits,
    so KAK runs once per distinct unitary, not once per (edge, tau).  Later
    stages that repeat (k, tau) reuse the same layer tuples of the same gates.
    In ``decomposed`` mode, when the last layer so far and a stage's first
    layer both hold only one-qubit gates, they become one layer
    (:func:`_fuse_layers`): the KAK template opens and closes on one-qubit
    locals, so each such stage adds 12 layers, not 13.  The fused layer is
    memoised on the identities of the two layers, and each 2x2 product on
    the identities of the two matrices, so a repeated boundary is a lookup.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if formula.num_classes != coloring.num_classes:
        raise ValueError(
            f"formula has K={formula.num_classes} but coloring has {coloring.num_classes}"
        )
    hterms = edge_hamiltonians(model.coupling, model.h_i, model.h_j)
    plain = _plain_exchange(model.coupling, model.h_i, model.h_j) if mode == "decomposed" else None
    coupled = coupled_rows(model.coupling) if mode == "decomposed" else None
    shared: dict = {}  # decomposed fragments by template input, for this call only
    # a stage's layers are deterministic in (k, tau) and Gates are immutable;
    # the sign of a zero tau stays in the key because uij gates record it
    stage_layers: dict[tuple[int, float, float], list[tuple[Gate, ...]]] = {}
    # fused boundary layers by the identities of the two layers they join,
    # and their 2x2 products; every key is an object this call holds
    fused: dict[tuple[int, int], tuple[Gate, ...] | None] = {}
    products: dict[tuple[int, int], np.ndarray] = {}
    layers: list[tuple[Gate, ...]] = []
    for stage in expand(formula, m, t, model.profile):
        key = (stage.k, stage.tau, math.copysign(1.0, stage.tau))
        if key not in stage_layers:
            cls = list(coloring.classes[stage.k - 1])
            us = _expm_herm(hterms[cls], -1j * stage.tau)
            pairs = model.pairs[cls].tolist()
            if mode == "scaled":
                stage_layers[key] = [_uij_gates(pairs, us, stage.tau)]
            else:
                alphas = (stage.tau * model.coupling[cls, 0, 0]).tolist()
                cores = (coupled[cls] & (stage.tau != 0.0)).tolist()
                frags = [_retarget(_template(shared, p, c, alpha, u), {0: i, 1: j})
                         for p, c, alpha, u, (i, j)
                         in zip(plain[cls].tolist(), cores, alphas, us, pairs)]
                stage_layers[key] = [
                    tuple(g for f in frags if p < len(f) for g in f[p])
                    for p in range(max(len(f) for f in frags))
                ]
        run = stage_layers[key]
        if mode == "decomposed" and layers and run:
            pair = (id(layers[-1]), id(run[0]))
            if pair not in fused:
                fused[pair] = _fuse_layers(layers[-1], run[0], products)
            if fused[pair] is not None:
                layers[-1] = fused[pair]
                run = run[1:]
        layers.extend(run)
    return Circuit(n=model.n, layers=tuple(layers))


def synth_edge(coupling, h_i, h_j, tau: float) -> Circuit:
    """Two-qubit circuit for exp(-i tau H) of one edge row: a 3x3 ``coupling``
    and the field shares ``h_i`` and ``h_j``, qubit 0 playing site i and 1 site j.

    The row is a one-edge model that :func:`build_trotter_circuit` lowers at
    m = 1 and t = tau, so it costs what it costs in a decomposed build.
    Raises ValueError unless tau is finite.
    """
    tau = json_real(tau, "tau")
    model = SpinModel(2, [(0, 1)], [coupling], [h_i], [h_j])
    return build_trotter_circuit(model, EdgeColoring(2, ((0,),)), first_order(1), 1, tau)
