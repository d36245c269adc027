"""Spin-1/2 lattice models: coupling tensors, local fields, and edge terms.

Conventions used throughout the package: spin operators are S^a = sigma^a / 2
(hbar = 1), and a model's Hamiltonian is a pure sum of two-site edge terms

    H = sum_{(i,j)} H_ij,
    H_ij = sum_{a,b} J_ij^{ab} S_i^a S_j^b
           + sum_a (h_i^a S_i^a + h_j^a S_j^a),

where every site's local field vector has been folded whole into exactly one
edge term incident to that site.  Folding fields into edges keeps the
Hamiltonian strictly two-local, which is what lets an edge coloring partition
it into internally commuting classes.

A :class:`SpinModel` is its stacks: read-only (E, 2) endpoints, (E, 3, 3)
couplings and (E, 3) field shares, checked once as wholes.  Every pipeline
stage reads the stacks.  ``model.edges`` gives per-edge :class:`EdgeTerm`
views of the same rows, built on first use; no pipeline path reads them, and
they stay only for the benchmark's trace hook, which counts them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from .jsonutil import (dump_json, int_stack, json_document, json_int, json_real, known_fields,
                       real_stack)

ISOTROPY_TOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)


class LatticeKind(str, Enum):
    CHAIN = "chain"
    SQUARE = "square"
    HEXAGONAL = "hexagonal"
    CUSTOM = "custom"


class Boundary(str, Enum):
    OPEN = "open"
    PERIODIC = "periodic"


def _validated_edges(pairs, couplings, h_i, h_j):
    """Check E edge terms at once; return read-only (E, 2), (E, 3, 3), (E, 3), (E, 3) stacks.

    ``pairs`` holds the (i, j) endpoints, each an integer and never a bool;
    ``couplings``, ``h_i`` and ``h_j`` hold one array-like per edge, and
    ``couplings`` may be None when the tensors are checked already.  The
    checks run in the order a one-edge document meets them (coupling shape
    and finiteness, 0 <= i < j, then each field share), so
    :class:`CouplingTensor`, :class:`EdgeTerm` and a stack of one raise the
    same message.
    """
    jmat = None if couplings is None else real_stack(couplings, (3, 3), "coupling tensor entries")
    ij = int_stack(pairs, 2, "edge endpoints")
    bad = np.flatnonzero((ij[:, 0] < 0) | (ij[:, 0] >= ij[:, 1]))
    if len(bad):
        raise ValueError(f"edge must satisfy 0 <= i < j, got {tuple(ij[bad[0]].tolist())}")
    return ij, jmat, real_stack(h_i, (3,), "h_i entries"), real_stack(h_j, (3,), "h_j entries")


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """Real 3x3 exchange tensor J^{ab} coupling S_i^a to S_j^b."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = real_stack([self.matrix], (3, 3), "coupling tensor entries")[0]
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def heisenberg(cls, j: float = 1.0) -> "CouplingTensor":
        # j * identity keeps the -0.0 off-diagonals of a negative j
        return cls(json_real(j, "coupling j") * np.eye(3))

    @classmethod
    def diagonal(cls, jx: float, jy: float, jz: float) -> "CouplingTensor":
        # nested lists, not np.diag, so a boolean entry meets the row check
        return cls([[jx, 0.0, 0.0], [0.0, jy, 0.0], [0.0, 0.0, jz]])


@dataclass(frozen=True, eq=False)
class EdgeTerm:
    """One two-site term H_ij, including the field shares folded into it.

    ``h_i`` and ``h_j`` are the portions of the local field vectors of sites
    i and j carried by this particular edge; a site's whole field lives in
    exactly one edge term so the per-edge Hamiltonians sum to the full H.
    """

    i: int
    j: int
    coupling: CouplingTensor
    h_i: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    h_j: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        pairs, _, h_i, h_j = _validated_edges([(self.i, self.j)], None, [self.h_i], [self.h_j])
        _check_couplings((self.coupling,))
        for name, value in zip(("i", "j", "h_i", "h_j"), (*pairs[0].tolist(), h_i[0], h_j[0])):
            object.__setattr__(self, name, value)

    @property
    def sites(self) -> tuple[int, int]:
        return (self.i, self.j)


def isotropic_rows(coupling: np.ndarray) -> np.ndarray:
    """One bool per (..., 3, 3) tensor J: J = J[0, 0] * identity within ``ISOTROPY_TOL``."""
    return np.abs(coupling - coupling[..., :1, :1] * np.eye(3)).max(axis=(-2, -1)) <= ISOTROPY_TOL


def coupled_rows(coupling: np.ndarray) -> np.ndarray:
    """One bool per (..., 3, 3) tensor J: some entry of J exceeds ``ISOTROPY_TOL``."""
    return np.abs(coupling).max(axis=(-2, -1)) > ISOTROPY_TOL


def _check_couplings(couplings) -> None:
    for c in couplings:
        if not isinstance(c, CouplingTensor):
            raise TypeError(f"coupling must be a CouplingTensor, got {type(c).__name__}")


@dataclass(frozen=True, eq=False)
class TimeProfile:
    """Global time-dependence of the couplings as per-step scale factors.

    ``constant`` means H(t) = H.  A piecewise profile scales the whole
    Hamiltonian by ``factors[p]`` during Trotter step p; sampling is at the
    left endpoint of each step, and the table length must match the step
    count it is used with.
    """

    kind: str = "constant"
    factors: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "piecewise"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "piecewise":
            if self.factors is None or not len(self.factors):
                raise ValueError("piecewise profile requires a non-empty factor table")
            factors = real_stack(self.factors, (), "profile factors").tolist()
            object.__setattr__(self, "factors", tuple(factors))
        elif self.factors is not None:
            raise ValueError("constant profile takes no factor table")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def factor(self, step: int, m: int) -> float:
        """Scale factor for Trotter step ``step`` out of ``m``."""
        if self.is_constant:
            return 1.0
        if len(self.factors) != m:
            raise ValueError(
                f"profile table has {len(self.factors)} entries but the plan has {m} steps"
            )
        return self.factors[step]


CONSTANT_PROFILE = TimeProfile()


@dataclass(frozen=True, eq=False)
class SpinModel:
    """A spin-1/2 system on n sites; row k of each stack is edge k, with
    ``pairs[k]`` = (i, j) and 0 <= i < j < n.  The constructor takes
    array-likes and is the one place a model is checked."""

    n: int
    pairs: np.ndarray
    coupling: np.ndarray
    h_i: np.ndarray
    h_j: np.ndarray
    lattice: LatticeKind = LatticeKind.CUSTOM
    boundary: Boundary = Boundary.OPEN
    profile: TimeProfile = CONSTANT_PROFILE

    def __post_init__(self):
        pairs, jmat, h_i, h_j = _validated_edges(self.pairs, self.coupling, self.h_i, self.h_j)
        if not len(pairs) == len(jmat) == len(h_i) == len(h_j):
            raise ValueError("pairs, coupling, h_i and h_j must have one row per edge")
        n = json_int(self.n)
        if n < 2:
            raise ValueError(f"model needs at least 2 sites, got n={n}")
        out = np.flatnonzero(pairs[:, 1] >= n)
        if len(out):
            raise ValueError(f"edge {tuple(pairs[out[0]].tolist())} out of range for n={n}")
        _, first = np.unique(pairs, axis=0, return_index=True)
        if len(first) < len(pairs):  # name the earliest repeat
            k = np.setdiff1d(np.arange(len(pairs)), first)[0]
            raise ValueError(f"duplicate edge {tuple(pairs[k].tolist())}")
        if not len(pairs):
            raise ValueError("model has no edges")
        for name, value in (("n", n), ("pairs", pairs), ("coupling", jmat), ("h_i", h_i),
                            ("h_j", h_j), ("lattice", LatticeKind(self.lattice)),
                            ("boundary", Boundary(self.boundary))):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def edges(self) -> tuple[EdgeTerm, ...]:
        """One :class:`EdgeTerm` per row, for the benchmark's trace hook: read-only
        row views that skip the per-edge checks, which the stacks have passed."""
        terms = []
        for (i, j), jmat, h_i, h_j in zip(self.pairs.tolist(), self.coupling, self.h_i, self.h_j):
            coupling = object.__new__(CouplingTensor)
            coupling.__dict__["matrix"] = jmat
            term = object.__new__(EdgeTerm)
            term.__dict__.update(i=i, j=j, coupling=coupling, h_i=h_i, h_j=h_j)
            terms.append(term)
        return tuple(terms)

    @functools.cached_property
    def j_max(self) -> float:
        """Largest per-edge interaction strength (max spectral norm of J tensors)."""
        return float(np.linalg.norm(self.coupling, 2, axis=(1, 2)).max())

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.pairs.ravel(), minlength=self.n).tolist())

    @property
    def max_degree(self) -> int:
        return max(self.degrees)


# constant 4x4 tables ordered (site i, site j): S^a x S^b, S^a x 1, 1 x S^a
_SPINS = tuple(p / 2 for p in PAULIS)
_SPIN_PAIRS = np.array([[np.kron(sa, sb) for sb in _SPINS] for sa in _SPINS])
_SPIN_I = np.array([np.kron(s, ID2) for s in _SPINS])
_SPIN_J = np.array([np.kron(ID2, s) for s in _SPINS])


def edge_hamiltonians(coupling: np.ndarray, h_i: np.ndarray, h_j: np.ndarray) -> np.ndarray:
    """Dense 4x4 Hamiltonians of (E, 3, 3) couplings and (E, 3) field shares, stacked (E, 4, 4).

    One vectorized pass adds, for a = x, y, z in turn, the J^{ab} S^a S^b
    products and then the h_i^a and h_j^a shares, so slice k depends only
    on row k.  Hermitian, since every coefficient is real.
    """
    h4 = np.zeros((len(coupling), 4, 4), dtype=complex)
    for a in range(3):
        for b in range(3):
            h4 += coupling[:, a, b, None, None] * _SPIN_PAIRS[a, b]
        h4 += h_i[:, a, None, None] * _SPIN_I[a]
        h4 += h_j[:, a, None, None] * _SPIN_J[a]
    return h4


def _field_shares(n: int, pairs, site_fields) -> tuple[np.ndarray, np.ndarray]:
    """Fold per-site field vectors into per-edge (h_i, h_j) shares.

    Each site's whole field goes to the first sorted edge in which the site
    is the lower endpoint; a site that is never a lower endpoint (e.g. the
    last site of a chain) uses the first sorted edge it appears in at all.
    On a chain this reproduces the usual convention of housing h_i in
    H_{i,i+1} and the last site's field in the final bond.

    Args:
        n: number of sites.
        pairs: sorted list of (i, j) edges with i < j.
        site_fields: (n, 3) array-like of field vectors, checked as a stack.

    Returns:
        (E, 3) stacks of the h_i and h_j shares, row k for ``pairs[k]``.

    Raises:
        ValueError: on a field entry that is not a finite number, or a site
            with a nonzero field that touches no edge.
    """
    site_fields = real_stack(site_fields, (3,), "site field entries")
    if site_fields.shape != (n, 3):
        raise ValueError(f"site_fields must have shape ({n}, 3), got {site_fields.shape}")
    # first edge in which each site is the lower / the upper endpoint
    first_low: dict[int, int] = {}
    first_high: dict[int, int] = {}
    for idx, (i, j) in enumerate(pairs):
        first_low.setdefault(i, idx)
        first_high.setdefault(j, idx)
    low_edges, low_sites, high_edges, high_sites = [], [], [], []
    for s in range(n):
        idx = first_low.get(s)
        if idx is not None:
            low_edges.append(idx)
            low_sites.append(s)
            continue
        idx = first_high.get(s)
        if idx is not None:
            high_edges.append(idx)
            high_sites.append(s)
        elif np.any(site_fields[s] != 0.0):
            raise ValueError(f"site {s} has a nonzero field but touches no edge")
    # an edge houses at most one site per endpoint; 0.0 + h turns -0.0 into 0.0
    h_i = np.zeros((len(pairs), 3))
    h_j = np.zeros((len(pairs), 3))
    h_i[low_edges] += site_fields[low_sites]
    h_j[high_edges] += site_fields[high_sites]
    return h_i, h_j


def _norm_pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _chain_pairs(n: int, boundary: Boundary) -> list[tuple[int, int]]:
    if n < 2:
        raise ValueError("chain needs n >= 2")
    pairs = [(i, i + 1) for i in range(n - 1)]
    if boundary is Boundary.PERIODIC:
        if n < 3:
            raise ValueError("periodic chain needs n >= 3")
        pairs.append((0, n - 1))
    return sorted(pairs)


def _square_pairs(rows: int, cols: int, boundary: Boundary) -> list[tuple[int, int]]:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("square lattice needs at least 2 sites")
    periodic = boundary is Boundary.PERIODIC
    if periodic and (rows < 3 or cols < 3):
        # wrap bonds on a 1- or 2-wide direction would duplicate existing bonds
        raise ValueError("periodic square lattice needs both dimensions >= 3")
    idx = lambda r, c: r * cols + c
    pairs = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.add(_norm_pair(idx(r, c), idx(r, c + 1)))
            elif periodic:
                pairs.add(_norm_pair(idx(r, c), idx(r, 0)))
            if r + 1 < rows:
                pairs.add(_norm_pair(idx(r, c), idx(r + 1, c)))
            elif periodic:
                pairs.add(_norm_pair(idx(r, c), idx(0, c)))
    return sorted(pairs)


def _honeycomb_pairs(lx: int, ly: int, boundary: Boundary) -> list[tuple[int, int]]:
    # two-site unit cell: site = 2*(y*lx + x) + s, sublattice s in {0: A, 1: B}
    if lx < 1 or ly < 1:
        raise ValueError("honeycomb lattice needs at least 1x1 cells")
    periodic = boundary is Boundary.PERIODIC
    if periodic and (lx < 2 or ly < 2):
        raise ValueError("periodic honeycomb lattice needs both cell dimensions >= 2")
    a = lambda x, y: 2 * (y * lx + x)
    b = lambda x, y: 2 * (y * lx + x) + 1
    pairs = set()
    for y in range(ly):
        for x in range(lx):
            pairs.add(_norm_pair(a(x, y), b(x, y)))
            if x > 0:
                pairs.add(_norm_pair(a(x, y), b(x - 1, y)))
            elif periodic:
                pairs.add(_norm_pair(a(x, y), b(lx - 1, y)))
            if y > 0:
                pairs.add(_norm_pair(a(x, y), b(x, y - 1)))
            elif periodic:
                pairs.add(_norm_pair(a(x, y), b(x, ly - 1)))
    return sorted(pairs)


def _parse_dims(kind: LatticeKind, dims) -> tuple[int, ...]:
    dims = (dims,) if np.ndim(dims) == 0 else tuple(dims)
    try:
        dims = tuple(map(json_int, dims))
    except TypeError:
        raise TypeError(f"{kind.value} lattice dimensions must be integers, got {dims}") from None
    want = 1 if kind is LatticeKind.CHAIN else 2
    if len(dims) != want:
        raise ValueError(f"{kind.value} lattice takes {want} dimension(s), got {dims}")
    return dims


def build_lattice(
    kind: LatticeKind | str,
    dims,
    boundary: Boundary | str = Boundary.OPEN,
    coupling: CouplingTensor | None = None,
    field=None,
    profile: TimeProfile = CONSTANT_PROFILE,
) -> SpinModel:
    """Build a uniform-coupling model on a named lattice.

    Args:
        kind: chain, square, or hexagonal (honeycomb).
        dims: site count for a chain; (rows, cols) for square; unit-cell
            grid (lx, ly) for honeycomb, which has 2 sites per cell.
        boundary: open or periodic.  Periodic chains need n >= 3, periodic
            squares both dims >= 3, periodic honeycombs both cell dims >= 2,
            so that wrap bonds never duplicate bulk bonds.
        coupling: J tensor applied to every edge (default: Heisenberg J=1).
        field: uniform 3-vector local field applied to every site, folded
            into edge terms via :func:`_field_shares`.  Default: none.
        profile: global time profile (default constant).
    """
    kind = LatticeKind(kind)
    boundary = Boundary(boundary)
    if kind is LatticeKind.CUSTOM:
        raise ValueError("custom models are built with from_edges, not build_lattice")
    dims = _parse_dims(kind, dims)
    if kind is LatticeKind.CHAIN:
        n = dims[0]
        pairs = _chain_pairs(n, boundary)
    elif kind is LatticeKind.SQUARE:
        n = dims[0] * dims[1]
        pairs = _square_pairs(dims[0], dims[1], boundary)
    else:
        n = 2 * dims[0] * dims[1]
        pairs = _honeycomb_pairs(dims[0], dims[1], boundary)
    coupling = coupling if coupling is not None else CouplingTensor.heisenberg(1.0)
    _check_couplings((coupling,))
    h_i, h_j = _field_shares(n, pairs, np.zeros((n, 3)) if field is None else [field] * n)
    return SpinModel(n, pairs, np.broadcast_to(coupling.matrix, (len(pairs), 3, 3)), h_i, h_j,
                     lattice=kind, boundary=boundary, profile=profile)


def from_edges(
    n: int,
    couplings: list[tuple[int, int, CouplingTensor]],
    site_fields=None,
    profile: TimeProfile = CONSTANT_PROFILE,
) -> SpinModel:
    """Build a custom model from explicit edge couplings and per-site fields."""
    by_pair: dict[tuple[int, int], CouplingTensor] = {}
    for i, j, J in couplings:
        pair = _norm_pair(i, j)
        if pair in by_pair:
            raise ValueError(f"duplicate edge {pair}")
        by_pair[pair] = J
    pairs = sorted(by_pair)
    h_i, h_j = _field_shares(n, pairs, np.zeros((n, 3)) if site_fields is None else site_fields)
    _check_couplings(by_pair.values())
    return SpinModel(n, pairs, np.array([by_pair[p].matrix for p in pairs]), h_i, h_j,
                     profile=profile)


# --- JSON serialization -----------------------------------------------------

def model_to_json(model: SpinModel) -> str:
    """Serialize a model as compact JSON; every float reads back bit for bit."""
    # .tolist() yields the same Python ints and floats as int() and float() on each entry
    rows = zip(model.pairs.tolist(), model.coupling.tolist(), model.h_i.tolist(),
               model.h_j.tolist())
    doc = {
        "n": model.n,
        "lattice": model.lattice.value,
        "boundary": model.boundary.value,
        "edges": [{"i": i, "j": j, "J": jmat, "hi": h_i, "hj": h_j}
                  for (i, j), jmat, h_i, h_j in rows],
        "profile": (
            {"kind": "constant"}
            if model.profile.is_constant
            else {"kind": "piecewise", "factors": list(model.profile.factors)}
        ),
    }
    return dump_json(doc)


_NO_FIELD = (0.0, 0.0, 0.0)
_MODEL_FIELDS = frozenset({"n", "lattice", "boundary", "edges", "profile"})
_EDGE_FIELDS = frozenset({"i", "j", "J", "hi", "hj"})
_PROFILE_FIELDS = frozenset({"kind", "factors"})


def model_from_json(text: str) -> SpinModel:
    """Parse and validate a model document; the trust boundary for models.

    Integer fields (``n``, each edge's ``i`` and ``j``) must be JSON
    integers, and the profile's factors and every coupling and field entry
    JSON numbers, never ``true`` or ``false``.  The endpoints, couplings,
    ``hi`` and ``hj`` are read into one (E, 2), (E, 3, 3) or (E, 3) stack
    each and checked once as wholes by :class:`SpinModel`, with the
    messages of the one-edge constructors.
    """
    with json_document(text, "model") as doc:
        known_fields([doc], _MODEL_FIELDS, "model document")
        prof = doc.get("profile", {"kind": "constant"})
        known_fields([prof], _PROFILE_FIELDS, "model profile")
        profile = TimeProfile(prof["kind"], prof.get("factors"))
        docs = doc["edges"]
        known_fields(docs, _EDGE_FIELDS, "model edge")
        return SpinModel(
            n=doc["n"],
            pairs=[(e["i"], e["j"]) for e in docs],
            coupling=[e["J"] for e in docs],
            h_i=[e.get("hi", _NO_FIELD) for e in docs],
            h_j=[e.get("hj", _NO_FIELD) for e in docs],
            lattice=doc.get("lattice", "custom"),
            boundary=doc.get("boundary", "open"),
            profile=profile,
        )
