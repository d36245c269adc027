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
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from .jsonutil import dump_json, has_bool, json_document, json_int, known_fields

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


def _readonly_stack(rows, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Stack E array-likes with one ``np.array`` call; check shape, dtype and finiteness."""
    arr = np.array(rows) if len(rows) else np.empty((0, *shape))
    if arr.shape[1:] != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape[1:]}")
    # the inferred dtype rejects strings and all-boolean stacks; booleans mixed
    # with numbers infer a number dtype, so Python rows are checked entry by entry
    if arr.dtype.kind in "USb":
        raise ValueError(f"{name} entries must be numbers, got dtype {arr.dtype}")
    if not isinstance(rows, np.ndarray) and has_bool(rows, len(shape) + 1):
        raise ValueError(f"{name} entries must be numbers, got a boolean")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite")
    arr.flags.writeable = False
    return arr


def _validated_edges(pairs, couplings, h_i, h_j):
    """Check E edge terms at once; return int pairs and read-only (E, 3, 3), (E, 3), (E, 3) stacks.

    ``pairs`` holds the integer (i, j) endpoints; ``couplings``, ``h_i`` and ``h_j``
    hold one array-like per edge, and ``couplings`` may be None when the
    tensors are checked already.  The checks run in the order a
    one-edge document meets them (coupling shape and finiteness,
    0 <= i < j, then each field share), so :class:`CouplingTensor`,
    :class:`EdgeTerm` and a stack of one raise the same message.
    """
    jmat = None if couplings is None else _readonly_stack(couplings, (3, 3), "coupling tensor")
    pairs = [(json_int(a), json_int(b)) for a, b in pairs]
    for a, b in pairs:
        if not (0 <= a < b):
            raise ValueError(f"edge must satisfy 0 <= i < j, got ({a}, {b})")
    return pairs, jmat, _readonly_stack(h_i, (3,), "h_i"), _readonly_stack(h_j, (3,), "h_j")


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """Real 3x3 exchange tensor J^{ab} coupling S_i^a to S_j^b."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _readonly_stack([self.matrix], (3, 3), "coupling tensor")[0]
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def heisenberg(cls, j: float = 1.0) -> "CouplingTensor":
        if not math.isfinite(j):
            raise ValueError(f"coupling j must be finite, got {j}")
        # j * identity keeps the -0.0 off-diagonals of a negative j
        return cls(j * np.eye(3))

    @classmethod
    def diagonal(cls, jx: float, jy: float, jz: float) -> "CouplingTensor":
        return cls(np.diag([jx, jy, jz]))

    @property
    def isotropic(self) -> bool:
        """True iff J = j * identity within tolerance."""
        return bool(np.max(np.abs(self.matrix - self.matrix[0, 0] * np.eye(3))) <= ISOTROPY_TOL)

    @property
    def norm(self) -> float:
        """Spectral norm of the 3x3 tensor; the per-edge interaction strength."""
        return float(np.linalg.norm(self.matrix, 2))


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
        [(i, j)], _, h_i, h_j = _validated_edges([(self.i, self.j)], None, [self.h_i], [self.h_j])
        _check_couplings((self.coupling,))
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "h_i", h_i[0])
        object.__setattr__(self, "h_j", h_j[0])

    @property
    def sites(self) -> tuple[int, int]:
        return (self.i, self.j)


def _check_couplings(couplings) -> None:
    for c in couplings:
        if not isinstance(c, CouplingTensor):
            raise TypeError(f"coupling must be a CouplingTensor, got {type(c).__name__}")


def _edge_terms(pairs, couplings, h_i, h_j) -> tuple[EdgeTerm, ...]:
    """EdgeTerms over stacks that :func:`_validated_edges` has checked.

    Each term gets read-only row views of the stacks and skips the
    per-edge checks, which the stacks have passed once already.
    """
    terms = []
    for (i, j), c, hi, hj in zip(pairs, couplings, h_i, h_j):
        term = object.__new__(EdgeTerm)
        term.__dict__.update(i=i, j=j, coupling=c, h_i=hi, h_j=hj)
        terms.append(term)
    return tuple(terms)


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
            if not self.factors:
                raise ValueError("piecewise profile requires a non-empty factor table")
            bad = [f for f in self.factors if isinstance(f, (bool, np.bool_, str))]
            if bad:
                raise ValueError(f"profile factors must be numbers, got {bad[0]!r}")
            facs = tuple(float(f) for f in self.factors)
            if not all(np.isfinite(facs)):
                raise ValueError("profile factors must be finite")
            object.__setattr__(self, "factors", facs)
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
    """A spin-1/2 system as a list of edge terms on n sites."""

    n: int
    edges: tuple[EdgeTerm, ...]
    lattice: LatticeKind = LatticeKind.CUSTOM
    boundary: Boundary = Boundary.OPEN
    profile: TimeProfile = CONSTANT_PROFILE

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"model needs at least 2 sites, got n={self.n}")
        object.__setattr__(self, "edges", tuple(self.edges))
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            pair = (e.i, e.j)
            if e.j >= self.n:
                raise ValueError(f"edge ({e.i}, {e.j}) out of range for n={self.n}")
            if pair in seen:
                raise ValueError(f"duplicate edge ({e.i}, {e.j})")
            seen.add(pair)
        if not self.edges:
            raise ValueError("model has no edges")

    @functools.cached_property
    def j_max(self) -> float:
        """Largest per-edge interaction strength (max spectral norm of J tensors)."""
        return max(e.coupling.norm for e in self.edges)

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            deg[e.i] += 1
            deg[e.j] += 1
        return tuple(deg)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [e.sites for e in self.edges]


# constant 4x4 tables ordered (site i, site j): S^a x S^b, S^a x 1, 1 x S^a
_SPINS = tuple(p / 2 for p in PAULIS)
_SPIN_PAIRS = np.array([[np.kron(sa, sb) for sb in _SPINS] for sa in _SPINS])
_SPIN_I = np.array([np.kron(s, ID2) for s in _SPINS])
_SPIN_J = np.array([np.kron(ID2, s) for s in _SPINS])


def edge_hamiltonians(edges) -> np.ndarray:
    """Dense 4x4 Hamiltonians of a sequence of edge terms, stacked (E, 4, 4).

    One vectorized pass adds, for a = x, y, z in turn, the J^{ab} S^a S^b
    products and then the h_i^a and h_j^a shares, so slice k depends only
    on ``edges[k]``.  Hermitian, since every coefficient is real.
    """
    edges = tuple(edges)
    jmat = np.array([e.coupling.matrix for e in edges]).reshape(-1, 3, 3)
    h_i = np.array([e.h_i for e in edges]).reshape(-1, 3)
    h_j = np.array([e.h_j for e in edges]).reshape(-1, 3)
    h4 = np.zeros((len(edges), 4, 4), dtype=complex)
    for a in range(3):
        for b in range(3):
            h4 += jmat[:, a, b, None, None] * _SPIN_PAIRS[a, b]
        h4 += h_i[:, a, None, None] * _SPIN_I[a]
        h4 += h_j[:, a, None, None] * _SPIN_J[a]
    return h4


def term_hamiltonian(term: EdgeTerm) -> np.ndarray:
    """Dense 4x4 Hamiltonian of one edge term; one slice of :func:`edge_hamiltonians`."""
    return edge_hamiltonians((term,))[0]


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
        site_fields: (n, 3) array of field vectors.

    Returns:
        (E, 3) stacks of the h_i and h_j shares, row k for ``pairs[k]``.

    Raises:
        ValueError: if a site with a nonzero field touches no edge.
    """
    site_fields = np.asarray(site_fields, dtype=float)
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
    if isinstance(dims, int):
        dims = (dims,)
    dims = tuple(int(d) for d in dims)
    want = 1 if kind is LatticeKind.CHAIN else 2
    if len(dims) != want:
        raise ValueError(f"{kind.value} lattice takes {want} dimension(s), got {dims}")
    return dims


def _folded_edges(n: int, pairs, couplings, site_fields) -> tuple[EdgeTerm, ...]:
    """Edge terms of sorted pairs with the site fields folded in, checked as stacks."""
    h_i, h_j = _field_shares(n, pairs, site_fields)
    _check_couplings(couplings)
    pairs, _, h_i, h_j = _validated_edges(pairs, None, h_i, h_j)
    return _edge_terms(pairs, couplings, h_i, h_j)


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
    site_fields = np.zeros((n, 3))
    if field is not None:
        site_fields[:] = np.asarray(field, dtype=float)
    edges = _folded_edges(n, pairs, [coupling] * len(pairs), site_fields)
    return SpinModel(n=n, edges=edges, lattice=kind, boundary=boundary, profile=profile)


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
    fields = np.zeros((n, 3)) if site_fields is None else np.asarray(site_fields, dtype=float)
    edges = _folded_edges(n, pairs, [by_pair[p] for p in pairs], fields)
    return SpinModel(n=n, edges=edges, lattice=LatticeKind.CUSTOM, boundary=Boundary.OPEN,
                     profile=profile)


# --- JSON serialization -----------------------------------------------------

def model_to_json(model: SpinModel) -> str:
    """Serialize a model as compact JSON; every float reads back bit for bit."""
    edges = model.edges
    # .tolist() yields the same Python floats as float() on each entry
    jmat = np.array([e.coupling.matrix for e in edges]).tolist()
    h_i = np.array([e.h_i for e in edges]).tolist()
    h_j = np.array([e.h_j for e in edges]).tolist()
    doc = {
        "n": model.n,
        "lattice": model.lattice.value,
        "boundary": model.boundary.value,
        "edges": [
            {"i": e.i, "j": e.j, "J": jmat[k], "hi": h_i[k], "hj": h_j[k]}
            for k, e in enumerate(edges)
        ],
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
    JSON numbers, never ``true`` or ``false``.  Each of the couplings,
    ``hi`` and ``hj`` is read into one (E, 3, 3) or (E, 3) stack and checked
    once as a whole, with the messages of the one-edge constructors, and
    every edge term gets read-only row views of the stacks.
    """
    with json_document(text, "model") as doc:
        known_fields([doc], _MODEL_FIELDS, "model document")
        prof = doc.get("profile", {"kind": "constant"})
        known_fields([prof], _PROFILE_FIELDS, "model profile")
        profile = TimeProfile(prof["kind"], prof.get("factors"))
        docs = doc["edges"]
        known_fields(docs, _EDGE_FIELDS, "model edge")
        pairs, jmat, h_i, h_j = _validated_edges(
            [(e["i"], e["j"]) for e in docs],
            [e["J"] for e in docs],
            [e.get("hi", _NO_FIELD) for e in docs],
            [e.get("hj", _NO_FIELD) for e in docs],
        )
        couplings = []
        for row in jmat:
            c = object.__new__(CouplingTensor)
            c.__dict__["matrix"] = row
            couplings.append(c)
        return SpinModel(
            n=json_int(doc["n"]),
            edges=_edge_terms(pairs, couplings, h_i, h_j),
            lattice=LatticeKind(doc.get("lattice", "custom")),
            boundary=Boundary(doc.get("boundary", "open")),
            profile=profile,
        )
