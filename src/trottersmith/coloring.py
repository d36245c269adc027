"""Edge colorings: partition a model's bonds into commuting classes.

Edges that share no site carry commuting Hamiltonian terms, so a proper edge
coloring splits H into K internally-commuting groups H_1..H_K that can each
be exponentiated in a single parallel layer.  One colorer serves every model,
built-in or custom: Koenig's step gives max-degree classes on every graph it
completes, which includes every bipartite one (chain 2, even square 4,
honeycomb 3); any other graph gets at most max-degree + 1 (Misra-Gries).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

from .jsonutil import dump_json, json_document, json_int, known_fields
from .model import SpinModel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EdgeColoring:
    """Partition of edge indices into vertex-disjoint classes.

    ``classes[k]`` holds the indices into the model's edge stacks of class k+1;
    class labels are 1-based in schedules.  Classes are never empty.
    """

    n: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(tuple(c) for c in self.classes))
        if any(len(c) == 0 for c in self.classes):
            raise ValueError("coloring contains an empty class")

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def validate(model: SpinModel, coloring: EdgeColoring) -> None:
    """Check a coloring against a model; raises ValueError on the first defect.

    A valid coloring covers every edge exactly once, keeps the edges within
    each class vertex-disjoint, and uses at most max_degree + 1 classes.
    """
    if coloring.n != model.n:
        raise ValueError(f"coloring is for n={coloring.n}, model has n={model.n}")
    pairs = model.pairs.tolist()
    seen: dict[int, int] = {}
    for k, cls in enumerate(coloring.classes):
        touched: dict[int, int] = {}
        for idx in cls:
            if not (0 <= idx < len(pairs)):
                raise ValueError(f"class {k + 1} references unknown edge index {idx}")
            if idx in seen:
                raise ValueError(f"edge {idx} appears in classes {seen[idx] + 1} and {k + 1}")
            seen[idx] = k
            for site in pairs[idx]:
                if site in touched:
                    raise ValueError(
                        f"class {k + 1} is not vertex-disjoint: edges {touched[site]} and "
                        f"{idx} share site {site}"
                    )
                touched[site] = idx
    missing = [idx for idx in range(len(pairs)) if idx not in seen]
    if missing:
        raise ValueError(f"edge {missing[0]} is not covered by any class")
    if coloring.num_classes > model.max_degree + 1:
        raise ValueError(
            f"{coloring.num_classes} classes exceeds max degree + 1 = {model.max_degree + 1}"
        )


def color_model(model: SpinModel) -> EdgeColoring:
    """Proper edge coloring of a model's bond graph by alternating-path swaps.

    Koenig's step runs first, on every graph, with max_degree colors: each
    edge (u, v) takes a color free at both ends, after inverting one d/c
    alternating path from u.  On a bipartite graph (open lattices, even
    rings and tori, honeycombs) parity keeps that path from reaching v; on
    another graph it may, and then the attempt is dropped and Misra-Gries
    colors the graph afresh with at most max_degree + 1 classes.  So every
    graph that Koenig's step completes gets max_degree classes.
    Deterministic: edges are processed in sorted order and free colors are
    always the smallest available.
    """
    pairs = list(map(tuple, model.pairs.tolist()))
    path = "koenig"
    color_of = _edge_colors(model.n, pairs, model.max_degree, koenig=True)
    if color_of is None:
        path = "misra-gries"
        color_of = _edge_colors(model.n, pairs, model.max_degree + 1, koenig=False)
    logger.info("coloring path: %s", path)
    classes: dict[int, list[int]] = {}
    for idx, pair in enumerate(pairs):
        classes.setdefault(color_of[pair], []).append(idx)
    return EdgeColoring(model.n, tuple(tuple(classes[c]) for c in sorted(classes)))


def _edge_colors(n: int, pairs: list[tuple[int, int]], palette: int,
                 koenig: bool) -> dict[tuple[int, int], int] | None:
    """Color each pair from ``range(palette)`` by Koenig's step or by
    Misra-Gries fans; None when a Koenig path reaches the edge's far end."""
    # vertex -> {color: neighbor}, edge (i,j) -> color
    at: list[dict[int, int]] = [dict() for _ in range(n)]
    color_of: dict[tuple[int, int], int] = {}

    def free(v: int) -> int:
        for c in range(palette):
            if c not in at[v]:
                return c
        raise AssertionError("no free color; degree bookkeeping is broken")

    def is_free(v: int, c: int) -> bool:
        return c not in at[v]

    def set_color(u: int, v: int, c: int) -> None:
        # callers must uncolor first; silently overwriting would corrupt `at`
        key = (u, v) if u < v else (v, u)
        assert key not in color_of
        color_of[key] = c
        at[u][c] = v
        at[v][c] = u

    def uncolor(u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        old = color_of.pop(key)
        del at[u][old]
        del at[v][old]

    def get_color(u: int, v: int) -> int | None:
        return color_of.get((u, v) if u < v else (v, u))

    def invert(u: int, d: int, c: int) -> None:
        # invert the maximal path from u alternating colors d, c, d, ...
        prev, cur, want = u, at[u].get(d), d
        chain = []
        while cur is not None:
            chain.append((prev, cur, want))
            want = c if want == d else d
            prev, cur = cur, at[cur].get(want)
        for a, b, col in chain:
            uncolor(a, b)
        for a, b, col in chain:
            set_color(a, b, d if col == c else c)

    for (u, v) in pairs:
        if koenig:
            # fan is just [v]: free d at u by inverting the d/c path from u,
            # which can end at v by a c edge only off a bipartite graph
            c = free(u)
            if not is_free(v, c):
                d = free(v)
                invert(u, d, c)
                if not is_free(v, d):
                    return None
                c = d
            set_color(u, v, c)
            continue
        # maximal fan of u starting at v: each next leaf's edge color is free
        # on the previous leaf
        fan = [v]
        while True:
            ext = next((w for c, w in sorted(at[u].items())
                        if w not in fan and is_free(fan[-1], c)), None)
            if ext is None:
                break
            fan.append(ext)
        c = free(u)
        d = free(fan[-1])
        if c != d:
            invert(u, d, c)
        # w: last fan prefix vertex (post-inversion) with d free on it
        w_idx = None
        for idx, w in enumerate(fan):
            if idx > 0 and not is_free(fan[idx - 1], get_color(u, w)):
                break  # fan property broken past here
            if is_free(w, d):
                w_idx = idx
        if w_idx is None:
            raise AssertionError("fan rotation target not found; invariant broken")
        # rotate: shift each fan edge's color down one slot, then color (u, w)
        # with d; uncolor everything first so no color aliases two edges at u
        rot = [get_color(u, fan[idx + 1]) for idx in range(w_idx)]
        for w in fan[1:w_idx + 1]:
            uncolor(u, w)
        for idx in range(w_idx):
            set_color(u, fan[idx], rot[idx])
        set_color(u, fan[w_idx], d)

    return color_of


# --- JSON serialization -----------------------------------------------------

def coloring_to_json(coloring: EdgeColoring) -> str:
    return dump_json({
        "n": coloring.n,
        "K": coloring.num_classes,
        "classes": [list(c) for c in coloring.classes],
    })


_COLORING_FIELDS = frozenset({"n", "K", "classes"})


def coloring_from_json(text: str) -> EdgeColoring:
    with json_document(text, "coloring") as doc:
        known_fields([doc], _COLORING_FIELDS, "coloring document")
        classes = tuple(tuple(json_int(e) for e in c) for c in doc["classes"])
        coloring = EdgeColoring(json_int(doc["n"]), classes)
        if doc.get("K") is not None and json_int(doc["K"]) != coloring.num_classes:
            raise ValueError("coloring document K does not match its class list")
    return coloring
