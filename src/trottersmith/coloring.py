"""Edge colorings: partition a model's bonds into commuting classes.

Edges that share no site carry commuting Hamiltonian terms, so a proper edge
coloring splits H into K internally-commuting groups H_1..H_K that can each
be exponentiated in a single parallel layer.  One colorer serves every model,
built-in or custom: a bipartite bond graph gets exactly max-degree classes
(Koenig's theorem; chain 2, even square 4, honeycomb 3), any other graph at
most max-degree + 1 (Misra-Gries).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

from .jsonutil import dump_json, json_document, json_int
from .model import SpinModel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EdgeColoring:
    """Partition of edge indices into vertex-disjoint classes.

    ``classes[k]`` holds the indices (into ``model.edges``) of class k+1;
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
    seen: dict[int, int] = {}
    for k, cls in enumerate(coloring.classes):
        touched: dict[int, int] = {}
        for idx in cls:
            if not (0 <= idx < len(model.edges)):
                raise ValueError(f"class {k + 1} references unknown edge index {idx}")
            if idx in seen:
                raise ValueError(f"edge {idx} appears in classes {seen[idx] + 1} and {k + 1}")
            seen[idx] = k
            for site in model.edges[idx].sites:
                if site in touched:
                    raise ValueError(
                        f"class {k + 1} is not vertex-disjoint: edges {touched[site]} and "
                        f"{idx} share site {site}"
                    )
                touched[site] = idx
    missing = [idx for idx in range(len(model.edges)) if idx not in seen]
    if missing:
        raise ValueError(f"edge {missing[0]} is not covered by any class")
    if coloring.num_classes > model.max_degree + 1:
        raise ValueError(
            f"{coloring.num_classes} classes exceeds max degree + 1 = {model.max_degree + 1}"
        )


def _classes_from_labels(labels: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """Group edge indices by label, dropping empty labels, preserving label order."""
    buckets: dict[int, list[int]] = {}
    for edge_idx in sorted(labels):
        buckets.setdefault(labels[edge_idx], []).append(edge_idx)
    return tuple(tuple(buckets[label]) for label in sorted(buckets))


def _is_bipartite(n: int, pairs: list[tuple[int, int]]) -> bool:
    """BFS 2-coloring of the sites; True iff no edge joins two same-side sites."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    side = [-1] * n
    for root in range(n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def color_model(model: SpinModel) -> EdgeColoring:
    """Proper edge coloring of a model's bond graph by alternating-path swaps.

    Bipartite graphs (open lattices, even rings and tori, honeycombs) get
    exactly max_degree classes, as Koenig's theorem allows: each edge (u, v)
    takes a color free at both ends, after inverting one c/d alternating path
    from u, which by parity never reaches v.  Other graphs go through
    Misra-Gries, which never needs more than max_degree + 1 classes.
    Deterministic: edges are processed in sorted order and free colors are
    always the smallest available.
    """
    pairs = model.edge_pairs()
    bipartite = _is_bipartite(model.n, pairs)
    logger.info("coloring path: %s", "bipartite" if bipartite else "misra-gries")
    palette = model.max_degree + (0 if bipartite else 1)
    # vertex -> {color: neighbor}, edge (i,j) -> color
    at: list[dict[int, int]] = [dict() for _ in range(model.n)]
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
            nxt = at[cur].get(want)
            if nxt == prev:
                nxt = None
            prev, cur = cur, nxt
        for a, b, col in chain:
            uncolor(a, b)
        for a, b, col in chain:
            set_color(a, b, d if col == c else c)

    for (u, v) in pairs:
        if bipartite:
            # fan is just [v]: free d at u by swapping the path, which by
            # parity cannot end at v, so d stays free at v
            c = free(u)
            if not is_free(v, c):
                d = free(v)
                invert(u, d, c)
                c = d
            set_color(u, v, c)
            continue
        # maximal fan of u starting at v: each next leaf's edge color is free
        # on the previous leaf
        fan = [v]
        in_fan = {v}
        while True:
            ext = None
            for c, w in sorted(at[u].items()):
                if w not in in_fan and is_free(fan[-1], c):
                    ext = w
                    break
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)
        c = free(u)
        d = free(fan[-1])
        if c != d:
            invert(u, d, c)
        # w: last fan prefix vertex (post-inversion) with d free on it
        w_idx = None
        for idx, w in enumerate(fan):
            if idx > 0:
                ec = get_color(u, fan[idx])
                if ec is None or not is_free(fan[idx - 1], ec):
                    break  # fan property broken past here
            if is_free(w, d):
                w_idx = idx
        if w_idx is None:
            raise AssertionError("fan rotation target not found; invariant broken")
        # rotate: shift each fan edge's color down one slot, then color (u, w)
        # with d; uncolor everything first so no color aliases two edges at u
        rot = [get_color(u, fan[idx + 1]) for idx in range(w_idx)]
        for idx in range(w_idx + 1):
            if get_color(u, fan[idx]) is not None:
                uncolor(u, fan[idx])
        for idx in range(w_idx):
            set_color(u, fan[idx], rot[idx])
        set_color(u, fan[w_idx], d)

    labels = {idx: color_of[pair] for idx, pair in enumerate(pairs)}
    return EdgeColoring(model.n, _classes_from_labels(labels))


# --- JSON serialization -----------------------------------------------------

def coloring_to_json(coloring: EdgeColoring) -> str:
    return dump_json({
        "n": coloring.n,
        "K": coloring.num_classes,
        "classes": [list(c) for c in coloring.classes],
    })


def coloring_from_json(text: str) -> EdgeColoring:
    with json_document(text, "coloring") as doc:
        classes = tuple(tuple(json_int(e) for e in c) for c in doc["classes"])
        coloring = EdgeColoring(json_int(doc["n"]), classes)
        if doc.get("K") is not None and json_int(doc["K"]) != coloring.num_classes:
            raise ValueError("coloring document K does not match its class list")
    return coloring
