"""Reference results built without trottersmith's own code.

Operators come from raw Pauli matrices, numpy Kronecker products and
``scipy.linalg.expm``; artifacts are read with the standard ``json`` module
or parsed as text.  The benchmark judges the program's output against these.
"""
from __future__ import annotations

import re

import numpy as np
from scipy.linalg import expm

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _spin_at(a: int, site: int, n: int) -> np.ndarray:
    """S^a = sigma^a / 2 on one site; site 0 is the leftmost tensor factor."""
    return np.kron(np.kron(np.eye(2 ** site), _PAULIS[a] / 2), np.eye(2 ** (n - site - 1)))


def edge_hamiltonian(edge: dict, n: int) -> np.ndarray:
    """Dense H_ij of one model-JSON edge: sum J^ab S_i^a S_j^b + h_i.S_i + h_j.S_j."""
    i, j = edge["i"], edge["j"]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for a in range(3):
        si = _spin_at(a, i, n)
        for b in range(3):
            if edge["J"][a][b] != 0.0:
                h += edge["J"][a][b] * (si @ _spin_at(b, j, n))
        h += edge["hi"][a] * si + edge["hj"][a] * _spin_at(a, j, n)
    return h


def check_coloring(pairs: list[tuple[int, int]], classes: list[list[int]]) -> list[str]:
    """Every edge in exactly one class, and no class with two edges on one site."""
    problems = []
    seen = [0] * len(pairs)
    for k, cls in enumerate(classes):
        sites: set[int] = set()
        for idx in cls:
            seen[idx] += 1
            for s in pairs[idx]:
                if s in sites:
                    problems.append(f"class {k + 1} has two edges on site {s}")
                sites.add(s)
    problems += [f"edge {idx} is in {c} classes" for idx, c in enumerate(seen) if c != 1]
    return problems


def second_order_unitaries(model_doc: dict, classes: list[list[int]], t: float,
                           ms: list[int]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """exp(-i t H) and the second-order product formula S2(t/m)^m for each m.

    S2(dt) = e^{-i H_1 dt/2} .. e^{-i H_{K-1} dt/2} e^{-i H_K dt}
             e^{-i H_{K-1} dt/2} .. e^{-i H_1 dt/2}.
    """
    n = model_doc["n"]
    edges = model_doc["edges"]
    hk = [sum(edge_hamiltonian(edges[idx], n) for idx in cls) for cls in classes]
    exact = expm(-1j * t * sum(hk))
    formulas = {}
    for m in ms:
        dt = t / m
        half = [expm(-0.5j * dt * h) for h in hk[:-1]]
        step = expm(-1j * dt * hk[-1])
        for u in reversed(half):
            step = u @ step @ u
        formulas[m] = np.linalg.matrix_power(step, m)
    return exact, formulas


def read_verify_csv(text: str) -> dict[int, float]:
    """m -> error from the verify CSV (header m,error,bound,order)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "m,error,bound,order":
        raise ValueError(f"unexpected verify header {lines[:1]}")
    out = {}
    for line in lines[1:]:
        m, err, _, _ = line.split(",")
        out[int(m)] = float(err)
    return out


_UIJ = re.compile(r"^uij\(([^)]*)\) q\[(\d+)\], q\[(\d+)\];$")


def qasm_interactions(text: str) -> list[tuple[float, int, int]]:
    """(tau, a, b) of every uij statement of an OpenQASM 3 text, in order."""
    out = []
    for line in text.splitlines():
        match = _UIJ.match(line)
        if match:
            out.append((float(match[1]), int(match[2]), int(match[3])))
    return out
