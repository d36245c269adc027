"""The benchmark's three workloads: generated inputs, one timed pass, checks.

Each workload drives the ``trottersmith`` CLI in-process through its click
entry point and calls the library only where no command exists
(``from_edges``, ``model_to_json``, ``circuit_from_json``, ``run_circuit``,
``report_for_plan`` and ``audit``).  Library calls go through module
attributes so that a traced pass sees them.  A pass returns its phase times,
the tallies of the circuit it produced, and every check that failed; the
checks compare against :mod:`reference`, never against trottersmith itself.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from trottersmith import circuits, cli, model, oracle, resources, trotter

import reference
from tracing import Tracer


class StepFailed(Exception):
    """A CLI command exited with a non-zero code."""


class Cli:
    """The trottersmith command line, run in this process."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __call__(self, *args) -> str:
        """Run one command; return what it printed to stdout."""
        args = [str(a) for a in args]
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span(f"cli.{args[0]}"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main.main(args=args, prog_name="trottersmith", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                code = exc.exit_code
        if code != 0:
            raise StepFailed(f"{args[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()


@dataclass
class PassResult:
    times: dict[str, list[float]] = field(default_factory=dict)
    tallies: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    audit_issues: int = 0
    digest: str = ""


def _summary(text: str) -> dict[str, int]:
    """The key=value tallies that ``synth`` prints beside its artifact."""
    return {k: int(v) for k, v in (p.split("=") for p in text.split())}


def _tally(circuit) -> dict[str, int]:
    kinds = [g.kind.value for layer in circuit.layers for g in layer]
    return {"depth": len(circuit.layers), "gates": len(kinds), "cx": kinds.count("cx"),
            "interaction": kinds.count("uij")}


def _artifact(path: Path, result: PassResult, summary: dict[str, int]) -> bytes:
    data = path.read_bytes()
    result.digest = hashlib.sha256(data).hexdigest()
    result.tallies = {
        "artifact_bytes": len(data),
        "circuit_depth": summary["depth"],
        "circuit_2q": summary["cx"] + summary["interaction"],
    }
    return data


class LatticeCompile:
    """8x8 periodic square XYZ model with a uniform field: color, synth, load.

    Synthesis and the circuit IR do nearly all the work: every edge goes
    through a KAK decomposition, but the uniform couplings give only a few
    distinct (term, tau) inputs, and the ~11 MB JSON artifact is written and
    read back.  Model, coloring and oracle cost almost nothing.
    """

    name = "lattice-compile"
    SIDE = 8
    M = 20
    ORDER = 2

    def __init__(self, seed: int, workdir: Path, run: Cli) -> None:
        del seed  # the lattice is fixed; nothing here is random
        self.run = run
        self.model_path = workdir / "model.json"
        self.coloring_path = workdir / "coloring.json"
        self.circuit_path = workdir / "circuit.json"
        run("lattice", "--kind", "square", "--dims", f"{self.SIDE}x{self.SIDE}",
            "--boundary", "periodic", "--coupling", "1.0,0.7,0.4", "--field", "0.3,0,0.5",
            "--out", self.model_path)
        self.n = self.SIDE * self.SIDE
        # an even periodic square is 4-regular and bipartite: 4 classes of n/2
        # edges; second order merges the class-1 half steps across step
        # boundaries, so m steps have (2K-2)m + 1 stages, 6 CNOTs per edge
        self.classes = 4
        self.edges = 2 * self.n
        stages = (2 * self.classes - 2) * self.M + 1
        self.expected_cx = 6 * (self.edges // self.classes) * stages

    def run_pass(self, traced: bool, jobs2: bool) -> PassResult:
        del traced, jobs2
        result = PassResult()
        t0 = time.perf_counter()
        self.run("color", "--model", self.model_path, "--out", self.coloring_path)
        printed = self.run("synth", "--model", self.model_path, "--coloring", self.coloring_path,
                           "--order", self.ORDER, "--steps", self.M, "--time", 1,
                           "--mode", "decomposed", "--emit", "json", "--out", self.circuit_path)
        t1 = time.perf_counter()
        circuit = circuits.circuit_from_json(self.circuit_path.read_text())
        t2 = time.perf_counter()
        result.times = {"pipeline_s": [t2 - t0], "compile_s": [t1 - t0], "load_s": [t2 - t1]}

        summary = _summary(printed)
        _artifact(self.circuit_path, result, summary)
        loaded = _tally(circuit)
        for key, value in loaded.items():
            if summary[key] != value:
                result.problems.append(f"loaded {key}={value}, synth printed {summary[key]}")
        if loaded["cx"] != self.expected_cx:
            result.problems.append(f"cx={loaded['cx']}, expected {self.expected_cx}")
        plan = trotter.StepPlan(m=self.M, order=self.ORDER, bound_used="user",
                                num_classes=self.classes, t=1.0)
        report = resources.report_for_plan(plan, self.n, edges_per_sweep=self.edges)
        issues = resources.audit(report, circuit)
        result.audit_issues = len(issues)
        result.problems += [f"audit: {issue}" for issue in issues]
        return result


class DisorderedCompile:
    """64x64 open square with 10% bond dilution, random XYZ couplings and fields.

    The model and coloring layers carry the load (n=4096, E~7.3k, field
    folding and Misra-Gries); every edge term is distinct, and scaled mode
    emits native uij gates as OpenQASM, so there is no KAK at all.
    """

    name = "disordered-compile"
    SIDE = 64
    DILUTION = 0.1
    M = 2

    def __init__(self, seed: int, workdir: Path, run: Cli) -> None:
        self.run = run
        self.model_path = workdir / "model.json"
        self.coloring_path = workdir / "coloring.json"
        self.circuit_path = workdir / "circuit.qasm"
        rng = np.random.default_rng(seed)
        side = self.SIDE
        self.n = side * side
        bonds = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
        bonds += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
        keep = rng.random(len(bonds)) >= self.DILUTION
        # from_edges rejects a field on a site without bonds: give every site
        # the dilution would isolate one of its own bonds back
        degree = np.zeros(self.n, dtype=int)
        for (a, b), kept in zip(bonds, keep):
            degree[a] += kept
            degree[b] += kept
        for site in np.flatnonzero(degree == 0):
            if degree[site]:
                continue
            own = [k for k, (a, b) in enumerate(bonds) if site in (a, b)]
            k = own[rng.integers(len(own))]
            keep[k] = True
            degree[list(bonds[k])] += 1
        kept = [bond for bond, flag in zip(bonds, keep) if flag]
        jdiag = rng.normal(1.0, 0.25, size=(len(kept), 3))
        fields = rng.normal(0.0, 0.3, size=(self.n, 3))
        label = rng.permutation(self.n)
        self.edge_list = [(int(label[a]), int(label[b])) for a, b in kept]
        self.jdiag = jdiag.tolist()
        self.fields = np.empty_like(fields)
        self.fields[label] = fields
        order = sorted(range(len(kept)), key=lambda k: tuple(sorted(self.edge_list[k])))
        self.pairs = [tuple(sorted(self.edge_list[k])) for k in order]
        self.pair_j = [self.jdiag[k] for k in order]

    def run_pass(self, traced: bool, jobs2: bool) -> PassResult:
        del traced, jobs2
        result = PassResult()
        t0 = time.perf_counter()
        couplings = [(i, j, model.CouplingTensor.diagonal(*row))
                     for (i, j), row in zip(self.edge_list, self.jdiag)]
        spin_model = model.from_edges(self.n, couplings, self.fields)
        self.model_path.write_text(model.model_to_json(spin_model))
        self.run("color", "--model", self.model_path, "--out", self.coloring_path)
        printed = self.run("synth", "--model", self.model_path, "--coloring", self.coloring_path,
                           "--order", 1, "--steps", self.M, "--time", 1,
                           "--mode", "scaled", "--emit", "qasm", "--out", self.circuit_path)
        t1 = time.perf_counter()
        result.times = {"pipeline_s": [t1 - t0], "compile_s": [t1 - t0]}

        summary = _summary(printed)
        text = _artifact(self.circuit_path, result, summary).decode()
        result.problems += self._check_model(json.loads(self.model_path.read_text()))
        classes = json.loads(self.coloring_path.read_text())["classes"]
        result.problems += reference.check_coloring(self.pairs, classes)
        if summary["depth"] != self.M * len(classes):
            result.problems.append(f"depth={summary['depth']}, expected {self.M * len(classes)}")
        gates = reference.qasm_interactions(text)
        if len(gates) != self.M * len(self.pairs):
            result.problems.append(f"{len(gates)} uij gates, expected m*E={self.M * len(self.pairs)}")
        # first order: each step sweeps the classes in order, every edge once
        want = [self.pairs[idx] for _ in range(self.M) for cls in classes for idx in cls]
        if [(a, b) for _, a, b in gates] != want:
            result.problems.append("uij gates do not sweep every class once per step")
        if any(abs(tau - 1.0 / self.M) > 1e-15 for tau, _, _ in gates):
            result.problems.append("uij gate with tau != t/m")
        return result

    def _check_model(self, doc: dict) -> list[str]:
        edges = doc["edges"]
        if [(e["i"], e["j"]) for e in edges] != self.pairs:
            return ["model edges differ from the generated edge list"]
        problems = []
        if any(np.any(np.array(e["J"]) != np.diag(j)) for e, j in zip(edges, self.pair_j)):
            problems.append("model couplings differ from the generated ones")
        folded = np.zeros((self.n, 3))
        for e in edges:
            folded[e["i"]] += e["hi"]
            folded[e["j"]] += e["hj"]
        if np.max(np.abs(folded - self.fields)) > 1e-12:
            problems.append("folded fields do not add up to the generated site fields")
        return problems


class ChainCheck:
    """9-site open Heisenberg chain with a field: verify, then compile and play back.

    The dense oracle dominates (O(8^n) per stage); synthesis and JSON are
    small.  n=9 keeps a pass near five seconds.
    """

    name = "chain-check"
    N = 9
    M_GRID = (4, 8, 16, 32)
    STATES = 64
    # one compile takes ~0.4 s, too short to time steadily on a shared host:
    # an untraced pass compiles the circuit this many times (same artifact)
    COMPILES = 3
    ERROR_RTOL = 1e-6
    STATE_ATOL = 1e-8

    def __init__(self, seed: int, workdir: Path, run: Cli) -> None:
        self.run = run
        self.model_path = workdir / "model.json"
        self.coloring_path = workdir / "coloring.json"
        self.csv_path = workdir / "verify.csv"
        self.circuit_path = workdir / "circuit.json"
        run("lattice", "--kind", "chain", "--dims", self.N, "--coupling", "1.0",
            "--field", "0.5,0,0.3", "--out", self.model_path)
        run("color", "--model", self.model_path, "--out", self.coloring_path)
        doc = json.loads(self.model_path.read_text())
        classes = json.loads(self.coloring_path.read_text())["classes"]
        pairs = [(e["i"], e["j"]) for e in doc["edges"]]
        self.problems = reference.check_coloring(pairs, classes)
        exact, formulas = reference.second_order_unitaries(doc, classes, 1.0, self.M_GRID)
        self.errors = {m: float(np.linalg.norm(u - exact, 2)) for m, u in formulas.items()}
        rng = np.random.default_rng(seed)
        dim = 2 ** self.N
        states = rng.standard_normal((dim, self.STATES)) + 1j * rng.standard_normal((dim, self.STATES))
        self.states = states / np.linalg.norm(states, axis=0)
        self.expected = formulas[self.M_GRID[-1]] @ self.states

    def _verify(self, *extra_args) -> None:
        self.run("verify", "--model", self.model_path, "--order", 2,
                 "--m-grid", ",".join(map(str, self.M_GRID)), *extra_args,
                 "--out", self.csv_path)

    def _check_errors(self) -> list[str]:
        got = reference.read_verify_csv(self.csv_path.read_text())
        if sorted(got) != sorted(self.errors):
            return [f"verify reported m={sorted(got)}, expected {list(self.M_GRID)}"]
        return [f"m={m}: verify error {got[m]!r}, reference {want!r}"
                for m, want in self.errors.items()
                if abs(got[m] - want) > self.ERROR_RTOL * want]

    def _synth(self) -> str:
        return self.run("synth", "--model", self.model_path, "--order", 2,
                        "--steps", self.M_GRID[-1], "--time", 1, "--emit", "json",
                        "--out", self.circuit_path)

    def run_pass(self, traced: bool, jobs2: bool) -> PassResult:
        result = PassResult(problems=list(self.problems))
        t0 = time.perf_counter()
        self._verify()
        t1 = time.perf_counter()
        printed = self._synth()
        t2 = time.perf_counter()
        circuit = circuits.circuit_from_json(self.circuit_path.read_text())
        played = oracle.run_circuit(self.states, circuit)
        t3 = time.perf_counter()
        result.times = {"pipeline_s": [t3 - t0], "verify_s": [t1 - t0],
                        "compile_s": [t2 - t1], "check_s": [t3 - t1]}

        _artifact(self.circuit_path, result, _summary(printed))
        for _ in range(0 if traced else self.COMPILES - 1):
            t4 = time.perf_counter()
            self._synth()
            result.times["compile_s"].append(time.perf_counter() - t4)
            if hashlib.sha256(self.circuit_path.read_bytes()).hexdigest() != result.digest:
                result.problems.append("recompiling gave a different artifact")
        result.problems += self._check_errors()
        worst = float(np.max(np.abs(played - self.expected)))
        if worst > self.STATE_ATOL:
            result.problems.append(f"played-back states differ from the reference by {worst:.3e}")
        if jobs2:
            t4 = time.perf_counter()
            self._verify("--jobs", 2)
            result.times["verify_jobs2_s"] = [time.perf_counter() - t4]
            result.problems += [f"--jobs 2: {p}" for p in self._check_errors()]
        return result


WORKLOADS = {w.name: w for w in (LatticeCompile, DisorderedCompile, ChainCheck)}
