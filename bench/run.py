"""Benchmark of the trottersmith compile-and-verify pipeline.

Run from the root of a source checkout:

    python3 bench/run.py --workload lattice-compile --seed 1 --seconds 30 --trace 0

or, for every workload in one command,

    for w in lattice-compile disordered-compile chain-check; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

The workloads (see ``workloads.py`` and ``BENCHMARK.json``) are
``lattice-compile``, ``disordered-compile`` and ``chain-check``.  A run
generates its inputs from ``--seed`` and repeats one pass of the workload,
checking every pass, until ``--seconds`` have gone by.  Passes run back to
back in this process (a closed loop with one client); interpreter start-up
is measured apart, in fresh processes, as ``setup_s``.

``--trace 0`` reports the end-to-end metrics, medians over the passes.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones, the tracing overhead, and the wall time of
``verify --jobs 2`` on ``chain-check``; its spans are written to
``.bench_out/<workload>/spans.json``.

The machine and a table of the metrics are printed first; the last line of
stdout is the JSON result.  The exit code is 2 when the checkout has no
trottersmith source to run.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_EACH_TRACED = 2  # untraced and traced passes in a --trace 1 run
SETUP_REPEATS = 9


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ``trottersmith.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import trottersmith.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def run_passes(workload, tracer, seconds: float, traced: bool):
    """Repeat passes until ``seconds`` are up; alternate tracing when ``traced``.

    Returns (untraced results, traced results, per-layer metrics of each
    traced pass, number of failed passes).
    """
    plain, with_trace, layers, failed = [], [], [], 0
    digests = set()
    min_plain, min_traced = (MIN_EACH_TRACED, MIN_EACH_TRACED) if traced else (MIN_PASSES, 0)
    start = time.perf_counter()
    for k in itertools.count():
        trace_this = traced and k % 2 == 1
        gc.collect()
        try:
            if trace_this:
                with tracer.installed(k):
                    result = workload.run_pass(traced=True, jobs2=False)
            else:
                result = workload.run_pass(traced=False, jobs2=traced)
        except Exception:  # a failed pass is counted; the run goes on
            result = None
            print(f"pass {k} failed:\n{traceback.format_exc()}", file=sys.stderr)
        if result is not None:
            if trace_this:
                layers.append(tracer.pass_metrics(k)
                              | {"resources.audit_issues": result.audit_issues})
            times = " ".join(f"{key}={','.join(f'{v:.4f}' for v in values)}"
                             for key, values in result.times.items())
            print(f"pass {k}{' traced' if trace_this else ''}: {times}", file=sys.stderr)
            digests.add(result.digest)
            if len(digests) > 1:
                result.problems.append("artifact differs from the previous pass")
            for problem in result.problems:
                print(f"pass {k}: {problem}", file=sys.stderr)
        if result is None or result.problems:
            failed += 1
        elif trace_this:
            with_trace.append(result)
        else:
            plain.append(result)
        if time.perf_counter() - start >= seconds and (
                failed or (len(plain) >= min_plain and len(with_trace) >= min_traced)):
            return plain, with_trace, layers, failed


def median_of(results, key: str) -> float:
    values = [v for r in results for v in r.times.get(key, ())]
    return statistics.median(values) if values else 0.0


def end_to_end(plain, setup_s: float) -> dict:
    last = plain[-1]
    return {
        "setup_s": setup_s,
        "pipeline_s": median_of(plain, "pipeline_s"),
        "compile_s": median_of(plain, "compile_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_bytes": last.tallies["artifact_bytes"],
        "circuit_depth": last.tallies["circuit_depth"],
        "circuit_2q": last.tallies["circuit_2q"],
    }


def per_layer(plain, with_trace, layers) -> dict:
    out = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    out["cli.verify_s"] = median_of(plain, "verify_s")
    out["cli.verify_jobs2_s"] = median_of(plain, "verify_jobs2_s")
    untraced = median_of(plain, "pipeline_s")
    out["trace.overhead_frac"] = (median_of(with_trace, "pipeline_s") - untraced) / untraced
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trottersmith" / "__init__.py").is_file():
        print(f"error: no trottersmith source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, Cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s = measure_setup() if args.trace == 0 else 0.0
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, workdir, Cli(tracer))
    plain, with_trace, layers, failed = run_passes(
        workload, tracer, args.seconds, traced=args.trace == 1)
    attempted = len(plain) + len(with_trace) + failed
    correct = failed == 0
    if not plain or (args.trace == 1 and not with_trace):
        print("error: no pass succeeded", file=sys.stderr)
        return 1
    if args.trace == 1:
        measured = per_layer(plain, with_trace, layers)
        (workdir / "spans.json").write_text(json.dumps(tracer.spans_as_json()))
    else:
        measured = end_to_end(plain, setup_s)
    # names and units are declared once, in BENCHMARK.json
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace == 1 else "end_to_end"]}

    print("machine " + json.dumps(machine()))
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:<22.10g} {metric['unit']}")
    print(f"{'fail_frac':28s} {failed / attempted:<22.10g} ({failed}/{attempted} passes)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
