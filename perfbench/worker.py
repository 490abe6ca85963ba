"""Cycles of a workload in one interpreter, run from the work directory.

Usage: worker.py WORKLOAD SEED [--traced | --probe]

Reads one command per line on stdin.  "cycle" runs every operation of the
workload once, one after another, and prints one JSON line: per operation its
time, exit code, stdout and a summary of in-memory results, the times of the
host-speed kernel runs spread over the cycle, and the spans when --traced.  "quit" prints the process's peak RSS as one JSON line and
exits.  --probe instead times the thread-count variants once and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stickfrag as sf  # noqa: E402
from stickfrag import cli, enumeration, montecarlo, oracle  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


KERNELS_PER_CYCLE = 4  # host-speed kernel runs, spread evenly over a cycle's operations


def _model(config: str):
    return sf.proportions_from_exponents(sf.ExponentSpec(wl.EXPONENTS[config]))


def _dirichlet_config(seed: int):
    mode = montecarlo.RandomProportions(3, wl.DIRICHLET_ALPHA)
    return montecarlo.SamplerConfig(seed=seed, samples=wl.DIRICHLET_SAMPLES, mode=mode)


def _prepare(op: wl.Op):
    """Inputs built before the clock starts, and the timed call on them."""
    if op.kind in wl.CLI_KINDS:
        argv = op.argv()

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
            return code, out.getvalue()

        return call
    if op.kind == "dirichlet":
        config = _dirichlet_config(op.seed)
        return lambda: montecarlo.sample_leaf_residues(config, op.N)
    y = list(wl.EXPONENTS[op.config])
    if op.kind == "residue_scan":
        return lambda: [oracle.exact_residues_rational(y, n).count for n in range(op.N + 1)]
    if op.kind == "residue_distribution":
        model = _model(op.config)
        return lambda: oracle.exact_residue_distribution(y, op.N, model)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _summarize(op: wl.Op, result) -> dict:
    """Exit code, stdout and checkable facts of a call's result (untimed)."""
    if op.kind in wl.CLI_KINDS:
        code, stdout = result
        return {"exit": code, "stdout": stdout}
    if op.kind == "dirichlet":
        residues, dist = result
        return {"exit": 0, "samples": len(residues), "atoms": dist.atoms,
                "mass_sum": math.fsum(dist.masses), "digest": hashlib.sha256(residues.tobytes()).hexdigest()}
    if op.kind == "residue_scan":
        return {"exit": 0, "counts": result, "digest": _digest(json.dumps(result))}
    rows = [(f"{r.numerator}/{r.denominator}", repr(mass)) for r, mass in result]
    return {"exit": 0, "classes": len(rows), "mass_sum": math.fsum(m for _, m in result),
            "digest": _digest(json.dumps(rows))}


def run_cycle(workload: wl.Workload) -> dict:
    ops = []
    calibration = []
    every = -(-len(workload.ops) // KERNELS_PER_CYCLE)
    for k, op in enumerate(workload.ops):
        if k % every == 0:
            calibration.append(hostspeed.calibrate())
        call = _prepare(op)
        t0 = perf_counter()
        try:
            result = call()
        except Exception:  # a crash is a failed operation; the cycle goes on
            ops.append({"id": op.id, "seconds": perf_counter() - t0, "exit": "exception",
                        "error": traceback.format_exc()})
            continue
        seconds = perf_counter() - t0
        ops.append({"id": op.id, "seconds": seconds, **_summarize(op, result)})
    return {"ops": ops, "calibration": calibration}


def run_probe(workload: wl.Workload) -> dict:
    """The thread-count variants of the workload's multi-threadable calls."""
    ops = []
    for op in workload.ops:
        if op.kind == "analyze" and op.measure == "uniform":
            model = _model(op.config)
            kernel = hostspeed.calibrate()
            t0 = perf_counter()
            dist = enumeration.exact_distribution(model, op.N, measure=op.measure, threads=2)
            seconds = perf_counter() - t0
            path = Path("out") / f"probe-{op.id}" / "distribution.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            enumeration.write_distribution_csv(dist, path)
            ops.append({"id": op.id, "probe": "enumeration.exact_threads2_s", "seconds": seconds,
                        "kernel_s": kernel, "file": str(path)})
        elif op.kind == "dirichlet":
            config = _dirichlet_config(op.seed)
            kernel = hostspeed.calibrate()
            t0 = perf_counter()
            residues, _ = montecarlo.sample_leaf_residues(config, op.N, tasks=2)
            seconds = perf_counter() - t0
            ops.append({"id": op.id, "probe": "montecarlo.tasks2_s", "seconds": seconds, "kernel_s": kernel,
                        "digest": hashlib.sha256(residues.tobytes()).hexdigest()})
    return {"ops": ops}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=wl.NAMES)
    parser.add_argument("seed", type=int)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    workload = wl.build(args.workload, args.seed)
    if args.probe:
        print(json.dumps(run_probe(workload)), flush=True)
        return 0
    tracer = None
    if args.traced:
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}")
        tracing.install(tracer)
    for command in sys.stdin:
        if command.strip() != "cycle":
            break
        result = run_cycle(workload)
        if tracer is not None:
            result["spans"], tracer.spans = tracer.spans, []
        print(json.dumps(result), flush=True)
    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
