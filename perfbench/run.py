"""stickfrag benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record

Run from the root of a checkout.  One worker interpreter (perfbench/worker.py,
default flags) runs the workload's operations in cycles, one call after
another, each cycle in the same order, until about S seconds have passed; a
set-up sample follows every cycle.  Each operation thus repeats across the
whole run.  A fixed host-speed kernel (perfbench/hostspeed.py) runs four
times in every cycle and before every set-up sample, and each time is reported at the
kernel's reference speed: on a shared host the same code runs up to twice as
slow for minutes at a time, and the kernel slows with it.  With --trace 0 the run reports the end-to-end metrics; with --trace 1 it spends
half the time untraced and half traced, then runs the thread probes, and
reports the per-layer metrics.  Every operation's outputs are checked in
every cycle.  The last stdout line is one JSON object; the lines above it
name every metric with its unit.  --record rewrites the workload's entry in
perfbench/digests.json from one cycle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
MIN_CYCLES = 2  # so the re-run check always has a pair
SETUP_BEFORE = 3  # set-up samples before the first cycle; one more follows each cycle
RUN_BUDGET_S = 150.0  # a run must end within 180 s: start no cycle that would end after this
GUARD_MEMORY_BYTES = 4 << 30  # the guard probe may not take the machine's memory
# units of the metrics that are printed but not listed in BENCHMARK.json
PRINTED_ONLY_UNITS = {"compositions_per_s": "1/s", "samples_per_s": "1/s", "leaves_per_s": "1/s",
                      "wall_raw_s": "s", "wall_fastest_s": "s", "setup_raw_s": "s",
                      "fail_ratio": "ratio", "trace.overhead_s": "s"}

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def provenance(seed: int) -> dict:
    import numpy

    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed}


def write_configs(workload: wl.Workload, work: Path) -> None:
    (work / "configs").mkdir(parents=True, exist_ok=True)
    for name in workload.configs:
        (work / "configs" / f"{name}.json").write_text(json.dumps(wl.CONFIGS[name]))


def setup_sample(workload: wl.Workload, work: Path) -> tuple[float, float]:
    """Seconds to write the configs and start an interpreter that imports the CLI and builds its
    parser, and the host-speed kernel's seconds just before."""
    kernel = hostspeed.calibrate()
    t0 = perf_counter()
    write_configs(workload, work)
    subprocess.run([sys.executable, "-c", "import stickfrag.cli as c; c.build_parser()"],
                   cwd=work, env=_env(), check=True)
    return perf_counter() - t0, kernel


class Worker:
    """One worker process, driven one cycle at a time over its stdin.

    A timer kills it if it is still running after `timeout` seconds, so a
    hung call cannot hold the run past its limit.
    """

    def __init__(self, workload: wl.Workload, seed: int, work: Path, flag: str | None, timeout: float):
        self.err_path = work / f"worker{flag or ''}.err"
        cmd = [sys.executable, str(HERE / "worker.py"), workload.name, str(seed)] + ([flag] if flag else [])
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(cmd, cwd=work, env=_env(), stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err, text=True)
        self.timer = threading.Timer(max(timeout, 1.0), self.proc.kill)
        self.timer.start()

    def _request(self, command: str | None) -> dict:
        try:
            if command is not None:
                self.proc.stdin.write(command + "\n")
                self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except (BrokenPipeError, OSError):
            line = ""
        if not line:
            code = self.proc.wait()
            return {"error": f"worker exit {code}: {self.err_path.read_text()[-2000:]}"}
        return json.loads(line)

    def cycle(self) -> dict:
        return self._request("cycle")

    def result(self) -> dict:
        """The one result of a --probe worker."""
        return self._request(None)

    def close(self) -> dict:
        """Ends the worker and waits for it; returns its peak RSS, or an error."""
        result = self._request("quit") if self.proc.poll() is None else {"error": "worker ended early"}
        self.stop()
        return result

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def guard_probe(work: Path, timeout: float) -> dict:
    """fig5 beyond the composition cap, in its own memory-limited process."""
    config, N = wl.GUARD_POINT
    out = work / "out" / "guard"
    cmd = [sys.executable, "-m", "stickfrag", "analyze", "--config", f"configs/{config}.json",
           "--N", str(N), "--out", "out/guard"]

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (GUARD_MEMORY_BYTES, GUARD_MEMORY_BYTES))

    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0), preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return {"seconds": perf_counter() - t0, "exit": "timeout", "problems": ["guard probe timed out"]}
    seconds = perf_counter() - t0
    problems = []
    if proc.returncode == 3:
        if not proc.stderr.strip():
            problems.append("exit 3 without a reason on stderr")
    elif proc.returncode == 0:  # an engine that answers beyond the cap must still be right
        problems += checks.analyze_outputs(config, N, proc.stdout, out)
    else:
        problems.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    return {"seconds": seconds, "exit": proc.returncode, "problems": problems}


class Run:
    """Cycles of one workload, their checks and the counts taken from their outputs."""

    def __init__(self, workload: wl.Workload, seed: int, work: Path, recorded: dict | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.checker = checks.Checker(work, recorded)
        self.started = perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.cycles: list[dict] = []
        self.setup: list[tuple[float, float]] = []  # (seconds, kernel seconds)
        self.workers: list[Worker] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.started)

    def worker(self, flag: str | None = None) -> Worker:
        worker = Worker(self.workload, self.seed, self.work, flag, self.remaining() + 25.0)
        self.workers.append(worker)
        return worker

    def stop_workers(self) -> None:
        for worker in self.workers:
            worker.stop()

    def check_cycle(self, result: dict) -> dict | None:
        """Checks every operation of one cycle; the cycle is kept if the worker answered."""
        self.attempted += len(self.workload.ops)
        if "error" in result:
            self.failures += [f"cycle: {result['error']}"] * len(self.workload.ops)
            return None
        ops = {op.id: op for op in self.workload.ops}
        result["output_bytes"] = 0
        for rec in result["ops"]:
            op = ops[rec["id"]]
            problems = self.checker.check(op, rec)
            if problems:
                self.failures.append(f"{op.id}: " + "; ".join(problems))
            if rec["exit"] == 0:
                result["output_bytes"] += checks.output_bytes(op, rec, self.work)
        return result

    def loop(self, worker: Worker, seconds: float, record: bool = False) -> list[dict]:
        """Cycles, each followed by a set-up sample, while the next is expected to end within `seconds`."""
        cycles: list[dict] = []
        t_start = perf_counter()
        spent: list[float] = []
        while True:
            t0 = perf_counter()
            result = self.check_cycle(worker.cycle())
            if result is None:
                break
            cycles.append(result)
            if record:
                break
            self.setup.append(setup_sample(self.workload, self.work))
            spent.append(perf_counter() - t0)
            expected = statistics.median(spent)
            if expected * 1.5 > self.remaining():
                break
            if len(cycles) >= MIN_CYCLES and perf_counter() - t_start + expected > seconds:
                break
        closing = worker.close()
        if "error" in closing:
            self.attempted += 1
            self.failures.append(f"worker: {closing['error']}")
        for result in cycles:
            result["peak_rss_mb"] = closing.get("peak_rss_mb")
        self.cycles += cycles
        return cycles

    def probe(self) -> dict[str, float]:
        """Thread-count probes of the traced run; their outputs must equal the single-threaded ones."""
        worker = self.worker("--probe")
        result = worker.result()
        worker.stop()
        if "error" in result:
            self.attempted += 1
            self.failures.append(f"probe: {result['error']}")
            return {}
        first = self.checker.first_digests
        totals: dict[str, float] = {}
        for rec in result["ops"]:
            self.attempted += 1
            if "file" in rec:
                same = checks.file_digest(self.work / rec["file"]) == first[rec["id"]]["distribution.csv"]
            else:
                same = rec["digest"] == first[rec["id"]]["result"]
            if not same:
                self.failures.append(f"{rec['id']}: {rec['probe']} changed the output")
            seconds = hostspeed.at_reference(rec["seconds"], rec["kernel_s"])
            totals[rec["probe"]] = totals.get(rec["probe"], 0.0) + seconds
        return totals

    def guard(self) -> dict:
        self.attempted += 1
        kernel = hostspeed.calibrate()
        result = guard_probe(self.work, min(60.0, self.remaining() + 25.0))
        result["seconds"] = hostspeed.at_reference(result["seconds"], kernel)
        if result["problems"]:
            self.failures.append("guard: " + "; ".join(result["problems"]))
        return result

    def counts(self, result: dict) -> dict[str, int]:
        """Exact counts of one cycle, from its inputs and outputs; they repeat between runs of the same code."""
        reports = {rec["id"]: json.loads(rec["stdout"]) for rec in result["ops"]
                   if rec.get("exit") == 0 and "stdout" in rec}
        analyze = [op for op in self.workload.ops if op.kind == "analyze"]
        brute = [op for op in self.workload.ops if op.kind == "brute"]
        return {
            "enumeration.compositions": sum(op.compositions for op in analyze),
            "enumeration.table_bytes_computed": sum(op.compositions * wl.parts(op.config) * 8 for op in analyze),
            "enumeration.atoms_out": sum(reports.get(op.id, {}).get("distinct_residues", 0) for op in analyze),
            "oracle.leaves": sum(reports.get(op.id, {}).get("leaves", 0) for op in brute),
            "montecarlo.samples": self.workload.work()["samples"],
            "cli.output_bytes": result["output_bytes"],
        }


def op_times(cycles: list[dict]) -> dict[str, list[float]]:
    """Seconds of every successful repetition, by operation."""
    times: dict[str, list[float]] = {}
    for result in cycles:
        for rec in result["ops"]:
            if rec["exit"] == 0:
                times.setdefault(rec["id"], []).append(rec["seconds"])
    return times


def cycle_seconds(result: dict) -> float:
    return sum(rec["seconds"] for rec in result["ops"])


def at_reference(result: dict, seconds: float) -> float:
    """Seconds measured in a cycle, put at the reference speed by the cycle's kernel times."""
    return hostspeed.at_reference(seconds, statistics.fmean(result["calibration"]))


def wall(cycles: list[dict]) -> float:
    """One pass of the workload at the reference speed: the median over cycles."""
    return statistics.median(at_reference(c, cycle_seconds(c)) for c in cycles)


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if there is one."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it"
    i = n - 11
    return f"n={n}; p{100 * i / (n - 1):.0f}={sorted(values)[i]:.6g}"


def known_red(result: dict) -> list[str]:
    """The two acceptance quantities that are red at the seed, observed at this benchmark's N; never gated."""
    reports = {rec["id"]: json.loads(rec["stdout"]) for rec in result["ops"]
               if rec.get("exit") == 0 and "stdout" in rec}
    lines = []
    if "fig4-uniform" in reports:
        lines.append(f"fig4 ks = {reports['fig4-uniform']['ks']:.6g} at N={wl.APPENDIX_N[3]} "
                     "(criterion 4 asks >= 0.05 at N=1000)")
    if "fig9-uniform" in reports:
        dev = reports["fig9-uniform"]["leading_digits"][0] - math.log10(2)
        lines.append(f"fig9 digit-1 deviation = {dev:.6g} at N={wl.APPENDIX_N[4]} "
                     "(criterion 5 asks <= 0.02 at N=100)")
    return lines


def end_to_end(run: Run, seconds: float, record: bool) -> tuple[dict, dict]:
    """Cycles for `seconds`, set-up samples around them, and the metrics of both."""
    workload, work = run.workload, run.work
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    setup_sample(workload, work)  # untimed: fills the bytecode cache, which users pay once
    run.setup += [setup_sample(workload, work) for _ in range(SETUP_BEFORE)]
    cycles = run.loop(run.worker(), seconds, record)
    setup = [hostspeed.at_reference(s, kernel) for s, kernel in run.setup]
    values["setup_s"] = statistics.median(setup)
    notes["setup_s"] = "median at the reference speed; " + tail(setup)
    values["setup_raw_s"] = statistics.median(s for s, _ in run.setup)
    notes["setup_raw_s"] = "median as measured"
    if cycles:
        values["wall_s"] = wall(cycles)
        notes["wall_s"] = ("median over cycles at the reference speed; "
                           + tail([at_reference(c, cycle_seconds(c)) for c in cycles]))
        values["wall_raw_s"] = statistics.median(cycle_seconds(c) for c in cycles)
        notes["wall_raw_s"] = "median over cycles as measured"
        reps = min(len(v) for v in op_times(cycles).values())
        values["wall_fastest_s"] = sum(min(v) for v in op_times(cycles).values())
        notes["wall_fastest_s"] = f"sum of each operation's fastest of {reps} or more repetitions, as measured"
        if cycles[0]["peak_rss_mb"] is not None:
            values["peak_rss_mb"] = cycles[0]["peak_rss_mb"]
            notes["peak_rss_mb"] = "ru_maxrss of the worker process over all cycles"
        for unit, amount in workload.work().items():
            if amount:
                values[f"{unit}_per_s"] = amount / values["wall_s"]
                notes[f"{unit}_per_s"] = f"{amount} {unit} per pass / wall_s; derived, not gated"
    return values, notes


def per_layer(run: Run, seconds: float) -> dict:
    """Half the time untraced cycles, half traced cycles, then the thread probes."""
    values: dict[str, float] = {}
    untraced = run.loop(run.worker(), seconds / 2)
    traced = run.loop(run.worker("--traced"), seconds / 2)
    if untraced and traced:
        per_cycle = [tracing.layer_metrics(c["spans"]) for c in traced]
        for name in per_cycle[0]:
            if name.endswith("_s"):  # times: the median over cycles, at the reference speed
                values[name] = statistics.median(at_reference(c, m[name]) for c, m in zip(traced, per_cycle))
            else:  # counts repeat, and a failure in any cycle shows
                values[name] = max(m[name] for m in per_cycle)
        values["cli.output_bytes"] = traced[-1]["output_bytes"]
        values["trace.overhead_s"] = wall(traced) - wall(untraced)
    probes = run.probe()
    values["enumeration.exact_threads2_s"] = probes.get("enumeration.exact_threads2_s", 0.0)
    values["montecarlo.tasks2_s"] = probes.get("montecarlo.tasks2_s", 0.0)
    return values


def report(run: Run, args, values: dict, notes: dict, spec: dict, info: dict) -> int:
    workload = run.workload
    failed = len(run.failures)
    values["fail_ratio"] = failed / max(run.attempted, 1)
    notes["fail_ratio"] = f"{failed} failed / {run.attempted} attempted; not gated (0 at the seed)"
    counts = run.counts(run.cycles[-1]) if run.cycles else {}
    units = {**PRINTED_ONLY_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}" + (f"  ({notes[name]})" if name in notes else ""))
    for name, value in counts.items():
        unit = "bytes" if "bytes" in name else "count"
        print(f"count {name} = {value} {unit}  (exact: must repeat between runs of the same code)")
    untraced = [c for c in run.cycles if "spans" not in c]
    for op_id, times in op_times(untraced).items():
        print(f"op {op_id}: n={len(times)} fastest={min(times):.4f} s median={statistics.median(times):.4f} s")
    if run.checker.dkw:
        print(f"check DKW: ks_distance {run.checker.dkw['ks_distance']:.3e} "
              f"<= band {run.checker.dkw['dkw_band']:.3e}")
    if run.cycles and workload.name == "appendix":
        for line in known_red(run.cycles[-1]):
            print(f"observed {line}; reported, not gated")
    traced = [c for c in run.cycles if "spans" in c]
    if traced:
        print("spans of the last traced cycle (name: calls, total s, self s):")
        for name, row in sorted(tracing.span_table(traced[-1]["spans"]).items()):
            print(f"  {name}: {row['calls']}, {row['total_s']:.4f}, {row['self_s']:.4f}")
    for failure in run.failures:
        print(f"FAILED {failure}")

    result_dir = WORK / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    (result_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"provenance": info, "workload": workload.name, "trace": args.trace, "metrics": values,
         "counts": counts, "setup_samples": [{"seconds": s, "kernel_s": k} for s, k in run.setup], "failures": run.failures, "cycles": run.cycles},
        indent=1))

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:  # no cycle finished, so there is nothing to report
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": max(run.attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite this workload's recorded digests")
    args = parser.parse_args()
    if not (ROOT / "src" / "stickfrag" / "cli.py").is_file():
        print(f"stickfrag sources not found under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    sys.path.insert(0, str(ROOT / "src"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = wl.build(args.workload, args.seed)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    run = Run(workload, args.seed, work, None if args.record else digests.get(workload.name, {}))
    info = provenance(args.seed)
    print(f"# stickfrag benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))

    try:
        write_configs(workload, work)
        notes: dict[str, str] = {}
        if args.trace == 0:
            values, notes = end_to_end(run, args.seconds, args.record)
        else:
            values = per_layer(run, args.seconds)
        guard = run.guard() if workload.name == "appendix" else {"seconds": 0.0, "exit": "not run"}
    finally:
        run.stop_workers()
    values["cli.guard_s"] = guard["seconds"]
    notes["cli.guard_s"] = f"cli.guard_exit = {guard['exit']}"

    if args.record:
        digests[workload.name] = {op.id: run.checker.first_digests[op.id]
                                  for op in workload.ops if op.recorded and op.id in run.checker.first_digests}
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(digests[workload.name])} digests for {workload.name}", file=sys.stderr)
    try:
        return report(run, args, values, notes, spec, info)
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
