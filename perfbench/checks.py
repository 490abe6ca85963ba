"""Output checks for one operation of a cycle.

Two kinds: digests compared with the ones recorded at the seed commit
(perfbench/digests.json), and checks that rest on no recorded value (mass
normalisation, exact residue counts, the DKW bound, re-run identity, the
cross-check verdict).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

MASS_TOL = 1e-10
DKW_ALPHA = 1e-6


def file_digest(path: Path) -> str:
    """sha256 of a file; manifest.json is hashed without its timestamp."""
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        manifest.pop("timestamp", None)
        return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def op_digests(op: wl.Op, rec: dict, work: Path) -> dict[str, str]:
    """Digest of every output of one call: stdout and each file written, or the in-memory result."""
    if op.kind not in wl.CLI_KINDS:
        return {"result": rec["digest"]}
    digests = {"stdout": hashlib.sha256(rec["stdout"].encode()).hexdigest()}
    out = work / op.out_dir
    if op.kind in ("analyze", "simulate"):
        for path in sorted(out.iterdir()):
            digests[path.name] = file_digest(path)
    return digests


def output_bytes(op: wl.Op, rec: dict, work: Path) -> int:
    if op.kind not in wl.CLI_KINDS:
        return 0
    out = work / op.out_dir
    files = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    return files + len(rec["stdout"].encode())


def _rational_count(config: str, N: int) -> int:
    import stickfrag as sf

    return sf.exact_residues_rational(list(wl.EXPONENTS[config]), N).count


def analyze_outputs(config: str, N: int, stdout: str, out: Path) -> list[str]:
    """Checks of an analyze run's files that rest on no recorded digest."""
    problems = []
    report = out / "report.json"
    if not report.is_file() or report.read_text() != stdout:
        problems.append("stdout JSON differs from report.json")
    lines = (out / "distribution.csv").read_text().splitlines()[1:]
    total = math.fsum(float(line.split(",")[1]) for line in lines)
    if abs(total - 1.0) > MASS_TOL:
        problems.append(f"masses sum to {total!r}")
    if config in wl.RATIONAL:
        atoms = json.loads(stdout)["distinct_residues"]
        exact = _rational_count(config, N)
        if atoms != exact:
            problems.append(f"{atoms} atoms, exact_residues_rational counts {exact}")
    return problems


class Checker:
    """Checks each operation's outputs; remembers what later cycles must repeat."""

    def __init__(self, work: Path, recorded: dict | None):
        self.work = work
        self.recorded = recorded  # None while recording
        self.first_digests: dict[str, dict] = {}
        self.dkw: dict | None = None  # checked once per run: it costs an exact enumeration

    def check(self, op: wl.Op, rec: dict) -> list[str]:
        if rec["exit"] != 0:
            return [f"exit {rec['exit']}" + (f": {rec['error']}" if "error" in rec else "")]
        problems = []
        digests = op_digests(op, rec, self.work)
        rec["digests"] = digests
        if op.recorded and self.recorded is not None:
            if self.recorded.get(op.id) != digests:
                problems.append("outputs differ from the digests recorded at the seed commit")
        first = self.first_digests.setdefault(op.id, digests)
        if first != digests:
            problems.append("a re-run with the same inputs wrote different bytes")
        out = self.work / op.out_dir
        if op.kind == "analyze":
            problems += analyze_outputs(op.config, op.N, rec["stdout"], out)
        elif op.kind == "simulate":
            if (out / "report.json").read_text() != rec["stdout"]:
                problems.append("stdout JSON differs from report.json")
            if self.dkw is None:
                problems += self._dkw(op, out / "samples.csv")
        elif op.kind == "brute":
            report = json.loads(rec["stdout"])
            if not report["passed"]:
                problems.append(f"cross_check failed: deviation {report['max_mass_deviation']:.3e}")
        elif op.kind == "dirichlet":
            if rec["samples"] != wl.DIRICHLET_SAMPLES or abs(rec["mass_sum"] - 1.0) > MASS_TOL:
                problems.append(f"{rec['samples']} samples, mass {rec['mass_sum']!r}")
        elif op.kind == "residue_scan":
            bound = math.prod(v.denominator for v in wl.EXPONENTS[op.config])
            if len(rec["counts"]) != op.N + 1 or max(rec["counts"]) > bound:
                problems.append(f"residue count {max(rec['counts'])} over the bound {bound}")
        elif op.kind == "residue_distribution":
            exact = _rational_count(op.config, op.N)
            if rec["classes"] != exact or abs(rec["mass_sum"] - 1.0) > MASS_TOL:
                problems.append(f"{rec['classes']} classes (exact {exact}), mass {rec['mass_sum']!r}")
        return problems

    def _dkw(self, op: wl.Op, samples_csv: Path) -> list[str]:
        """Sampled CDF within the DKW band of the exact distribution (fails with probability DKW_ALPHA)."""
        import stickfrag as sf

        residues = np.loadtxt(samples_csv, delimiter=",", skiprows=1, usecols=1)
        model = sf.proportions_from_exponents(sf.ExponentSpec(wl.EXPONENTS[op.config]))
        sampled = sf.distribution_from_residues(residues, op.measure, op.N, model.m)
        exact = sf.exact_distribution(model, op.N, measure=op.measure)
        gap = sf.ks_distance(sampled, exact)
        band = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * len(residues)))
        self.dkw = {"ks_distance": gap, "dkw_band": band}
        return [] if gap <= band else [f"sampled CDF {gap:.3e} from exact, DKW band {band:.3e}"]
