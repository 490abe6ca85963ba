"""The benchmark's fixed inputs: model configs and the operations of one cycle.

Every input is fixed except the sampler seeds of the `sample_verify`
workload, which come from the benchmark's --seed.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F

MEASURES = ("uniform", "length")

# Exponents y_i = log10(p_i / p_{i+1}) of the eight appendix figures, as in
# tests/test_acceptance.py.
EXPONENTS = {
    "fig3": (F(-1, 3), F(-1, 2)),
    "fig4": (F(-1, 4), F(-1, 6)),
    "fig5": (F(-1, 2), F(-1, 3), F(-1, 4)),
    "fig6": (F(-1, 4), F(-1, 2), F(-1, 6)),
    "fig7": (F(-1, 2), -math.sqrt(2)),
    "fig8": (F(-1, 3), -math.sqrt(3)),
    "fig9": (-math.sqrt(2), F(-1, 3), F(-1, 4)),
    "fig10": (-math.sqrt(3), F(-1, 10), F(-1, 8)),
}
RATIONAL = tuple(name for name, y in EXPONENTS.items() if all(isinstance(v, F) for v in y))

CONFIGS = {
    name: {
        "exponents": [{"rational": [v.numerator, v.denominator]} if isinstance(v, F) else {"real": v}
                      for v in y],
        "base": 10,
    }
    for name, y in EXPONENTS.items()
}
CONFIGS["split30"] = {"proportions": [0.3]}  # m=2, for the brute-force oracle
CLI_KINDS = ("classify", "analyze", "brute", "simulate")


def parts(config: str) -> int:
    """Number of proportions m of a config."""
    return 2 if config == "split30" else len(EXPONENTS[config]) + 1


# Sizes are set so that one cycle of a workload takes a few seconds: each
# operation then repeats about ten times in a run, spread over the run, and
# its fastest repetition is steady on a shared host (NOTES.md).
APPENDIX_N = {3: 200, 4: 40}  # by m; the captions use 1000 and 100
GUARD_POINT = ("fig5", 2000)  # 1.34e9 compositions, 13x the default cap
SIM_N, SIM_SAMPLES = 1000, 1 << 17
DIRICHLET_N, DIRICHLET_SAMPLES, DIRICHLET_ALPHA = 100, 1 << 15, (1.0, 1.0, 1.0)
BRUTE_POINTS = (("split30", 19), ("fig7", 11), ("fig9", 9))  # 1.8e5 to 5.2e5 leaves each
SCAN_N = 600
RESIDUE_DISTRIBUTION_POINT = ("fig4", 150)


@dataclass(frozen=True)
class Op:
    """One call of a cycle.

    kind is a CLI subcommand (run through stickfrag.cli.main) or one of the
    direct calls "dirichlet", "residue_scan" and "residue_distribution".
    recorded marks outputs that do not depend on the seed, so their digests
    are compared with perfbench/digests.json.
    """

    id: str
    kind: str
    config: str
    N: int = 0
    measure: str = "uniform"
    seed: int = 0
    recorded: bool = True

    @property
    def out_dir(self) -> str:
        return f"out/{self.id}"

    def argv(self) -> list[str]:
        argv = [self.kind, "--config", f"configs/{self.config}.json"]
        if self.kind == "classify":
            return argv
        argv += ["--N", str(self.N), "--measure", self.measure]
        if self.kind == "simulate":
            argv += ["--samples", str(SIM_SAMPLES), "--seed", str(self.seed)]
        if self.kind in ("analyze", "simulate"):
            argv += ["--out", self.out_dir]
        return argv

    @property
    def compositions(self) -> int:
        return math.comb(self.N + parts(self.config) - 1, parts(self.config) - 1) if self.kind == "analyze" else 0


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]

    @property
    def configs(self) -> list[str]:
        names = {op.config for op in self.ops if op.kind in CLI_KINDS}
        return sorted(names | ({GUARD_POINT[0]} if self.name == "appendix" else set()))

    def work(self) -> dict[str, int]:
        """Fixed work of one cycle, by unit."""
        return {
            "compositions": sum(op.compositions for op in self.ops),
            "samples": sum(SIM_SAMPLES if op.kind == "simulate" else DIRICHLET_SAMPLES
                           for op in self.ops if op.kind in ("simulate", "dirichlet")),
            "leaves": sum(parts(op.config) ** op.N for op in self.ops if op.kind == "brute"),
        }


def build(name: str, seed: int) -> Workload:
    """The workload `name`; seed feeds only the sampler seeds."""
    if name == "appendix":
        ops = []
        for config in EXPONENTS:
            N = APPENDIX_N[parts(config)]
            ops.append(Op(f"{config}-classify", "classify", config))
            ops += [Op(f"{config}-{m}", "analyze", config, N, m) for m in MEASURES]
        return Workload(name, tuple(ops))
    if name == "sample_verify":
        ops = [
            Op("fig7-simulate", "simulate", "fig7", SIM_N, seed=seed, recorded=False),
            Op("dirichlet", "dirichlet", "dirichlet", DIRICHLET_N, seed=seed, recorded=False),
        ]
        ops += [Op(f"{c}-N{N}-{m}", "brute", c, N, m) for c, N in BRUTE_POINTS for m in MEASURES]
        ops += [Op(f"{c}-scan", "residue_scan", c, SCAN_N) for c in RATIONAL]
        c, N = RESIDUE_DISTRIBUTION_POINT
        ops.append(Op(f"{c}-N{N}-classes", "residue_distribution", c, N))
        return Workload(name, tuple(ops))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("appendix", "sample_verify")
