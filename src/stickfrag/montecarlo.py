"""Seeded Monte Carlo sampling of leaf residues.

Each sample walks one root-to-leaf path of N splits and records the
fractional part of the log of the product of chosen proportions.  Fixed
models support both measures: choosing the child uniformly reproduces the
uniform-over-sticks measure (every leaf probability 1/m^N) and choosing the
child proportionally to its split reproduces the length-weighted measure.
The general model redraws the proportion vector at every split from a
symmetric simplex (Dirichlet) distribution.

Sampling is chunked with per-chunk derived seeds, so the sorted output does
not depend on how many workers consumed the chunks.  Generator: numpy PCG64.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .enumeration import (
    MEASURE_UNIFORM,
    MEASURES,
    WeightedMod1Distribution,
    _frac,
    _kahan_columns,
    _refuse_above_byte_limit,
    _write_indexed_csv,
    distribution_from_residues,
)
from .model import ProportionVector, log_base

GENERATOR_NAME = "numpy.random.PCG64"
_CHUNK_SAMPLES = 1 << 16
# bytes sample_leaf_residues holds per sample, at most: the chunks, their
# concatenation and the merge took 72-75 B a sample with every residue
# distinct (2^16 to 2^20 samples, fixed and Dirichlet); the rest is room for
# the fixed-size chunk buffers
_SAMPLE_BYTES = 80


@dataclass(frozen=True)
class FixedProportions:
    model: ProportionVector


@dataclass(frozen=True)
class RandomProportions:
    m: int
    concentration: tuple[float, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need m >= 2, got {self.m}")
        if len(self.concentration) != self.m:
            raise ValueError("need one concentration parameter per part")
        if not all(0 < c < math.inf for c in self.concentration):  # also refuses nan
            raise ValueError("concentration parameters must be finite and positive")


Mode = Union[FixedProportions, RandomProportions]


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    samples: int
    mode: Mode
    measure: str = MEASURE_UNIFORM

    def __post_init__(self):
        for name in ("seed", "samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise ValueError("need samples >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if not isinstance(self.mode, (FixedProportions, RandomProportions)):
            raise TypeError("mode must be FixedProportions or RandomProportions")

    @property
    def m(self) -> int:
        return self.mode.model.m if isinstance(self.mode, FixedProportions) else self.mode.m


def _sample_chunk(config: SamplerConfig, N: int, base: int, chunk_index: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, chunk_index)))
    m = config.m
    if isinstance(config.mode, FixedProportions):
        p = config.mode.model.p
        probs = np.full(m, 1.0 / m) if config.measure == MEASURE_UNIFORM else np.array(p)
        counts = rng.multinomial(N, probs, size=n)
        # same logs and compensated summation as the enumeration engine, so
        # sampled atoms land bit-identically on the enumerated ones
        total = _kahan_columns(counts, [log_base(x, base) for x in p])
    else:
        alpha = np.array(config.mode.concentration)
        total = np.zeros(n)
        # flat offset of each row in the C-contiguous (n, m) draw, so one
        # 1-d gather picks each row's coordinate
        rows = np.arange(n) * m
        for _ in range(N):
            P = rng.dirichlet(alpha, size=n)
            if config.measure == MEASURE_UNIFORM:
                idx = rng.integers(0, m, size=n)
            else:
                u = rng.random(n)
                idx = np.minimum((P.cumsum(axis=1) < u[:, None]).sum(axis=1), m - 1)
            chosen = P.ravel()[idx + rows]
            total += log_base(chosen, base)
    return _frac(total)


def sample_leaf_residues(
    config: SamplerConfig, N: int, base: int = 10, tasks: int = 1
) -> tuple[np.ndarray, WeightedMod1Distribution]:
    """Sample leaf residues and the empirical distribution they estimate.

    Deterministic given (config, N, base): chunk j of the sample stream is
    generated from seed sequence (seed, j) regardless of tasks, which only
    controls how many chunks run concurrently.  Before sampling,
    ResourceLimitError refuses a run whose samples * _SAMPLE_BYTES exceeds the
    exact engine's byte limit.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    if tasks < 1:
        raise ValueError("tasks must be >= 1")
    _refuse_above_byte_limit(config.samples * _SAMPLE_BYTES, f"{config.samples} samples")
    sizes = []
    remaining = config.samples
    while remaining > 0:
        sizes.append(min(_CHUNK_SAMPLES, remaining))
        remaining -= sizes[-1]
    jobs = list(enumerate(sizes))
    if tasks == 1 or len(jobs) == 1:
        chunks = [_sample_chunk(config, N, base, j, n) for j, n in jobs]
    else:
        with ThreadPoolExecutor(max_workers=tasks) as pool:
            chunks = list(pool.map(lambda jn: _sample_chunk(config, N, base, jn[0], jn[1]), jobs))
    residues = np.concatenate(chunks)
    dist = distribution_from_residues(residues, config.measure, N, config.m)
    return residues, dist


def write_samples_csv(residues: np.ndarray, path: str | Path) -> None:
    """Dump 'sample_index,residue' rows in stream order, 17 significant digits."""
    _write_indexed_csv("sample_index,residue", residues, path)


def write_metadata_json(config: SamplerConfig, N: int, base: int, config_echo: dict, path: str | Path) -> None:
    """Record everything needed to reproduce a sampling run."""
    if isinstance(config.mode, FixedProportions):
        mode = {"fixed_proportions": list(config.mode.model.p)}
    else:
        mode = {"random_proportions": {"m": config.mode.m, "concentration": list(config.mode.concentration)}}
    meta = {
        "generator": GENERATOR_NAME,
        "numpy_version": np.__version__,
        "seed": config.seed,
        "samples": config.samples,
        "measure": config.measure,
        "mode": mode,
        "N": N,
        "base": base,
        "config": config_echo,
    }
    Path(path).write_text(json.dumps(meta, indent=2) + "\n")
