"""Seeded Monte Carlo sampling of leaf residues.

Each sample walks one root-to-leaf path of N splits and records the
fractional part of the log of the product of chosen proportions.  Fixed
models support both measures: choosing the child uniformly reproduces the
uniform-over-sticks measure (every leaf probability 1/m^N) and choosing the
child proportionally to its split reproduces the length-weighted measure.
The general model redraws the proportion vector at every split from a
Dirichlet distribution.  A flat one (every concentration 1, Lemons' uniform
cuts) is i.i.d. standard exponentials over their sum, and rng.dirichlet
draws exactly those doubles (standard_gamma(1) is standard_exponential), so
the `uniform` measure draws the exponentials itself and scales only the
coordinate it picks, with the bits rng.dirichlet gives.  `length` reads every
coordinate, and it and every other concentration keep rng.dirichlet.

Sampling is chunked with per-chunk derived seeds, so the sorted output does
not depend on how many workers consumed the chunks.  Generator: numpy PCG64.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .enumeration import (
    MEASURE_UNIFORM,
    WeightedMod1Distribution,
    _check_measure,
    _count_text,
    _frac,
    _refuse_above_byte_limit,
    _residues,
    _write_csv,
    _write_json,
    distribution_from_residues,
)
from .errors import ResourceLimitError
from .model import ProportionVector, _check_base, _check_count, _check_real, log_base

GENERATOR_NAME = "numpy.random.PCG64"
_CHUNK_SAMPLES = 1 << 16
# Upper bound on the bytes sample_leaf_residues holds at once, checked
# against tracemalloc peaks of fixed and Dirichlet runs at m=3 and m=8, both
# measures, every residue distinct, from 1 to 2^21 samples and 1 or 2 tasks:
# - _SAMPLE_BYTES a sample: the residues and their merge took 47.9-48.1 B a
#   sample from 2^19 samples up, 48-51 B at 2^18; the rest is room, as the
#   fit stops far below the byte limit;
# - the buffers of the chunks in flight, (17m + 40) B a row of
#   min(samples, tasks * _CHUNK_SAMPLES): below 2^16 samples the peak grows by
#   8m + 42 B a sample for Dirichlet `length` (one stage's (n, m) draw, the
#   running total and row offsets, and the uniforms, running sum and
#   indices of the pick), 8m + 40 for Dirichlet `uniform` and 8m + 32 for
#   fixed models, and each further task holds one more chunk; the term,
#   17m + 40, is above each of these.
# Runs of a few hundred samples or less peak a few kB above the estimate
# (under 30 kB), far below any limit the guard is meant for.
_SAMPLE_BYTES = 80
# Upper bound on N * samples * m, the coordinates a Dirichlet run draws.  A
# coordinate cost 14-68 ns (2^16 samples, N=50, 2 vCPU): 23 ns for the flat
# m=3 `uniform` draw, 37-39 ns at alpha=2 and 50-68 ns at alpha=0.3-0.5,
# numpy's slowest gamma route; so the largest admitted run takes 1.5-4.5
# minutes.  Fixed models draw one multinomial row a sample,
# whatever N, and are not bounded by it.
_DIRICHLET_WORK_LIMIT = 4 * 10**9


def _peak_sample_bytes(samples: int, m: int, tasks: int) -> int:
    rows_in_flight = min(samples, tasks * _CHUNK_SAMPLES)
    return samples * _SAMPLE_BYTES + rows_in_flight * (17 * m + 40)


@dataclass(frozen=True)
class FixedProportions:
    model: ProportionVector


@dataclass(frozen=True)
class RandomProportions:
    m: int
    concentration: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", _check_count("m", self.m, 2))
        concentration = tuple(_check_real("concentration parameter", c, 0.0) for c in self.concentration)
        object.__setattr__(self, "concentration", concentration)
        if len(concentration) != self.m:
            raise ValueError("need one concentration parameter per part")


Mode = Union[FixedProportions, RandomProportions]


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    samples: int
    mode: Mode
    measure: str = MEASURE_UNIFORM

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0))
        object.__setattr__(self, "samples", _check_count("samples", self.samples, 1))
        if self.seed >= 2**64:
            raise ValueError("seed must fit in 64 bits")
        _check_measure(self.measure)
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
        return _residues(rng.multinomial(N, probs, size=n), p, base)
    alpha = np.array(config.mode.concentration)
    uniform = config.measure == MEASURE_UNIFORM
    # the module docstring's flat draw: for alpha = 1 rng.dirichlet draws, row by row, the
    # exponentials standard_exponential writes into an (n, m) array, so the stream keeps its bits
    flat = uniform and bool((alpha == 1).all())
    total = np.zeros(n)
    # flat offset of each row in the C-contiguous (n, m) draw, so one
    # 1-d gather picks each row's coordinate
    rows = np.arange(n) * m
    # the flat stages refill one (n, m) buffer in place of a new array a stage
    draw = np.empty((n, m)) if flat and N else None
    # a proportion that underflowed to 0.0 sends total to -inf, checked once below
    with np.errstate(divide="ignore"):
        for _ in range(N):
            if flat:
                P = rng.standard_exponential(out=draw)
                # 1 / row sum, the sum added in dirichlet's order ((0 + e_0) + e_1) + ...
                inv = P[:, 0].copy()
                for j in range(1, m):
                    inv += P[:, j]
                np.divide(1.0, inv, out=inv)
            else:
                P = rng.dirichlet(alpha, size=n)
            if uniform:
                idx = rng.integers(0, m, size=n)
            else:
                # the first j whose running sum P_0 + ... + P_j reaches u, or
                # m - 1; the sum is added in cumsum's order, one column at a
                # time, so no (n, m) table is built
                u = rng.random(n)
                acc = P[:, 0].copy()
                idx = (acc < u).astype(np.intp)
                for j in range(1, m - 1):
                    acc += P[:, j]
                    idx += acc < u
                del acc, u
            idx += rows
            pick = P.ravel()[idx]
            del P, idx
            if flat:
                pick *= inv  # the multiply rng.dirichlet makes, on the one coordinate read
                del inv
            total += log_base(pick, base)
            # only total, rows and the flat buffer are held through the next stage's draw
            del pick
    if np.isneginf(total).any():
        raise ValueError(
            f"a drawn proportion underflowed to 0.0 under concentration {config.mode.concentration}, "
            "so its log is not finite"
        )
    return _frac(total)


def sample_leaf_residues(
    config: SamplerConfig, N: int, base: int = 10, tasks: int = 1
) -> tuple[np.ndarray, WeightedMod1Distribution]:
    """Sample leaf residues and the empirical distribution they estimate.

    Deterministic given (config, N, base): chunk j of the sample stream is
    generated from seed sequence (seed, j) regardless of tasks, which only
    controls how many chunks run concurrently.  Before sampling,
    ResourceLimitError refuses a run whose _peak_sample_bytes exceeds the
    exact engine's byte limit, and a Dirichlet run that would draw more than
    _DIRICHLET_WORK_LIMIT coordinates.  ValueError is raised when a drawn
    proportion underflows to 0.0, whose log is not finite.
    """
    N = _check_count("N", N, 0)
    base = _check_base(base)
    tasks = _check_count("tasks", tasks, 1)
    _refuse_above_byte_limit(
        _peak_sample_bytes(config.samples, config.m, tasks), f"{_count_text(config.samples)} samples"
    )
    if isinstance(config.mode, RandomProportions) and (work := N * config.samples * config.m) > _DIRICHLET_WORK_LIMIT:
        raise ResourceLimitError(
            f"N * samples * m = {_count_text(work)} Dirichlet coordinates exceeds the limit of {_DIRICHLET_WORK_LIMIT}"
        )
    jobs = [(j, min(_CHUNK_SAMPLES, config.samples - start))
            for j, start in enumerate(range(0, config.samples, _CHUNK_SAMPLES))]
    if tasks == 1 or len(jobs) == 1:
        chunks = [_sample_chunk(config, N, base, j, n) for j, n in jobs]
    else:
        with ThreadPoolExecutor(max_workers=tasks) as pool:
            chunks = list(pool.map(lambda jn: _sample_chunk(config, N, base, jn[0], jn[1]), jobs))
    residues = np.concatenate(chunks)
    del chunks  # their concatenation holds every residue; the merge needs no second copy
    dist = distribution_from_residues(residues, config.measure, N, config.m)
    return residues, dist


def write_samples_csv(residues: np.ndarray, path: str | Path) -> None:
    """Dump 'sample_index,residue' rows in stream order, 17 significant digits."""
    _write_csv(path, "sample_index,residue", range(len(residues)), residues)


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
    _write_json(meta, path)
