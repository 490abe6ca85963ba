"""Independent oracles: brute-force tree expansion and exact residue counts.

brute_force_leaves expands the whole fragmentation tree by direct
multiplication so the enumeration engine can be cross-checked against
something with no combinatorial shortcuts.  The rational oracles work in
integer arithmetic on Z_L, L = lcm of the exponent denominators, so the
all-rational case ("at most prod b_i distinct log-length residues") is
verified without any floating point: exact_residues_rational walks the class
shifts of _class_shifts breadth-first, exact_residue_distribution powers them.

These are single-threaded reference implementations: auditability over speed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .enumeration import (
    ALIGN_TOL,
    MEASURE_UNIFORM,
    WeightedMod1Distribution,
    _check_measure,
    _cluster_differences,
    _count_text,
    build_distribution,
    exact_distribution,
    _frac,
    _write_csv,
)
from .errors import ResourceLimitError
from .model import ProportionVector, _check_base, _check_count, _check_real, exponent_entry, log_base

# brute_force_leaves refuses above this many leaves.  cross_check, the
# oracle's largest caller, peaks at 27 B a leaf (19 for `uniform`) while it
# tallies the brute-force atoms, and its tests hold it to 30 B (20), so 10^7
# leaves stay near 0.27 GB, and 0.35 GB with the 8 B a leaf that the merge's
# radix pass takes from malloc, where tracemalloc does not see it; both are
# below the exact engine's _BYTE_LIMIT (4 GiB)
BRUTE_FORCE_GUARD = 10**7
# exact_residue_distribution's limit on its work estimate (see there): it
# accepts fig3-fig6 at N=10^5, and length calls at the limit take 1.4-4.3 s
# on 2 vCPU
_POWERING_WORK_LIMIT = 3 * 10**10


@dataclass(frozen=True)
class LeafList:
    """All m^N leaf stick lengths, with multiplicity, in depth-first order."""

    lengths: np.ndarray
    m: int
    N: int

    def __post_init__(self):
        if len(self.lengths) != self.m**self.N:
            raise ValueError(f"expected {self.m**self.N} leaves, got {len(self.lengths)}")
        total = float(self.lengths.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"leaf lengths sum to {total!r}, not 1 within 1e-9")
        self.lengths.flags.writeable = False


@dataclass(frozen=True)
class ExactResidueSet:
    """Distinct log-length residues (s_1 a_1/b_1 + ... mod 1) as their classes u/lcm.

    classes holds the integers u in [0, lcm), ascending; residues builds the
    exact Fractions u/lcm on read.  Adding the carried offset (frac of
    N*log_base(pm)) gives the floating-point positions.
    """

    classes: tuple[int, ...]
    lcm: int
    denominator_bound: int
    offset: float

    @property
    def residues(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, self.lcm) for u in self.classes)

    @property
    def count(self) -> int:
        return len(self.classes)

    def float_positions(self) -> np.ndarray:
        """Residues shifted by the offset and reduced mod 1 by _frac, as floats in [0,1), sorted.

        u / lcm is int true division, correctly rounded as float(Fraction(u, lcm)) is."""
        return np.sort(_frac(np.array([u / self.lcm for u in self.classes]) + self.offset))


@dataclass(frozen=True)
class CrossCheckReport:
    passed: bool
    max_mass_deviation: float
    atoms_exact: int
    atoms_brute: int
    leaves: int
    measure: str
    N: int
    m: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def brute_force_leaves(model: ProportionVector, N: int) -> LeafList:
    """Expand the full tree: every leaf length by direct multiplication.

    Leaf order is depth-first with children in proportion order, which equals
    stage-by-stage outer products on the full tree.  Refuses with
    ResourceLimitError above BRUTE_FORCE_GUARD leaves.
    """
    N = _check_count("N", N, 0)
    # m >= 2, so m**N is above the guard from N = BRUTE_FORCE_GUARD.bit_length()
    # on: N is compared first, and a large N raises m to no power
    m = model.m
    if N >= BRUTE_FORCE_GUARD.bit_length() or m**N > BRUTE_FORCE_GUARD:
        raise ResourceLimitError(
            f"{m}**{_count_text(N)} = {_count_text(m, N)} leaves exceeds guard {BRUTE_FORCE_GUARD}"
        )
    lengths = np.array([1.0])
    for _ in range(N):
        # child j of leaf i lands at i*m + j: one strided product per proportion
        children = np.empty(len(lengths) * m)
        for j, p in enumerate(model.p):
            np.multiply(lengths, p, out=children[j::m])
        lengths = children
    return LeafList(lengths, m, N)


def _rational_pairs(y) -> tuple[tuple[int, int], ...]:
    pairs = []
    for entry in map(exponent_entry, y):
        if not isinstance(entry, Fraction):
            raise ValueError(f"exponent {entry!r} is not an exact rational")
        pairs.append((entry.numerator, entry.denominator))
    return tuple(pairs)


@lru_cache(maxsize=64)
def _class_shifts(pairs: tuple[tuple[int, int], ...]) -> tuple[int, tuple[int, ...]]:
    """L = lcm(b_i), and the shift u_j = sum_{i>=j} a_i (L/b_i) mod L that a cut
    into child j adds to a stick's residue class u/L (the last child's is 0).

    Cached: the residue scans call it with the same pairs for every N, and
    the result is immutable, so the oracles share it."""
    lcm = math.lcm(*(b for _, b in pairs))
    steps = [a * (lcm // b) for a, b in pairs]
    return lcm, tuple(sum(steps[j:]) % lcm for j in range(len(pairs) + 1))


def exact_residues_rational(y, N: int, base_offset: float = 0.0) -> ExactResidueSet:
    """Distinct residues of sum_i s_i * a_i/b_i mod 1 over all stage-N sticks.

    y holds exact rationals in exponent_entry's forms (Fraction or (a, b)); a number raises ValueError.
    The classes u/L reachable in n cuts are walked breadth-first from 0, one
    layer per cut of the _class_shifts; the last child's shift is 0, so the
    layers only grow and the walk ends after N layers or at the first that
    adds no class.  count <= L <= prod b_i, and count = L once N >= L - 1
    (the shifts generate Z_L).  Exact integer arithmetic; no float merging.
    The result keeps the reached classes u as ints; its residues are the
    Fractions u/L, built when read.  base_offset must be finite (_check_real).
    """
    N = _check_count("N", N, 0)
    base_offset = _check_real("base_offset", base_offset)
    pairs = _rational_pairs(y)
    lcm, shifts = _class_shifts(pairs)
    seen, frontier = {0}, {0}
    for _ in range(N):
        frontier = {(v + u) % lcm for v in frontier for u in shifts} - seen
        if not frontier:
            break
        seen |= frontier
    return ExactResidueSet(
        classes=tuple(sorted(seen)),
        lcm=lcm,
        denominator_bound=math.prod(b for _, b in pairs),
        # the residue scans pass the default 0.0: a zero offset, + or -, reduces to +0.0 with no numpy call
        offset=float(_frac(np.array([base_offset], dtype=float))[0]) if base_offset else 0.0,
    )


def _cyclic_product(f: list, g: list) -> list:
    """Product of two coefficient lists in R[x]/(x^L - 1), L = len(f) = len(g)."""
    h = [0] * len(f)
    for i, fi in enumerate(f):
        if fi:
            # x^i * g: g rotated right by i
            h = [hk + fi * gk for hk, gk in zip(h, g[-i:] + g[:-i])]
    return h


def exact_residue_distribution(
    y,
    N: int,
    model: ProportionVector,
    measure: str = MEASURE_UNIFORM,
) -> list[tuple[Fraction, float]]:
    """Mass carried by each exact residue class, by powering the one-step law on Z_L.

    With L = lcm(b_i), a stick's residue sum_i s_i a_i/b_i mod 1 is u/L, and
    a cut into child j adds the shift u_j of _class_shifts to u.  So the mass
    of class u is the coefficient of x^u in (sum_j q_j x^{u_j})^N in
    R[x]/(x^L - 1), computed by binary powering.
    Uniform: q_j = 1, the coefficients are exact multinomial counts in
    Python ints, divided by m^N once.  Length: q_j = p_j, in floats.  Rows
    are the classes with non-zero mass, ascending; a length row whose float
    mass underflows to 0 is left out (y = (1/4001,) at N=8000 gives 3,379
    rows for 4,001 classes).

    The powering takes about log2(N+1) products of L^2 multiply-adds each.
    Before any of them, ResourceLimitError refuses a call whose work
    L^2 * ceil(log2(N+1)) * w exceeds _POWERING_WORK_LIMIT, where w = 256
    for float multiply-adds (length) and w = max(256, 256 W, W^2) for the
    counts (uniform), W = ceil(N log2(m) / 64) being their size in 64-bit
    words.  An int multiply-add of W words took about 12 W ns (L=600,
    W=2-64, 2 vCPU), so the 256 W term prices it at a steady 45-65 ps per
    unit of work.
    The counts take 8 L W bytes, at most 8 sqrt(limit).
    """
    _check_measure(measure)
    pairs = _rational_pairs(y)
    m = len(pairs) + 1
    if m != model.m:
        raise ValueError(f"{len(pairs)} exponents need m={m}, model has m={model.m}")
    N = _check_count("N", N, 0)
    lcm, shifts = _class_shifts(pairs)
    # ceil(N log2(m) / 64) in ints, from the exact ratio of the float log2(m):
    # N * log2(m) would convert an N past float range to a float
    num, den = math.log2(m).as_integer_ratio()
    words = -(-N * num // (64 * den)) if measure == MEASURE_UNIFORM else 0
    work = lcm**2 * math.ceil(math.log2(N + 1)) * max(256, 256 * words, words**2)
    if work > _POWERING_WORK_LIMIT:
        raise ResourceLimitError(
            f"residue powering work estimate {_count_text(work, spec='.3g')} (L={lcm}, N={_count_text(N)}, {measure}) "
            f"exceeds the limit {_POWERING_WORK_LIMIT:.3g}"
        )
    q, total = ([1] * m, m**N) if measure == MEASURE_UNIFORM else (list(model.p), 1)
    step = [0] * lcm
    for u, qj in zip(shifts, q):
        step[u] += qj
    law = [1] + [0] * (lcm - 1)
    n = N
    while n:
        if n & 1:
            law = _cyclic_product(law, step)
        n >>= 1
        if n:
            step = _cyclic_product(step, step)
    return [(Fraction(r, lcm), mass / total) for r, mass in enumerate(law) if mass]


def distribution_from_leaves(
    leaves: LeafList, base: int = 10, measure: str = MEASURE_UNIFORM
) -> WeightedMod1Distribution:
    """Tally brute-force leaves into a weighted mod-1 distribution."""
    _check_measure(measure)
    residues = _frac(log_base(leaves.lengths, base))
    # read-only weights, as the merge only gathers from them: one value
    # broadcast for the uniform measure (merged by a value sort), the leaf
    # lengths for the length one
    masses = np.broadcast_to(1.0 / len(residues), len(residues)) if measure == MEASURE_UNIFORM else leaves.lengths
    return build_distribution(residues, masses, measure, leaves.N, leaves.m)


def cross_check(
    model: ProportionVector, N: int, base: int = 10, measure: str = MEASURE_UNIFORM
) -> CrossCheckReport:
    """Compare exact_distribution against the brute-force leaf tally.

    The atoms of both sides are pooled into clusters within ALIGN_TOL
    (_cluster_differences); a first and last cluster within ALIGN_TOL across
    the 0/1 wrap count as one.  The report carries the largest per-cluster
    mass difference and passes when it is at most ALIGN_TOL.
    """
    _check_measure(measure)
    base = _check_base(base)  # before any leaf is expanded, as brute_force_leaves judges N
    leaves = brute_force_leaves(model, N)
    n_leaves = len(leaves.lengths)
    brute = distribution_from_leaves(leaves, base, measure)
    del leaves  # m**N lengths; only the merged atoms are compared
    exact = exact_distribution(model, N, base, measure)
    points, per_cluster = _cluster_differences(exact, brute)
    # wrap: first and last cluster may be the same atom split across 0/1
    if len(per_cluster) > 1 and (points[0] + 1.0 - points[-1]) <= ALIGN_TOL:
        per_cluster[0] += per_cluster[-1]
        per_cluster = per_cluster[:-1]
    deviation = float(np.abs(per_cluster).max())
    return CrossCheckReport(
        passed=deviation <= ALIGN_TOL,
        max_mass_deviation=deviation,
        atoms_exact=exact.atoms,
        atoms_brute=brute.atoms,
        leaves=n_leaves,
        measure=measure,
        N=brute.N,
        m=model.m,
    )


def write_leaves_csv(leaves: LeafList, path: str | Path) -> None:
    """Dump 'leaf_index,length' rows in depth-first leaf order, 17 significant digits."""
    _write_csv(path, "leaf_index,length", range(len(leaves.lengths)), leaves.lengths)


def write_exact_residues_csv(rows: list[tuple[Fraction, float]], lcm: int, path: str | Path) -> None:
    """Dump 'numerator,denominator_lcm,mass' rows for exact residue classes."""
    _write_csv(path, "numerator,denominator_lcm,mass", [r.numerator * (lcm // r.denominator) for r, _ in rows],
               [lcm] * len(rows), [mass for _, mass in rows])
