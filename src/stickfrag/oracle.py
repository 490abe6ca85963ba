"""Independent oracles: brute-force tree expansion and exact residue counts.

brute_force_leaves expands the whole fragmentation tree by direct
multiplication so the enumeration engine can be cross-checked against
something with no combinatorial shortcuts.  exact_residues_rational works in
integer arithmetic over the lcm of the exponent denominators, so the
all-rational case ("at most prod b_i distinct log-length residues") is
verified without any floating point.

These are single-threaded reference implementations: auditability over speed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .enumeration import (
    MEASURE_UNIFORM,
    MEASURES,
    WeightedMod1Distribution,
    _cluster_starts,
    build_distribution,
    exact_distribution,
    _frac,
    _write_indexed_csv,
)
from .errors import ResourceLimitError
from .model import ProportionVector

BRUTE_FORCE_GUARD = 10**7
CROSS_CHECK_TOL = 1e-9


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
    """Distinct log-length residues (s_1 a_1/b_1 + ... mod 1) as exact fractions.

    residues are multiples of 1/lcm in [0,1); adding the carried offset
    (frac of N*log_base(pm)) gives the floating-point positions.
    """

    residues: tuple[Fraction, ...]
    count: int
    lcm: int
    denominator_bound: int
    offset: float

    def float_positions(self) -> np.ndarray:
        """Residues shifted by the offset, as floats in [0,1), sorted."""
        vals = np.array([_frac(float(f) + self.offset) for f in self.residues])
        return np.sort(vals)


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


def brute_force_leaves(model: ProportionVector, N: int, guard: int = BRUTE_FORCE_GUARD) -> LeafList:
    """Expand the full tree: every leaf length by direct multiplication.

    Leaf order is depth-first with children in proportion order, which equals
    stage-by-stage outer products on the full tree.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    if model.m**N > guard:
        raise ResourceLimitError(f"{model.m}**{N} = {model.m**N} leaves exceeds guard {guard}")
    lengths = np.array([1.0])
    p = np.array(model.p)
    for _ in range(N):
        lengths = (lengths[:, None] * p[None, :]).ravel()
    return LeafList(lengths, model.m, N)


def _rational_pairs(y) -> list[tuple[int, int]]:
    pairs = []
    for entry in y:
        if isinstance(entry, tuple) and len(entry) == 2:
            if not all(isinstance(v, int) for v in entry) or entry[1] == 0:
                raise ValueError(f"bad rational pair {entry!r}")
            entry = Fraction(*entry)
        elif not isinstance(entry, Fraction):
            raise ValueError(f"exponent {entry!r} is not an exact rational")
        pairs.append((entry.numerator, entry.denominator))
    return pairs


def exact_residues_rational(y, N: int, base_offset: float = 0.0) -> ExactResidueSet:
    """Distinct residues of sum_i s_i * a_i/b_i mod 1 over all stage-N sticks.

    y is the list of exact rational exponents (Fractions or (a, b) pairs).
    The partial sums s_i = k_1 + ... + k_i of a composition satisfy
    0 <= s_1 <= ... <= s_{m-1} <= N, and the residue only depends on each
    s_i mod b_i, so it suffices to scan the residue-class tuples and keep
    those whose minimal monotone lift stays <= N.  Exact integer arithmetic
    over lcm(b_1..b_{m-1}); no floating-point merging.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    pairs = _rational_pairs(y)
    bs = [b for _, b in pairs]
    lcm = math.lcm(*bs)
    bound = math.prod(bs)
    seen: set[int] = set()

    def scan(i: int, prev_s: int, acc: int) -> None:
        if i == len(pairs):
            seen.add(acc % lcm)
            return
        a, b = pairs[i]
        step = a * (lcm // b)
        for t in range(b):
            s = prev_s + ((t - prev_s) % b)  # minimal s >= prev_s with s = t mod b
            if s > N:
                continue
            scan(i + 1, s, acc + t * step)

    scan(0, 0, 0)
    residues = tuple(sorted(Fraction(v, lcm) for v in seen))
    return ExactResidueSet(
        residues=residues,
        count=len(residues),
        lcm=lcm,
        denominator_bound=bound,
        offset=_frac(base_offset),
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
    cap: int = 10**6,
) -> list[tuple[Fraction, float]]:
    """Mass carried by each exact residue class, by powering the one-step law on Z_L.

    With L = lcm(b_i), a stick's residue sum_i s_i a_i/b_i mod 1 is u/L, and
    a cut into child j adds u_j = sum_{i>=j} a_i (L/b_i) mod L to u (the last
    child adds 0).  So the mass of class u is the coefficient of x^u in
    (sum_j q_j x^{u_j})^N in R[x]/(x^L - 1), computed by binary powering.
    Uniform: q_j = 1, the coefficients are exact multinomial counts in
    Python ints, divided by m^N once.  Length: q_j = p_j, in floats.  Rows
    are the classes with non-zero mass, ascending.  cap still bounds the
    composition count C(N+m-1, m-1), as in exact_distribution, not the
    work: the powering costs O(L^2 log N) coefficient products.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    pairs = _rational_pairs(y)
    m = len(pairs) + 1
    if m != model.m:
        raise ValueError(f"{len(pairs)} exponents need m={m}, model has m={model.m}")
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    if math.comb(N + m - 1, m - 1) > cap:
        raise ResourceLimitError(f"composition count exceeds cap {cap}")
    lcm = math.lcm(*(b for _, b in pairs))
    q, total = ([1] * m, m**N) if measure == MEASURE_UNIFORM else (list(model.p), 1)
    step = [0] * lcm
    for j, qj in enumerate(q):
        step[sum(a * (lcm // b) for a, b in pairs[j:]) % lcm] += qj
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
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    logs = np.log10(leaves.lengths) if base == 10 else np.log(leaves.lengths) / math.log(base)
    residues = _frac(logs)
    if measure == MEASURE_UNIFORM:
        masses = np.full(len(residues), 1.0 / len(residues))
    else:
        masses = leaves.lengths.copy()
    return build_distribution(residues, masses, measure, leaves.N, leaves.m)


def cross_check(
    model: ProportionVector,
    N: int,
    base: int = 10,
    measure: str = MEASURE_UNIFORM,
    guard: int = BRUTE_FORCE_GUARD,
    tol: float = CROSS_CHECK_TOL,
) -> CrossCheckReport:
    """Compare exact_distribution against the brute-force leaf tally.

    Atoms from both sides are clustered together within tol; the report
    carries the largest per-cluster mass discrepancy.
    """
    leaves = brute_force_leaves(model, N, guard)
    brute = distribution_from_leaves(leaves, base, measure)
    exact = exact_distribution(model, N, base, measure)
    points = np.concatenate([exact.residues, brute.residues])
    signed = np.concatenate([exact.masses, -brute.masses])
    order = np.argsort(points, kind="stable")
    points = points[order]
    signed = signed[order]
    cid = np.cumsum(_cluster_starts(points, tol)) - 1
    per_cluster = np.bincount(cid, weights=signed)
    # wrap: first and last cluster may be the same atom split across 0/1
    if len(per_cluster) > 1 and (points[0] + 1.0 - points[-1]) <= tol:
        per_cluster[0] += per_cluster[-1]
        per_cluster = per_cluster[:-1]
    deviation = float(np.abs(per_cluster).max())
    return CrossCheckReport(
        passed=deviation <= tol,
        max_mass_deviation=deviation,
        atoms_exact=exact.atoms,
        atoms_brute=brute.atoms,
        leaves=len(leaves.lengths),
        measure=measure,
        N=N,
        m=model.m,
    )


def write_leaves_csv(leaves: LeafList, path: str | Path) -> None:
    """Dump 'leaf_index,length' rows in depth-first leaf order, 17 significant digits."""
    _write_indexed_csv("leaf_index,length", leaves.lengths, path)


def write_exact_residues_csv(rows: list[tuple[Fraction, float]], lcm: int, path: str | Path) -> None:
    """Dump 'numerator,denominator_lcm,mass' rows for exact residue classes."""
    lines = ["numerator,denominator_lcm,mass"]
    for frac_val, mass in rows:
        num = frac_val.numerator * (lcm // frac_val.denominator)
        lines.append(f"{num},{lcm},{mass:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
