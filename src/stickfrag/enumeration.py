"""Exact enumeration of the composition lattice after N fragmentation stages.

After N stages every leaf stick is identified by a weak composition
(k1, ..., km) of N: its length is p1^k1 * ... * pm^km and the number of
leaves sharing it is the multinomial coefficient N!/(k1!...km!).  This module
builds the table of all C(N+m-1, m-1) compositions in a fixed order,
evaluates log-multinomial weights over it in fixed-size chunks, and
aggregates the exact weighted distribution of fractional parts of
log-lengths without materializing the m^N sticks.  compositions() streams
the same rows one at a time, as an independent reference.

All mass arithmetic happens in log space: for N=1000 the raw masses are far
below the double-precision underflow threshold, so masses are exponentiated
only after subtracting the running maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ResourceLimitError
from .model import ProportionVector, log_base

MEASURE_UNIFORM = "uniform"  # each of the m^N leaf sticks counts once
MEASURE_LENGTH = "length"    # each leaf weighted by its length
MEASURES = (MEASURE_UNIFORM, MEASURE_LENGTH)

MERGE_TOL = 1e-12
ALIGN_TOL = 1e-9  # atoms of two distributions this close are one location
# exact_distribution and sample_leaf_residues refuse a run whose estimated
# peak exceeds this many bytes: about half of an 8 GB host, which leaves room
# for the interpreter, the report and the other processes on it; it equals
# the address-space limit the benchmark's guard probe runs under
_BYTE_LIMIT = 4 << 30
_CHUNK_ROWS = 1 << 17
_CSV_BLOCK_ROWS = 1 << 13


class Composition(NamedTuple):
    """A weak composition k of N into m non-negative parts."""

    k: tuple[int, ...]
    N: int


@dataclass(frozen=True)
class WeightedMod1Distribution:
    """Atomic probability distribution on [0, 1).

    residues are sorted ascending with neighbours more than the merge
    tolerance apart; masses are nonnegative and sum to 1 (within 1e-10).
    """

    residues: np.ndarray
    masses: np.ndarray
    measure: str
    N: int
    m: int

    def __post_init__(self):
        r, w = self.residues, self.masses
        if r.shape != w.shape or r.ndim != 1 or len(r) == 0:
            raise ValueError("residues and masses must be equal-length 1-d arrays")
        # NaN passes every ordering and sum check below, so it is refused here
        if not (np.isfinite(r).all() and np.isfinite(w).all()):
            raise ValueError("residues and masses must be finite")
        if r[0] < 0.0 or r[-1] >= 1.0 or np.any(np.diff(r) <= 0):
            raise ValueError("residues must be strictly ascending inside [0, 1)")
        if np.any(w < 0.0):
            raise ValueError("masses must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"masses sum to {total!r}, not 1 within 1e-10")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        r.flags.writeable = False
        w.flags.writeable = False

    @property
    def atoms(self) -> int:
        return len(self.residues)

    def total_mass(self) -> float:
        return float(self.masses.sum())


def _frac(x):
    """Fractional part mapped into [0, 1); values within MERGE_TOL of 1 snap to 0.

    A scalar gives a float.  An array is overwritten with the result, which is
    returned: callers pass a buffer they own, so no second one is allocated.
    """
    if np.ndim(x) == 0:
        r = x - np.floor(x)
        return 0.0 if (1.0 - r) <= MERGE_TOL else float(r)
    np.subtract(x, np.floor(x), out=x)
    x[(1.0 - x) <= MERGE_TOL] = 0.0
    return x


def _write_indexed_csv(header: str, values: np.ndarray, path: str | Path) -> None:
    """Dump 'index,value' rows in array order, values to 17 significant digits.

    Rows go out in blocks of _CSV_BLOCK_ROWS, and each block formats every
    distinct value once: a fixed-proportion model puts its samples on a few
    hundred atoms, and the correctly rounded conversion, not the arithmetic,
    is the cost.  Values are deduplicated by bit pattern, not by value, so
    -0.0 keeps its own text ('-0') apart from 0.0 ('0').
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, len(v), _CSV_BLOCK_ROWS):
            bits, inverse = np.unique(v[start:start + _CSV_BLOCK_ROWS].view(np.int64), return_inverse=True)
            text = [f"{x:.17g}" for x in bits.view(np.float64).tolist()]
            f.write("".join([f"{i},{text[j]}\n" for i, j in enumerate(inverse.tolist(), start)]))


def _kahan_columns(K: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """Compensated row-wise dot product of integer matrix K with coeffs.

    y and comp are updated in place, so at most four arrays of len(K) live.
    """
    acc = np.zeros(len(K))
    comp = np.zeros(len(K))
    y = np.empty(len(K))
    for j, c in enumerate(coeffs):
        np.multiply(K[:, j], c, out=y)
        y -= comp
        t = acc + y
        np.subtract(t, acc, out=comp)
        comp -= y
        acc = t
    return acc


def composition_count(N: int, m: int) -> int:
    return math.comb(N + m - 1, m - 1)


def _refuse_above_byte_limit(estimate: int, what: str) -> None:
    """Raise ResourceLimitError when estimate, the peak bytes of a run, exceeds _BYTE_LIMIT."""
    if estimate > _BYTE_LIMIT:
        raise ResourceLimitError(
            f"{what} need an estimated {estimate} bytes, above the limit of {_BYTE_LIMIT} bytes"
        )


def _peak_bytes(N: int, m: int) -> int:
    """Upper bound on the bytes exact_distribution holds at once, for either
    measure and however many atoms merge.

    Fitted to tracemalloc peaks with every atom distinct (merging only shrinks
    the merge's arrays), phase by phase, in bytes per composition row:
    - composition_array's last level: the child table, parent and offset,
      8m + 16, beside the previous level and its counts, 8m + 8 a row of
      C(N+m-2, m-2);
    - the atom table: the composition table and the residue and log-mass
      table, 8m + 16, plus one chunk's temporaries, max(8m + 8, 40) a row;
    - the merge: the atom table, its sorted copies and the cluster arrays, 72.
    The lgamma table adds 8 B a stage, and fixed-size buffers (measured up
    to 0.25 MB) are covered by 1 MiB.
    """
    rows = composition_count(N, m)
    last_level = (8 * m + 16) * rows + (8 * m + 8) * composition_count(N, m - 1)
    atom_table = (8 * m + 16) * rows + max(8 * m + 8, 40) * min(rows, _CHUNK_ROWS)
    return max(last_level, atom_table, 72 * rows) + 8 * (N + 1) + (1 << 20)


def compositions(N: int, m: int) -> Iterator[Composition]:
    """Stream every weak composition of N into m parts exactly once.

    Order is part of the external contract: first components descending,
    i.e. (N,0,...,0), (N-1,1,0,...), ... ending at (0,...,0,N).  The
    successor is computed in place, so memory per step is constant.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    k = [N] + [0] * (m - 1)
    while True:
        yield Composition(tuple(k), N)
        i = m - 2
        while i >= 0 and k[i] == 0:
            i -= 1
        if i < 0:
            return
        tail = sum(k[i + 1:])
        k[i] -= 1
        k[i + 1] = tail + 1
        for j in range(i + 2, m):
            k[j] = 0


def composition_array(N: int, m: int) -> np.ndarray:
    """All weak compositions as a C-contiguous int64 array, rows in compositions() order.

    Built one column (level) at a time with vectorised steps.  Each partial
    row carries rem, what is left of N for its remaining parts, in the column
    after its last decided part.  Level 1 is k1 = N..0.  At each middle level
    every partial row with remainder r expands into r+1 children (np.repeat),
    whose next part runs r..0, so children stay grouped under their parent in
    descending order.  The last part takes whatever remains.  Each level is
    gathered into one (rows, m) array, so the last level is the result.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    K = np.empty((N + 1, m), dtype=np.int64)
    K[:, 0] = np.arange(N, -1, -1)
    K[:, 1] = np.arange(N + 1)
    for j in range(1, m - 1):
        counts = K[:, j] + 1
        parent = np.repeat(np.arange(len(K), dtype=np.int64), counts)
        # child i of a parent with remainder r takes r - i and leaves i
        offset = np.arange(len(parent), dtype=np.int64)
        offset -= (np.cumsum(counts) - counts)[parent]
        child = np.empty((len(parent), m), dtype=np.int64)
        child[:, j + 1] = offset
        del offset
        for i in range(j + 1):
            child[:, i] = K[parent, i]
        del parent
        child[:, j] -= child[:, j + 1]
        K = child
    return K


def log_multinomial(N: int, k: Composition | Sequence[int]) -> float:
    """Natural log of the multinomial coefficient N!/(k1!...km!)."""
    counts = k.k if isinstance(k, Composition) else tuple(int(x) for x in k)
    if any(c < 0 for c in counts) or sum(counts) != N:
        raise ValueError(f"{counts} is not a composition of {N}")
    total = math.lgamma(N + 1)
    for c in counts:
        total -= math.lgamma(c + 1)
    return total


def atom_for(
    model: ProportionVector, k: Composition | Sequence[int], base: int = 10
) -> tuple[float, float, float]:
    """One composition's atom: (residue, log_mass_uniform, log_mass_length).

    residue is the fractional part of sum k_j * log_base(p_j), accumulated
    with compensated summation.  Uniform mass divides the multinomial count
    by m^N; length mass multiplies it by the leaf length.  Computed by the
    enumeration engine's own atom table on a one-row block, so it returns
    exactly what exact_distribution aggregates for this composition.
    """
    counts = k.k if isinstance(k, Composition) else tuple(int(x) for x in k)
    if len(counts) != model.m:
        raise ValueError(f"composition has {len(counts)} parts, model has {model.m}")
    if any(c < 0 for c in counts):
        raise ValueError(f"{counts} has a negative part")
    K = np.array([counts], dtype=np.int64)
    lg_parts = np.array([[math.lgamma(c + 1) for c in counts]])
    out = np.empty((1 + len(MEASURES), 1))
    _atom_table(K, math.lgamma(sum(counts) + 1) - lg_parts.sum(axis=1), model, base, MEASURES, out)
    residue, log_mass_uniform, log_mass_length = out[:, 0].tolist()
    return residue, log_mass_uniform, log_mass_length


def _cluster_starts(points: np.ndarray, tol: float) -> np.ndarray:
    """Mask over ascending points: True where a point lies more than tol above
    its predecessor, i.e. starts a new cluster (clusters chain)."""
    boundary = np.empty(len(points), dtype=bool)
    boundary[0] = True
    np.greater(np.diff(points), tol, out=boundary[1:])
    return boundary


def _cluster_differences(
    a: WeightedMod1Distribution, b: WeightedMod1Distribution
) -> tuple[np.ndarray, np.ndarray]:
    """The pooled atoms of a and b, stable-sorted, and a's mass minus b's per
    cluster of them chained within ALIGN_TOL, so roundoff-level jitter between
    two routes to one atom does not split it."""
    points = np.concatenate([a.residues, b.residues])
    order = np.argsort(points, kind="stable")
    points = points[order]
    cid = np.cumsum(_cluster_starts(points, ALIGN_TOL)) - 1
    return points, np.bincount(cid, weights=np.concatenate([a.masses, -b.masses])[order])


def _merge_atoms(residues: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort atoms and merge residues closer than MERGE_TOL (chained).

    residues must be finite float64 values >= +0.0, as _frac returns them:
    there the int64 order of the bit patterns is the float order, and the
    stable integer sort is the faster one.  The merged residue is the plain
    mean of the cluster: it stays inside the cluster's span, so
    representatives of distinct clusters keep their order.

    Equal weights, passed as one value broadcast (stride 0), are ordered by
    a plain value sort instead.  Residues that compare equal have equal bits
    here (no -0.0 among them), so the sorted residues are the stable
    order's; the weights are interchangeable, so every sum over them is the
    same bit for bit, and no permutation is built or gathered by.
    """
    if weights.strides == (0,):
        r = np.sort(residues)
        w = weights
    else:
        order = np.argsort(residues.view(np.int64), kind="stable")
        r = residues[order]
        w = weights[order]
        del order
    starts = np.flatnonzero(_cluster_starts(r, MERGE_TOL))
    lens = np.diff(starts, append=len(r))
    n_clusters = len(starts)
    if n_clusters <= 4096:
        # few big clusters: per-cluster pairwise sums keep roundoff ~eps*log(n).
        # Clusters of one length L are summed in one reduction over a (k, L)
        # gather; each gathered row is C-contiguous, so numpy blocks its sum
        # exactly as it would the 1-d slice, and the result is bit-identical.
        mass = np.empty(n_clusters)
        rep_sums = np.empty(n_clusters)
        by_len = np.argsort(lens, kind="stable")
        for sel in np.split(by_len, np.flatnonzero(np.diff(lens[by_len])) + 1):
            rows = starts[sel][:, None] + np.arange(lens[sel[0]])
            mass[sel] = np.add.reduce(w[rows], axis=1)
            rep_sums[sel] = np.add.reduce(r[rows], axis=1)
        rep = rep_sums / lens
    else:
        # cluster ids from the starts: a cumsum over the mask would first
        # cast all of it to int64
        cid = np.repeat(np.arange(n_clusters), lens)
        mass = np.bincount(cid, weights=w, minlength=n_clusters)
        rep = np.bincount(cid, weights=r, minlength=n_clusters) / lens
    return rep, mass


def build_distribution(
    residues: np.ndarray,
    masses: np.ndarray,
    measure: str,
    N: int,
    m: int,
) -> WeightedMod1Distribution:
    """Merge raw atoms into a validated WeightedMod1Distribution."""
    rep, mass = _merge_atoms(residues, masses)
    return WeightedMod1Distribution(rep, mass, measure, N, m)


def distribution_from_residues(
    residues: np.ndarray, measure: str, N: int, m: int
) -> WeightedMod1Distribution:
    """Equal-weight empirical distribution from raw residue samples."""
    n = len(residues)
    if n == 0:
        raise ValueError("need at least one residue")
    r = _frac(np.array(residues, dtype=float))
    # equal weights as a read-only view of one value, which the merge orders
    # by a value sort
    return build_distribution(r, np.broadcast_to(1.0 / n, n), measure, N, m)


def _atom_table(
    K: np.ndarray,
    logmult: np.ndarray,
    model: ProportionVector,
    base: int,
    measures: Sequence[str],
    out: np.ndarray,
) -> None:
    """Residues, and log-masses for each of measures, of a block of composition rows.

    They are written into the rows of out, shape (1 + len(measures), len(K)):
    residues first, then one row of log-masses per measure.  logmult holds
    each row's log multinomial coefficient, lgamma(N + 1) - sum lgamma(k + 1).
    The arithmetic is elementwise per row, so a row's atom does not depend on
    the block it sits in; atom_for is this function on a one-row block.
    """
    N = int(K[0].sum())
    m = K.shape[1]
    out[0] = _frac(_kahan_columns(K, [log_base(p, base) for p in model.p]))
    for measure, logmass in zip(measures, out[1:]):
        if measure == MEASURE_UNIFORM:
            np.subtract(logmult, N * math.log(m), out=logmass)
        else:
            np.add(logmult, _kahan_columns(K, [math.log(p) for p in model.p]), out=logmass)


def exact_distribution(
    model: ProportionVector,
    N: int,
    base: int = 10,
    measure: str = MEASURE_UNIFORM,
    threads: int = 1,
) -> WeightedMod1Distribution:
    """Exact weighted mod-1 distribution of log stick lengths after N stages.

    Aggregates every composition's atom.  Masses are accumulated in log space
    and exponentiated relative to the largest atom, then merged within the
    residue tolerance.

    Before any array is built, ResourceLimitError refuses a run whose peak
    estimate _peak_bytes(N, m) exceeds _BYTE_LIMIT (4 GiB).  The estimate is
    at least the traced peak of either measure, whether or not atoms merge;
    with every atom distinct that peak is 72 B per composition at m=3-6,
    97 B at m=8 (N=22) and 129 B at m=10 (N=15).

    threads is validated (>= 1) and otherwise ignored: enumeration is
    single-threaded, because splitting the atom table over threads did not
    pay on the benchmark.  The atom table is still built in fixed-size
    chunks, which bounds its temporaries; its arithmetic is elementwise per
    row, so the chunking does not change a byte of the result.  Each chunk
    lands in one preallocated residue and log-mass table, the composition
    table is dropped before the merge, and the peak shift and exp run in
    place, so the composition table, the atom table and the merge's sorted
    copies are never all live at once.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    _refuse_above_byte_limit(
        _peak_bytes(N, model.m),
        f"C({N + model.m - 1},{model.m - 1}) = {composition_count(N, model.m)} compositions",
    )
    K = composition_array(N, model.m)
    lgt = np.array([math.lgamma(i + 1) for i in range(N + 1)])
    table = np.empty((2, len(K)))
    for i in range(0, len(K), _CHUNK_ROWS):
        c = K[i:i + _CHUNK_ROWS]
        _atom_table(c, lgt[N] - lgt[c].sum(axis=1), model, base, (measure,), table[:, i:i + len(c)])
    del K, c  # c is a view that would keep the composition table alive
    residues, logmass = table
    peak = float(logmass.max())
    logmass -= peak
    np.exp(logmass, out=logmass)
    rep, mass = _merge_atoms(residues, logmass)
    if peak != 0.0:  # undo the peak shift; total returns to 1 up to roundoff
        mass = mass * math.exp(peak)
    total = float(mass.sum())
    if abs(total - 1.0) > 1e-10:
        # the float lgamma(N + 1) and N log m round at about ulp(N ln N), the
        # same for every atom, so the total drifts with N (7e-11 at m=2,
        # N=8e4) while the exact masses sum to exactly 1
        mass /= total
    return WeightedMod1Distribution(rep, mass, measure, N, model.m)


def rotate_distribution(dist: WeightedMod1Distribution, shift: float) -> WeightedMod1Distribution:
    """Rotate every residue by shift mod 1 (a global rescaling of lengths)."""
    rotated = _frac(dist.residues + shift)
    return build_distribution(rotated, dist.masses, dist.measure, dist.N, dist.m)


def write_distribution_csv(dist: WeightedMod1Distribution, path: str | Path) -> None:
    """Dump atoms as 'residue,mass' rows sorted by residue, 17 significant digits."""
    # Python floats format to the same bytes as numpy scalars, but faster;
    # rows stream to the file, so no list of lines is held
    with open(path, "w") as f:
        f.write("residue,mass\n")
        f.writelines(f"{r:.17g},{w:.17g}\n" for r, w in zip(dist.residues.tolist(), dist.masses.tolist()))
