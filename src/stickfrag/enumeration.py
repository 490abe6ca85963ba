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

import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ResourceLimitError
from .model import ProportionVector, _check_base, _check_count, log_base

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


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")


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
        _check_measure(self.measure)
        r.flags.writeable = False
        w.flags.writeable = False

    @property
    def atoms(self) -> int:
        return len(self.residues)

    def total_mass(self) -> float:
        return float(self.masses.sum())


def _frac(x):
    """Fractional part of a float array, mapped into [0, 1); values within
    MERGE_TOL of 1 snap to 0, and -0.0 gives +0.0.

    x is overwritten with the result, which is returned: callers pass a buffer
    they own, and its floors and snap mask are taken _CHUNK_ROWS rows at a time.
    """
    for b in (x[i:i + _CHUNK_ROWS] for i in range(0, len(x), _CHUNK_ROWS)):
        np.subtract(b, np.floor(b), out=b)
        b[(1.0 - b) <= MERGE_TOL] = 0.0
    return x


@contextmanager
def _rewrite(path: str | Path):
    """Open path as open(path, "wb") does, but without truncating it; when the
    block ends, by return or by raise, cut a regular file to the bytes written.

    Truncating an existing file to zero and writing it again makes ext4
    (auto_da_alloc) flush it on close, which costs more than the write
    itself; overwriting it in place and cutting the stale tail does not.  The
    flags, mode and symlink-following are open(path, "wb")'s otherwise.  Only
    a regular file is cut: ftruncate fails on /dev/null, a FIFO or a terminal.
    """
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as out:
        try:
            yield out
        finally:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()


def _write_csv(path: str | Path, header: str, *columns) -> None:
    """Write header, then one row per index of the equal-length columns.

    Floats (numpy's float64 is one) print to 17 significant digits, which
    round-trip every double; ints (a range, or a list of any size) print as
    str(int).  Each block of _CSV_BLOCK_ROWS rows formats every distinct
    float once, in one %-format, so samples on a few hundred atoms cost a few
    hundred conversions.  Floats are told apart by bit pattern, not value, so
    -0.0 keeps its own text ('-0') apart from 0.0 ('0').
    """
    width = len(columns)
    row = ",".join(["%s"] * width) + "\n"
    with _rewrite(path) as out:
        out.write(f"{header}\n".encode())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [c[start:start + _CSV_BLOCK_ROWS] for c in columns]
            floats = np.array([b for b in block if isinstance(b[0], float)], dtype=np.float64)
            bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
            # the empty text after the last "\0" is never picked by inverse
            text = ("%.17g\0" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\0")
            texts = iter(np.array(text, dtype=object)[inverse.reshape(floats.shape)].tolist())
            fields = [None] * (len(block[0]) * width)
            for j, b in enumerate(block):
                fields[j::width] = next(texts) if isinstance(b[0], float) else b
            out.write((row * len(block[0]) % tuple(fields)).encode())


def _write_json(obj, path: str | Path) -> str:
    """Write json.dumps(obj, indent=2) and a newline through _rewrite, as _write_csv does; return that text."""
    text = f"{json.dumps(obj, indent=2)}\n"
    with _rewrite(path) as out:
        out.write(text.encode())
    return text


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


def _residues(K: np.ndarray, p: Sequence[float], base: int) -> np.ndarray:
    """Residues of the rows k of K, frac(sum k_j log_base(p_j)) compensated: the
    engine and the sampler share it, so their atoms agree bit for bit."""
    return _frac(_kahan_columns(K, [log_base(x, base) for x in p]))


def _lgamma_sums(lgt: np.ndarray, K: np.ndarray) -> np.ndarray:
    """lgt[K].sum(axis=1) bit for bit: each composition row's sum of lgamma(k + 1).

    Below 8 columns the column gathers lgt[K[:, j]] are added in order into
    the first, so no (rows, m) table is built.  numpy reduces such a row in
    order, starting from +0.0, so the adds give the same bits unless a row
    starts with -0.0, and an lgamma table holds none (lgamma(1) = +0.0).
    From 8 columns numpy keeps 8 accumulators.  A port of that order
    matched it bit for bit but was slower per 131,072-row chunk (m=10: 8.8
    against 7.7 ms; m=200: 3x), so there numpy's reduction stays.
    """
    if K.shape[1] >= 8:
        return lgt[K].sum(axis=1)
    s = lgt[K[:, 0]]
    for j in range(1, K.shape[1]):
        s += lgt[K[:, j]]
    return s


def _log_masses(
    K: np.ndarray, logmult: np.ndarray, model: ProportionVector, measure: str, out: np.ndarray
) -> np.ndarray:
    """Log-masses under measure of the composition rows of K, written into out and returned.

    logmult holds each row's log multinomial coefficient, lgamma(N + 1) -
    sum lgamma(k + 1).  The arithmetic is elementwise per row, so a row's
    mass does not depend on the block it sits in.
    """
    if measure == MEASURE_UNIFORM:
        return np.subtract(logmult, int(K[0].sum()) * math.log(K.shape[1]), out=out)
    return np.add(logmult, _kahan_columns(K, [math.log(p) for p in model.p]), out=out)


def composition_count(N: int, m: int) -> int:
    N, m = _check_count("N", N, 0), _check_count("m", m, 1)
    return math.comb(N + m - 1, m - 1)


def _count_text(base: int, exponent: int = 1, spec: str = "d") -> str:
    """base**exponent formatted by spec up to about 10^18; above, its order
    of magnitude from math.log10, e.g. "about 10^4300.0"; and once that order
    passes 10^18, the order of the order, e.g. "about 10^(10^400.0)".

    A guard message states its count without raising base to a huge power
    or printing it in full: str() refuses an int of more than 4300 digits,
    and a float format overflows above 1.8e308.  math.log10 takes an int of
    any size, so no huge int is converted to a float: the digit count
    exponent * log10(base) is formed only once its own log10 is at most 18.
    """
    if base > 1 and exponent > 0:
        log_digits = math.log10(exponent) + math.log10(math.log10(base))
        if log_digits > 18:
            return f"about 10^(10^{log_digits:.1f})"
    digits = exponent * math.log10(base)
    return format(base**exponent, spec) if digits <= 18 else f"about 10^{digits:.1f}"


def _refuse_above_byte_limit(estimate: int, what: str) -> None:
    """Raise ResourceLimitError when estimate, the peak bytes of a run, exceeds _BYTE_LIMIT."""
    if estimate > _BYTE_LIMIT:
        raise ResourceLimitError(
            f"{what} need an estimated {_count_text(estimate)} bytes, above the limit of {_BYTE_LIMIT} bytes"
        )


def _peak_bytes(N: int, m: int) -> int:
    """Upper bound on the bytes exact_distribution holds at once, for either
    measure and however many atoms merge.

    Fitted to tracemalloc peaks with every atom distinct (merging only shrinks
    the merge's arrays), phase by phase, in bytes per composition row:
    - composition_array's last level: the new table, 8m, beside the previous
      level, its counts and starts, 8m + 16 a row of C(N+m-2, m-2).  Filling
      its remainder column next (8m + 8, plus 16 a previous row) is below
      this term for N <= (m-1)^2 and the atom table's for N >= m-1;
    - the atom table: the composition table and the residue and log-mass
      table, 8m + 16, plus one chunk's temporaries, max(8m + 8, 40) a row.
      Traced per chunk at m = 2..10, these are 40 below 8 columns (the
      length measure's compensated sum beside the log multinomials) and
      8m + 8 from 8 (the lgamma gather and its sums), so at m = 5..7 the
      term is above them;
    - the merge: the atom table, whose residues it sorts in place, and the
      cluster arrays and sums, 56 (traced at m=3, N=1200).  The term is 72,
      and it also bounds rotate_distribution on the result: the unrotated
      distribution (16), the rotated residues (8) and the merge's own
      arrays (40), traced at 64.1 B, so analyze --length stays inside it.
    The lgamma table adds 8 B a stage, and fixed-size buffers (measured up
    to 0.25 MB) are covered by 1 MiB.
    """
    rows = composition_count(N, m)
    last_level = 8 * m * rows + (8 * m + 16) * composition_count(N, m - 1)
    atom_table = (8 * m + 16) * rows + max(8 * m + 8, 40) * min(rows, _CHUNK_ROWS)
    return max(last_level, atom_table, 72 * rows) + 8 * (N + 1) + (1 << 20)


def compositions(N: int, m: int) -> Iterator[Composition]:
    """Stream every weak composition of N into m parts exactly once.

    Order is part of the external contract: first components descending,
    i.e. (N,0,...,0), (N-1,1,0,...), ... ending at (0,...,0,N).  The
    successor is computed in place, so memory per step is constant.
    """
    m = _check_count("m", m, 2)
    N = _check_count("N", N, 0)
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
    a row with remainder r is copied whole r+1 times (np.repeat); copy i takes
    r - i as its part and i as its remainder, so copies stay grouped under
    their row in descending order.  The last part is the last remainder.
    _peak_bytes gives what a level holds.
    """
    m = _check_count("m", m, 2)
    N = _check_count("N", N, 0)
    K = np.empty((N + 1, m), dtype=np.int64)
    K[:, 0] = np.arange(N, -1, -1)
    K[:, 1] = np.arange(N + 1)
    for j in range(1, m - 1):
        counts = K[:, j] + 1
        starts = np.cumsum(counts) - counts
        K = np.repeat(K, counts, axis=0)
        # copy i of its row: its index minus the index of the row's first copy
        K[:, j + 1] = np.arange(len(K))
        K[:, j + 1] -= np.repeat(starts, counts)
        K[:, j] -= K[:, j + 1]
    return K


def log_multinomial(N: int, k: Composition | Sequence[int]) -> float:
    """Natural log of the multinomial coefficient N!/(k1!...km!)."""
    N = _check_count("N", N, 0)
    counts = tuple(_check_count("part", x, 0) for x in (k.k if isinstance(k, Composition) else k))
    if sum(counts) != N:
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
    engine's _residues and _log_masses on a one-row block, from numpy's row
    sum of the parts' lgamma values, which _lgamma_sums reproduces, so it
    returns exactly what exact_distribution aggregates for this composition.
    """
    counts = tuple(_check_count("part", x, 0) for x in (k.k if isinstance(k, Composition) else k))
    if len(counts) != model.m:
        raise ValueError(f"composition has {len(counts)} parts, model has {model.m}")
    K = np.array([counts], dtype=np.int64)
    logmult = math.lgamma(sum(counts) + 1) - np.array([[math.lgamma(c + 1) for c in counts]]).sum(axis=1)
    atom = [_residues(K, model.p, base), *(_log_masses(K, logmult, model, x, np.empty(1)) for x in MEASURES)]
    return tuple(np.concatenate(atom).tolist())


def _cluster_starts(points: np.ndarray, tol: float) -> np.ndarray:
    """Mask over ascending points: True where a point lies more than tol above
    its predecessor, i.e. starts a new cluster (clusters chain).

    The gaps are np.diff's subtractions, taken _CHUNK_ROWS at a time into one
    reused buffer, so no gap array of len(points) is built.
    """
    n = len(points)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    gaps = np.empty(min(n, _CHUNK_ROWS))
    for i in range(1, n, _CHUNK_ROWS):
        g = gaps[:min(_CHUNK_ROWS, n - i)]
        np.subtract(points[i:i + len(g)], points[i - 1:i - 1 + len(g)], out=g)
        np.greater(g, tol, out=boundary[i:i + len(g)])
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

    residues must be finite float64 values >= +0.0, as _frac returns them,
    in an array the caller owns: it is sorted in place, so no sorted copy
    is made.  There the int64 order of the bit patterns is the float order,
    and values that compare equal have equal bits (no -0.0 among them), so
    the sorted values are what the stable permutation of the bit patterns,
    taken first, would gather; the weights are read through it.  The
    merged residue is the plain mean of the cluster: it stays inside the
    cluster's span, so representatives of distinct clusters keep their
    order.

    Equal weights, passed as one value broadcast (stride 0), are
    interchangeable: any index of them reads the one value, so every sum
    over them is the same bit for bit, no permutation is built and they are
    read in place, through the same slices and gathers as the residues.

    Up to 4096 clusters, each one's residues and weights get their own
    pairwise sum, which keeps roundoff ~eps*log(n).  Below 128 atoms numpy
    sums a row with 8 accumulators over its first 8 floor(W/8) entries and
    adds the rest in order, so a cluster of L atoms is padded with +0.0 to
    the width L | 7: the padding only adds +0.0s at the end, which change no
    sum of non-negative terms, and the clusters of one width (8 lengths)
    are summed as one (k, W) gather reduced by rows.  From 128 atoms numpy
    splits the sum recursively, and each cluster's slice is reduced where
    it lies.  numpy blocks the pairwise sum of a row the same way whether it
    is a 1-d slice, a stride-0 view or a row of a 2-d reduction, so each way
    gives the bits of the cluster's own slice sum.
    """
    equal = weights.strides == (0,)
    if not equal:
        order = np.argsort(residues.view(np.int64), kind="stable")
    residues.sort()
    starts = np.flatnonzero(_cluster_starts(residues, MERGE_TOL))
    lens = np.diff(starts, append=len(residues))
    n_clusters = len(starts)
    if n_clusters > 4096:
        # cluster ids from the starts: a cumsum over the mask would first
        # cast all of it to int64
        del starts  # dead here, and the bincounts below set the merge's peak
        if not equal:
            weights = weights[order]
            del order
        cid = np.repeat(np.arange(n_clusters), lens)
        mass = np.bincount(cid, weights=weights, minlength=n_clusters)
        rep = np.bincount(cid, weights=residues, minlength=n_clusters) / lens
        return rep, mass
    weights_at = weights.__getitem__ if equal else lambda index: weights[order[index]]
    rep_sums, mass = np.empty(n_clusters), np.empty(n_clusters)
    width = np.where(lens < 128, lens | 7, lens)
    by_width = np.argsort(width, kind="stable")
    for sel in np.split(by_width, np.flatnonzero(np.diff(width[by_width])) + 1):
        W = int(width[sel[0]])
        if W >= 128:
            slices = [slice(s, s + W) for s in starts[sel].tolist()]

            def cluster_sums(take):
                return [np.add.reduce(take(s)) for s in slices]
        else:
            rows = starts[sel][:, None] + np.arange(W)
            pad = rows >= (starts[sel] + lens[sel])[:, None]
            rows[pad] = 0  # any index in range: its value is replaced by +0.0

            def cluster_sums(take):
                x = take(rows)
                x[pad] = 0.0
                return np.add.reduce(x, axis=1)
        rep_sums[sel] = cluster_sums(residues.__getitem__)
        mass[sel] = cluster_sums(weights_at)
    return rep_sums / lens, mass


def build_distribution(
    residues: np.ndarray,
    masses: np.ndarray,
    measure: str,
    N: int,
    m: int,
) -> WeightedMod1Distribution:
    """Merge raw atoms into a validated WeightedMod1Distribution.

    residues is overwritten with its sorted values (see _merge_atoms), so
    the caller passes an array it owns, as _frac returns it.
    """
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
    with every atom distinct that peak is 56-57.5 B per composition at m=3
    (N=774 and 1200), 65 B at m=4 (N=120), 86 B at m=8 (N=22) and 116 B
    at m=10 (N=15).

    threads is validated (a count >= 1) and otherwise ignored: enumeration is
    single-threaded, because splitting the atom table over threads did not
    pay on the benchmark.  The atom table is still built in fixed-size
    chunks, which bounds its temporaries; its arithmetic is elementwise per
    row, so the chunking does not change a byte of the result.  Each chunk
    lands in one preallocated residue and log-mass table, the composition
    table is dropped before the merge, the peak shift and exp run in
    place, and the merge sorts the residues in place, so the composition
    table, the atom table and the merge's cluster arrays are never all live
    at once.
    """
    _check_measure(measure)
    N = _check_count("N", N, 0)
    base = _check_base(base)
    _check_count("threads", threads, 1)
    _refuse_above_byte_limit(
        _peak_bytes(N, model.m),
        f"C({N + model.m - 1},{model.m - 1}) = {_count_text(composition_count(N, model.m))} compositions",
    )
    K = composition_array(N, model.m)
    lgt = np.array([math.lgamma(i + 1) for i in range(N + 1)])
    table = np.empty((2, len(K)))
    for i in range(0, len(K), _CHUNK_ROWS):
        c = K[i:i + _CHUNK_ROWS]
        table[0, i:i + len(c)] = _residues(c, model.p, base)
        _log_masses(c, lgt[N] - _lgamma_sums(lgt, c), model, measure, table[1, i:i + len(c)])
    del K, c  # c is a view that would keep the composition table alive
    residues, logmass = table
    peak = float(logmass.max())
    logmass -= peak
    np.exp(logmass, out=logmass)
    rep, mass = _merge_atoms(residues, logmass)
    mass *= math.exp(peak)  # undo the peak shift; total returns to 1 up to roundoff
    total = float(mass.sum())
    if abs(total - 1.0) > 1e-10:
        # the float lgamma(N + 1) and N log m round at about ulp(N ln N), the
        # same for every atom, so the total drifts with N (7e-11 at m=2,
        # N=8e4) while the exact masses sum to exactly 1
        mass /= total
    return WeightedMod1Distribution(rep, mass, measure, N, model.m)


def rotate_distribution(dist: WeightedMod1Distribution, shift: float) -> WeightedMod1Distribution:
    """Rotate every residue by shift mod 1 (a global rescaling of lengths)."""
    # fmod is exact; adding the raw shift would round each residue to the shift's ulp
    rotated = _frac(dist.residues + math.fmod(shift, 1.0))
    return build_distribution(rotated, dist.masses, dist.measure, dist.N, dist.m)


def write_distribution_csv(dist: WeightedMod1Distribution, path: str | Path) -> None:
    """Dump atoms as 'residue,mass' rows sorted by residue, 17 significant digits."""
    _write_csv(path, "residue,mass", dist.residues, dist.masses)
