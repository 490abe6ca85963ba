"""Significands and Benford/equidistribution metrics.

A positive x decomposes uniquely as x = S * base**e with S in [1, base); the
stick lengths follow strong Benford's law in the limit exactly when the
fractional parts of their log-lengths are equidistributed mod 1.  The metrics
here quantify how far an atomic mod-1 distribution is from uniform:

  ks_to_uniform    sup over s of |CDF(s) - s| (anchored intervals)
  star_discrepancy sup over all subintervals of |mass - length|

Both are evaluated exactly from the atoms via the discrepancy function
g(s) = CDF(s) - s: the KS distance is max |g| and the all-interval
discrepancy is max g - min g over both one-sided limits, which also makes it
invariant under rotation of the residues (i.e. rescaling of lengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .enumeration import WeightedMod1Distribution, _cluster_differences, _count_text, _refuse_above_byte_limit, _write_csv
from .model import _check_base, log_base

SIGNIFICAND_SNAP = 1e-12
DEFAULT_KS_THRESHOLD = 0.02

# Upper bound on the bytes a report holds per digit of its base, checked
# against tracemalloc peaks over benford_report, digits.csv, the report's
# JSON and its print: 152 B a digit at bases 5*10^4 to 10^6 with every
# frequency printed at 21 characters, 2 B more a character (116 B when they
# print as "0.0"); the widest frequency, 23 characters, would add 4 B.  The
# CSV writer's block of 8,192 rows peaks up to 2.2 MB above the estimate at
# small bases, far below any limit the guard is meant for.
_DIGIT_BYTES = 160

CONSISTENT = "ConsistentWithBenford"
INCONSISTENT = "Inconsistent"


@dataclass(frozen=True)
class BenfordReport:
    ks_to_uniform_mod1: float
    star_discrepancy: float
    leading_digit_freqs: tuple[float, ...]
    leading_digit_chi2: float
    distinct_residues: int
    verdict_empirical: str
    ks_threshold: float
    base: int

    def to_json_dict(self) -> dict:
        return {
            "ks": self.ks_to_uniform_mod1,
            "star_discrepancy": self.star_discrepancy,
            "leading_digits": list(self.leading_digit_freqs),
            "chi2": self.leading_digit_chi2,
            "distinct_residues": self.distinct_residues,
            "verdict": self.verdict_empirical,
            "ks_threshold": self.ks_threshold,
        }


def significand(x: float, base: int = 10) -> float:
    """The S in x = S * base**e with S in [1, base).

    The log only picks e = floor(log_base x), corrected by one where it
    rounded across a power of base; S = x / base**e is then divided exactly
    (Fractions) and rounded once, so S = d for x = d * base**k.  An S within
    1e-12 of base snaps to 1, keeping the half-open invariant.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0:
        raise ValueError(f"significand needs a positive finite value, got {x!r}")
    base = _check_base(base)  # a numpy base would overflow the Fraction arithmetic
    e = math.floor(log_base(x, base))
    q = Fraction(x) / Fraction(base) ** e
    if q >= base:
        q /= base
    elif q < 1:
        q *= base
    s = float(q)
    return 1.0 if base - s <= SIGNIFICAND_SNAP else s


def _cumsum_compensated(w: np.ndarray) -> np.ndarray:
    """Running sum with a vectorized error-correction pass.

    np.cumsum is sequential, so each rounding error is recoverable by Fast2Sum
    given the running total and the addend; adding the accumulated errors back
    keeps the drift at ~1 ulp even over millions of atoms.
    """
    s = np.cumsum(w)
    prev = np.empty_like(s)
    prev[0] = 0.0
    prev[1:] = s[:-1]
    big = np.abs(prev) >= np.abs(w)
    err = np.where(big, (prev - s) + w, (w - s) + prev)
    return s + np.cumsum(err)


def _cdf(dist: WeightedMod1Distribution) -> np.ndarray:
    """Mass below each atom, then the total: cdf[i] is the mass of atoms 0..i-1."""
    return np.concatenate(([0.0], _cumsum_compensated(dist.masses)))


def _ks_and_discrepancy(dist: WeightedMod1Distribution, cdf: np.ndarray) -> tuple[float, float]:
    """(max |g|, max g - min g) for g(s) = CDF(s) - s at both sides of each atom and 1; cdf is _cdf(dist)."""
    g_right, g_left, g_one = cdf[1:] - dist.residues, cdf[:-1] - dist.residues, float(cdf[-1] - 1.0)
    ks = max(np.abs(g_right).max(), np.abs(g_left).max(), abs(g_one))
    hi = max(g_right.max(), g_left.max(), g_one, 0.0)
    lo = min(g_right.min(), g_left.min(), g_one, 0.0)
    return float(ks), float(hi - lo)


def cdf_mod1(dist: WeightedMod1Distribution, s: float) -> float:
    """Total mass of atoms with residue <= s (right-continuous step function)."""
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must lie in [0, 1], got {s!r}")
    return float(_cdf(dist)[np.searchsorted(dist.residues, s, side="right")])


def ks_to_uniform(dist: WeightedMod1Distribution) -> float:
    """sup over s in [0,1] of |CDF(s) - s|, exact at atom locations."""
    return _ks_and_discrepancy(dist, _cdf(dist))[0]


def star_discrepancy(dist: WeightedMod1Distribution) -> float:
    """sup over subintervals [a,b] of [0,1] of |mass([a,b]) - (b-a)|."""
    return _ks_and_discrepancy(dist, _cdf(dist))[1]


def _check_digit_base(base: int) -> int:
    """base as a Python int; ValueError unless an integer >= 2, ResourceLimitError when its
    digit tables, _DIGIT_BYTES a digit (in Python ints, so a huge base never
    reaches numpy), would exceed the byte limit.  analyze and simulate call
    it on their config's base before the engine or the sampler runs."""
    base = _check_base(base)
    _refuse_above_byte_limit(_DIGIT_BYTES * base, f"the digit tables of base {_count_text(base)}")
    return base


def _digits(base: int) -> np.ndarray:
    """The integers 1..base, from which every table of digits is built, once _check_digit_base passes."""
    return np.arange(1, _check_digit_base(base) + 1)


def benford_expected(base: int = 10) -> np.ndarray:
    """Benford frequencies log_base((d+1)/d) for digits 1..base-1."""
    d = _digits(base)[:-1]
    return np.log(1.0 + 1.0 / d) / math.log(base)


def _digit_masses(dist: WeightedMod1Distribution, cdf: np.ndarray, base: int) -> np.ndarray:
    edges = np.log(_digits(base)) / math.log(base)
    edges[0] = 0.0
    edges[-1] = 1.0
    idx = np.searchsorted(dist.residues, edges, side="left")
    return cdf[idx[1:]] - cdf[idx[:-1]]


def leading_digit_histogram(dist: WeightedMod1Distribution, base: int = 10) -> np.ndarray:
    """Mass per leading digit: residue r belongs to digit d iff
    log_base(d) <= r < log_base(d+1)."""
    return _digit_masses(dist, _cdf(dist), base)


def chi2_vs_benford(freqs, base: int = 10) -> float:
    """Chi-square divergence of digit frequencies from Benford frequencies."""
    freqs = np.asarray(freqs, dtype=float)
    expected = benford_expected(base)
    if freqs.shape != expected.shape:
        raise ValueError(f"need {len(expected)} digit frequencies, got {len(freqs)}")
    return float(((freqs - expected) ** 2 / expected).sum())


def empirical_verdict(ks: float, ks_threshold: float = DEFAULT_KS_THRESHOLD) -> str:
    """Binarize the KS metric; the boundary counts as consistent."""
    return CONSISTENT if ks <= ks_threshold else INCONSISTENT


def benford_report(
    dist: WeightedMod1Distribution,
    base: int = 10,
    ks_threshold: float = DEFAULT_KS_THRESHOLD,
) -> BenfordReport:
    """Bundle every metric for one distribution, from one compensated CDF."""
    cdf = _cdf(dist)
    ks, disc = _ks_and_discrepancy(dist, cdf)
    freqs = _digit_masses(dist, cdf, base)
    return BenfordReport(
        ks_to_uniform_mod1=ks,
        star_discrepancy=disc,
        leading_digit_freqs=tuple(float(f) for f in freqs),
        leading_digit_chi2=chi2_vs_benford(freqs, base),
        distinct_residues=dist.atoms,
        verdict_empirical=empirical_verdict(ks, ks_threshold),
        ks_threshold=ks_threshold,
        base=base,
    )


def ks_distance(a: WeightedMod1Distribution, b: WeightedMod1Distribution) -> float:
    """sup norm between two atomic mod-1 CDFs, exact over the union of atoms.

    The atoms of both are pooled into clusters within ALIGN_TOL
    (_cluster_differences), so roundoff-level jitter between two routes to the
    same atom does not register as a CDF gap.  The gap just after a cluster is
    the running sum of the per-cluster mass differences up to it, and just
    before it the sum up to the previous one, so the sup is the largest
    |running sum|, taken with compensated summation.
    """
    _, diff = _cluster_differences(a, b)
    return float(np.abs(_cumsum_compensated(diff)).max())


def write_digits_csv(freqs, base: int, path: str | Path) -> None:
    """Dump 'digit,frequency,benford_expected' rows for digits 1..base-1."""
    _write_csv(path, "digit,frequency,benford_expected", range(1, base), freqs, benford_expected(base))
