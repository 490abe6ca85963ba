import math
import os
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from stickfrag import (
    MEASURE_LENGTH,
    MEASURE_UNIFORM,
    ExponentSpec,
    FixedProportions,
    SamplerConfig,
    benford_expected,
    benford_report,
    cdf_mod1,
    chi2_vs_benford,
    empirical_verdict,
    exact_distribution,
    ks_distance,
    ks_to_uniform,
    leading_digit_histogram,
    make_model,
    proportions_from_exponents,
    rotate_distribution,
    sample_leaf_residues,
    significand,
    star_discrepancy,
)
from stickfrag.benford import _DIGIT_BYTES, _cumsum_compensated, write_digits_csv
from stickfrag.enumeration import _cluster_starts, _write_json, build_distribution
from stickfrag.errors import ResourceLimitError

FIG7 = proportions_from_exponents(ExponentSpec((Fraction(-1, 2), -math.sqrt(2))))
FIG9 = proportions_from_exponents(ExponentSpec((-math.sqrt(2), Fraction(-1, 3), Fraction(-1, 4))))


def dist_of(atoms):
    residues = np.array([r for r, _ in atoms], dtype=float)
    masses = np.array([w for _, w in atoms], dtype=float)
    return build_distribution(residues, masses, MEASURE_UNIFORM, 1, 2)


class TestSignificand:
    def test_identity(self):
        assert significand(1, 10) == 1.0

    def test_decimal_shift(self):
        assert significand(0.00123, 10) == pytest.approx(1.23, abs=1e-12)

    def test_boundary_snaps_to_one(self):
        assert significand(9.999999999999999, 10) == 1.0
        assert significand(10.0 * (1.0 - 1e-14), 10) == 1.0

    def test_clear_of_boundary_stays(self):
        assert significand(9.99, 10) == pytest.approx(9.99, abs=1e-10)

    def test_base_2(self):
        assert significand(12.0, 2) == pytest.approx(1.5, abs=1e-12)

    def test_half_has_digit_five(self):
        assert significand(0.5) == 5.0
        assert significand(5.0) == 5.0

    def test_exact_on_representable_digit_powers(self):
        # every d * base**k that is a double: the significand is d exactly
        cases = [
            (d * Fraction(base) ** k, d, base)
            for base in (2, 3, 7, 10, 16)
            for k in range(-40, 41)
            for d in range(1, base)
        ]
        cases = [(float(x), d, base) for x, d, base in cases if Fraction(float(x)) == x]
        assert len(cases) == 1683
        wrong = [(x, base) for x, d, base in cases if significand(x, base) != d]
        assert wrong == []

    def test_rejects_bad_input(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                significand(bad, 10)
        with pytest.raises(ValueError):
            significand(3.0, 1)


class TestCdf:
    def test_total_mass_at_one(self):
        d = dist_of([(0.2, 0.5), (0.7, 0.5)])
        assert cdf_mod1(d, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_atom_above_s(self):
        d = dist_of([(0.69897, 1.0)])
        assert cdf_mod1(d, 0.5) == 0.0

    def test_atom_below_s(self):
        d = dist_of([(0.69897, 1.0)])
        assert cdf_mod1(d, 0.7) == 1.0

    def test_right_continuity_at_atom(self):
        d = dist_of([(0.5, 1.0)])
        assert cdf_mod1(d, 0.5) == 1.0

    def test_monotone(self):
        d = dist_of([(0.1, 0.3), (0.4, 0.4), (0.9, 0.3)])
        grid = np.linspace(0, 1, 101)
        vals = [cdf_mod1(d, s) for s in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("model,N", [(FIG7, 200), (FIG9, 40)], ids=["fig7", "fig9"])
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_reads_the_compensated_table_at_atoms(self, model, N, measure):
        d = exact_distribution(model, N, measure=measure)
        cum = _cumsum_compensated(d.masses)
        at_atoms = np.array([cdf_mod1(d, r) for r in d.residues.tolist()])
        assert at_atoms.view(np.int64).tolist() == cum.view(np.int64).tolist()

    def test_rejects_out_of_range(self):
        d = dist_of([(0.5, 1.0)])
        with pytest.raises(ValueError):
            cdf_mod1(d, -0.1)
        with pytest.raises(ValueError):
            cdf_mod1(d, 1.1)


class TestKs:
    def test_single_atom_rule(self):
        # oracle: for one atom at r the sup of |step - s| is max(r, 1-r)
        for r in (0.69897, 0.2, 0.5):
            d = dist_of([(r, 1.0)])
            assert ks_to_uniform(d) == pytest.approx(max(r, 1.0 - r), abs=1e-15)

    def test_two_half_atoms(self):
        assert ks_to_uniform(dist_of([(0.0, 0.5), (0.5, 0.5)])) == pytest.approx(0.5)

    def test_uniform_grid(self):
        n = 10**6
        d = build_distribution(
            np.arange(n) / n, np.full(n, 1.0 / n), MEASURE_UNIFORM, 1, 2
        )
        assert ks_to_uniform(d) <= 1e-6 + 1e-12

    def test_atomic_lower_bound(self):
        # ks >= (largest atom mass)/2 for any atomic distribution
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            w = rng.dirichlet(np.ones(n))
            d = build_distribution(np.sort(rng.random(n)), w, MEASURE_UNIFORM, 1, 2)
            assert ks_to_uniform(d) >= w.max() / 2 - 1e-12


class TestStarDiscrepancy:
    def test_single_atom_is_one(self):
        # the singleton interval at the atom already misses length by 1
        assert star_discrepancy(dist_of([(0.69897, 1.0)])) == pytest.approx(1.0)

    def test_ks_bounded_by_discrepancy(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            w = rng.dirichlet(np.ones(n))
            d = build_distribution(np.sort(rng.random(n)), w, MEASURE_UNIFORM, 1, 2)
            assert ks_to_uniform(d) <= star_discrepancy(d) + 1e-12

    def test_rotation_invariance(self):
        # scale invariance: rotating residues leaves the all-interval
        # discrepancy unchanged (KS generally moves)
        rng = np.random.default_rng(9)
        d = exact_distribution(make_model([0.3, 0.2]), 25)
        base_val = star_discrepancy(d)
        for _ in range(100):
            c = float(rng.random())
            rotated = rotate_distribution(d, c)
            assert star_discrepancy(rotated) == pytest.approx(base_val, abs=1e-9)

    def test_bounded_by_one(self):
        d = dist_of([(0.999, 1.0)])
        assert 0.0 <= star_discrepancy(d) <= 1.0


class TestLeadingDigits:
    def test_exact_benford_distribution(self):
        edges = np.log10(np.arange(1, 10))
        masses = benford_expected(10)
        d = build_distribution(edges, masses.copy(), MEASURE_UNIFORM, 1, 2)
        freqs = leading_digit_histogram(d, 10)
        assert np.allclose(freqs, masses, atol=1e-12)
        assert chi2_vs_benford(freqs, 10) == pytest.approx(0.0, abs=1e-20)

    def test_digit_one_benford_value(self):
        assert benford_expected(10)[0] == pytest.approx(0.30103, abs=5e-6)

    def test_single_stick_n0(self):
        d = exact_distribution(make_model([0.4]), 0)
        freqs = leading_digit_histogram(d, 10)
        assert freqs[0] == 1.0 and freqs[1:].sum() == 0.0

    def test_boundary_goes_to_higher_digit(self):
        d = dist_of([(math.log10(2.0), 1.0)])
        freqs = leading_digit_histogram(d, 10)
        assert freqs[1] == 1.0

    def test_frequencies_sum_to_mass(self):
        d = exact_distribution(make_model([0.3, 0.2]), 40)
        assert leading_digit_histogram(d, 10).sum() == pytest.approx(1.0, abs=1e-10)

    def test_base_2_single_bin(self):
        d = dist_of([(0.3, 1.0)])
        freqs = leading_digit_histogram(d, 2)
        assert len(freqs) == 1 and freqs[0] == 1.0


@pytest.mark.parametrize(
    "call,fragment",
    [
        (lambda: chi2_vs_benford(np.full(8, 1 / 8)), "need 9 digit frequencies, got 8"),
        (lambda: leading_digit_histogram(dist_of([(0.0, 1.0)]), base=1), "base must be an integer >= 2"),
    ],
    ids=["chi2-length", "histogram-base"],
)
def test_argument_checks(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


class TestDigitTableGuard:
    """A base whose digit tables would pass the byte limit is refused before any is built."""

    @pytest.mark.parametrize("base,line", [
        (10**12, "the digit tables of base 1000000000000 need an estimated 160000000000000 bytes"),
        (10**30, "the digit tables of base about 10^30.0 need an estimated about 10^32.2 bytes"),
    ], ids=["1e12", "1e30"])
    @pytest.mark.parametrize("call", [
        lambda dist, base, path: benford_report(dist, base),
        lambda dist, base, path: leading_digit_histogram(dist, base),
        lambda dist, base, path: benford_expected(base),
        lambda dist, base, path: chi2_vs_benford([1.0], base),
        lambda dist, base, path: write_digits_csv([1.0], base, path),
    ], ids=["benford_report", "leading_digit_histogram", "benford_expected", "chi2_vs_benford",
            "write_digits_csv"])
    def test_refused_fast_and_small(self, call, base, line, tmp_path, traced_peak):
        dist, path = dist_of([(0.3, 1.0)]), tmp_path / "digits.csv"

        def refused():
            with pytest.raises(ResourceLimitError, match=f"^{re.escape(line)}, above the limit of 4294967296 bytes$"):
                call(dist, base, path)

        start = time.perf_counter()
        refused()
        assert time.perf_counter() - start < 0.01
        assert traced_peak(refused) < 64 << 10
        assert not path.exists()

    @pytest.mark.parametrize("base", [5 * 10**4, 10**5])
    def test_estimate_bounds_report_json_and_digits(self, base, tmp_path, traced_peak):
        # one atom inside each digit's bin with unequal masses, so every
        # frequency prints at full width in the report's JSON
        d = np.arange(1, base, dtype=float)
        masses = np.random.default_rng(1).random(base - 1) + 0.5
        dist = build_distribution(np.log(d + 0.5) / math.log(base), masses / masses.sum(), MEASURE_UNIFORM, 1, 2)

        def report_and_outputs():
            # what the CLI holds of the report while it writes digits.csv,
            # report.json and prints the report
            report = benford_report(dist, base)
            write_digits_csv(report.leading_digit_freqs, base, tmp_path / "digits.csv")
            text = _write_json(report.to_json_dict(), tmp_path / "report.json")
            with open(os.devnull, "w") as sink:
                print(text, end="", file=sink)
            assert len(text) > 25 * base

        assert traced_peak(report_and_outputs) <= _DIGIT_BYTES * base


class TestVerdict:
    def test_below_threshold(self):
        assert empirical_verdict(0.005, 0.02) == "ConsistentWithBenford"

    def test_above_threshold(self):
        assert empirical_verdict(0.69897, 0.02) == "Inconsistent"

    def test_boundary_inclusive(self):
        assert empirical_verdict(0.02, 0.02) == "ConsistentWithBenford"


class TestReport:
    def test_fields_and_invariants(self):
        d = exact_distribution(make_model([0.3, 0.2]), 30)
        rep = benford_report(d)
        assert sum(rep.leading_digit_freqs) == pytest.approx(1.0, abs=1e-10)
        assert rep.ks_to_uniform_mod1 <= rep.star_discrepancy + 1e-12
        assert rep.distinct_residues == d.atoms
        js = rep.to_json_dict()
        assert set(js) == {
            "ks", "star_discrepancy", "leading_digits", "chi2",
            "distinct_residues", "verdict", "ks_threshold",
        }


def reference_ks_distance(a, b, align_tol=1e-9):
    """Sup of |CDF_a - CDF_b| from the left and right limits at each cluster of
    the pooled atoms, each CDF read from its own compensated table."""
    points = np.sort(np.concatenate([a.residues, b.residues]))
    starts = np.flatnonzero(_cluster_starts(points, align_tol))
    ends = np.append(starts[1:], len(points))
    lo, hi = points[starts], points[ends - 1]
    cum_a = np.concatenate(([0.0], _cumsum_compensated(a.masses)))
    cum_b = np.concatenate(([0.0], _cumsum_compensated(b.masses)))
    right = np.abs(
        cum_a[np.searchsorted(a.residues, hi, side="right")]
        - cum_b[np.searchsorted(b.residues, hi, side="right")]
    )
    left = np.abs(
        cum_a[np.searchsorted(a.residues, lo, side="left")]
        - cum_b[np.searchsorted(b.residues, lo, side="left")]
    )
    return float(max(right.max(), left.max()))


class TestKsDistance:
    @pytest.mark.parametrize("model,N", [(FIG7, 1000), (FIG9, 100)], ids=["fig7", "fig9"])
    def test_matches_reference_on_sampled_vs_exact(self, model, N):
        exact = exact_distribution(model, N)
        config = SamplerConfig(seed=11, samples=1 << 17, mode=FixedProportions(model), measure=MEASURE_UNIFORM)
        _, sampled = sample_leaf_residues(config, N, 10)
        expected = reference_ks_distance(sampled, exact)
        assert expected > 0.0
        assert ks_distance(sampled, exact) == pytest.approx(expected, abs=1e-15)
        assert ks_distance(exact, sampled) == pytest.approx(expected, abs=1e-15)

    def test_identical_is_zero(self):
        d = exact_distribution(make_model([0.3, 0.2]), 15)
        assert ks_distance(d, d) == 0.0

    def test_jitter_ignored(self):
        d = exact_distribution(make_model([0.3, 0.2]), 15)
        shifted = build_distribution(
            d.residues + 1e-13, d.masses.copy(), MEASURE_UNIFORM, d.N, d.m
        )
        assert ks_distance(d, shifted) <= 1e-12

    def test_detects_real_difference(self):
        a = dist_of([(0.25, 1.0)])
        b = dist_of([(0.75, 1.0)])
        assert ks_distance(a, b) == pytest.approx(1.0)
