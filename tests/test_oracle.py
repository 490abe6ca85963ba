import math
from fractions import Fraction

import numpy as np
import pytest

from stickfrag import (
    MEASURE_LENGTH,
    MEASURE_UNIFORM,
    ProportionVector,
    ResourceLimitError,
    brute_force_leaves,
    compositions,
    cross_check,
    distribution_from_leaves,
    exact_distribution,
    exact_residue_distribution,
    exact_residues_rational,
    make_model,
    proportions_from_exponents,
)
from stickfrag.model import ExponentSpec
from stickfrag.oracle import write_exact_residues_csv, write_leaves_csv


FIGURE_EXPONENTS = {
    "fig3": [Fraction(-1, 3), Fraction(-1, 2)],
    "fig4": [Fraction(-1, 4), Fraction(-1, 6)],
    "fig5": [Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4)],
    "fig6": [Fraction(-1, 4), Fraction(-1, 2), Fraction(-1, 6)],
}


def random_pairs():
    """The exponent pairs of test_bound_and_monotone_in_n: 15 draws, m = 2..4."""
    rng = np.random.default_rng(31)
    for _ in range(15):
        mm1 = int(rng.integers(1, 4))
        yield [(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(mm1)]


def brute_residue_tally(pairs, N, q):
    """Independent oracle: enumerate every composition, take its exact residue
    sum_i s_i a_i/b_i mod 1 with Fraction arithmetic, and add up its exact
    weight N!/(k1!...km!) * prod_j q_j^k_j (ints or Fractions) per residue."""
    m = len(pairs) + 1
    tally = {}
    for c in compositions(N, m):
        s = 0
        total = Fraction(0)
        for (a, b), kj in zip(pairs, c.k):
            s += kj
            total += Fraction(a * s, b)
        weight = math.factorial(N) // math.prod(math.factorial(kj) for kj in c.k)
        weight *= math.prod(qj**kj for qj, kj in zip(q, c.k))
        tally[total % 1] = tally.get(total % 1, 0) + weight
    return tally


def brute_residue_set(pairs, N):
    return set(brute_residue_tally(pairs, N, [1] * (len(pairs) + 1)))


class TestBruteForce:
    def test_two_stage_example(self):
        leaves = brute_force_leaves(ProportionVector((0.3, 0.7)), 2)
        assert np.allclose(leaves.lengths, [0.09, 0.21, 0.21, 0.49], atol=1e-15)

    def test_n0(self):
        leaves = brute_force_leaves(make_model([0.4]), 0)
        assert leaves.lengths.tolist() == [1.0]

    def test_trinomial_tree(self):
        # m=3, N=2: 9 leaves; 6 distinct lengths needs generic proportions
        # ((0.3, 0.3, 0.4) is degenerate: p1 = p2 collapses them to 3)
        leaves = brute_force_leaves(make_model([0.3, 0.3]), 2)
        assert len(leaves.lengths) == 9
        assert len(set(round(x, 12) for x in leaves.lengths)) == 3
        generic = brute_force_leaves(make_model([0.29, 0.33]), 2)
        assert len(set(round(x, 12) for x in generic.lengths)) == 6 == math.comb(4, 2)

    def test_length_conservation(self):
        for m, N in [(2, 14), (3, 9), (3, 5), (2, 1)]:
            model = make_model([0.37] if m == 2 else [0.21, 0.43])
            leaves = brute_force_leaves(model, N)
            assert abs(leaves.lengths.sum() - 1.0) <= 1e-9

    def test_distinct_count_generic(self):
        # generic proportions: distinct lengths = composition count
        model = make_model([0.2137, 0.3391])
        leaves = brute_force_leaves(model, 6)
        distinct = len(set(round(x, 13) for x in leaves.lengths))
        assert distinct == math.comb(6 + 2, 2)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            brute_force_leaves(make_model([0.5]), 30)


class TestExactResidues:
    def test_figure3_bound_and_count(self):
        res = exact_residues_rational([Fraction(-1, 3), Fraction(-1, 2)], 6)
        assert res.count <= 6  # paper bound: prod b_i = 3*2
        assert res.count == 6
        assert res.denominator_bound == 6 and res.lcm == 6

    def test_against_brute_enumeration(self):
        cases = [
            ([(-1, 3), (-1, 2)], 6),
            ([(-1, 4), (-1, 6)], 9),
            ([(1, 2), (-2, 5)], 7),
            ([(-1, 2), (-1, 3), (-1, 4)], 8),
        ]
        for pairs, N in cases:
            res = exact_residues_rational(pairs, N)
            expected = brute_residue_set(pairs, N)
            assert set(res.residues) == expected, (pairs, N)

    def test_zero_exponent_single_residue(self):
        for N in (0, 1, 10, 1000):
            assert exact_residues_rational([(0, 1)], N).count == 1

    def test_bound_and_monotone_in_n(self):
        for pairs in random_pairs():
            bound = math.prod(b for _, b in pairs)
            prev = 0
            saturated = False
            for N in range(0, 30):
                count = exact_residues_rational(pairs, N).count
                assert count <= bound
                assert count >= prev or saturated
                if count == prev:
                    saturated = True
                prev = count

    def test_rejects_non_rational(self):
        with pytest.raises(ValueError):
            exact_residues_rational([0.5], 3)

    def test_offset_carried(self):
        res = exact_residues_rational([(1, 2)], 3, base_offset=2.25)
        assert res.offset == pytest.approx(0.25)

    def test_float_positions_match_enumeration(self):
        y = (Fraction(-1, 3), Fraction(-1, 2))
        model = proportions_from_exponents(ExponentSpec(y))
        N = 40
        dist = exact_distribution(model, N)
        offset = N * math.log10(model.p[-1])
        res = exact_residues_rational(list(y), N, base_offset=offset)
        assert res.count == dist.atoms
        assert np.allclose(res.float_positions(), dist.residues, atol=1e-9)


def tally_cases():
    """(y, model) for fig3-fig6 and the random pairs, each with a model of its m."""
    for y in FIGURE_EXPONENTS.values():
        yield y, proportions_from_exponents(ExponentSpec(tuple(y)))
    rng = np.random.default_rng(8)
    for pairs in random_pairs():
        yield pairs, make_model(list(rng.dirichlet(np.ones(len(pairs) + 1))[:-1]))


class TestExactResidueDistribution:
    @pytest.mark.parametrize("N", [0, 1, 2, 5, 9])
    def test_matches_exact_composition_tally(self, N):
        for y, model in tally_cases():
            pairs = [(f.numerator, f.denominator) if isinstance(f, Fraction) else f for f in y]
            counts = brute_residue_tally(pairs, N, [1] * model.m)
            rows = exact_residue_distribution(y, N, model, MEASURE_UNIFORM)
            assert rows == [(r, counts[r] / model.m**N) for r in sorted(counts)], (y, N)
            masses = brute_residue_tally(pairs, N, [Fraction(p) for p in model.p])
            rows = exact_residue_distribution(y, N, model, MEASURE_LENGTH)
            assert [r for r, _ in rows] == sorted(masses), (y, N)
            for r, mass in rows:
                assert mass == pytest.approx(float(masses[r]), rel=1e-12, abs=0), (y, N, r)

    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_classes_are_the_exact_residues(self, measure):
        for y, model in tally_cases():
            for N in (0, 1, 3, 7, 20, 60):
                rows = exact_residue_distribution(y, N, model, measure)
                assert tuple(r for r, _ in rows) == exact_residues_rational(y, N).residues, (y, N)

    def test_cap_counts_compositions(self):
        y = FIGURE_EXPONENTS["fig5"]
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        count = math.comb(12 + 3, 3)
        for measure in (MEASURE_UNIFORM, MEASURE_LENGTH):
            with pytest.raises(ResourceLimitError):
                exact_residue_distribution(y, 12, model, measure, cap=count - 1)
            rows = exact_residue_distribution(y, 12, model, measure, cap=count)
            assert sum(m for _, m in rows) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_masses_match_enumeration(self):
        y = [Fraction(-1, 3), Fraction(-1, 2)]
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        rows = exact_residue_distribution(y, 12, model, MEASURE_UNIFORM)
        dist = exact_distribution(model, 12)
        masses = sorted(m for _, m in rows)
        assert sum(m for _, m in rows) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sorted(dist.masses), masses, atol=1e-12)

    def test_length_masses_sum_to_one(self):
        y = [Fraction(-1, 4), Fraction(-1, 6)]
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        rows = exact_residue_distribution(y, 10, model, MEASURE_LENGTH)
        assert sum(m for _, m in rows) == pytest.approx(1.0, abs=1e-10)


class TestCrossCheck:
    def test_binomial_uniform(self):
        rep = cross_check(ProportionVector((0.3, 0.7)), 10, measure=MEASURE_UNIFORM)
        assert rep.passed and rep.max_mass_deviation <= 1e-9

    def test_trinomial_length(self):
        rep = cross_check(make_model([0.3, 0.3]), 8, measure=MEASURE_LENGTH)
        assert rep.passed

    def test_n0_trivial(self):
        rep = cross_check(make_model([0.5]), 0)
        assert rep.passed and rep.atoms_exact == rep.atoms_brute == 1

    def test_guard_propagates(self):
        with pytest.raises(ResourceLimitError):
            cross_check(make_model([0.5]), 30)

    def test_brute_distribution_measures(self):
        leaves = brute_force_leaves(make_model([0.25, 0.35]), 5)
        for measure in (MEASURE_UNIFORM, MEASURE_LENGTH):
            d = distribution_from_leaves(leaves, 10, measure)
            assert abs(d.total_mass() - 1.0) <= 1e-10


class TestOracleCsv:
    def test_leaves_csv(self, tmp_path):
        leaves = brute_force_leaves(ProportionVector((0.3, 0.7)), 2)
        path = tmp_path / "leaves.csv"
        write_leaves_csv(leaves, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "leaf_index,length"
        assert len(lines) == 5
        assert lines[1].startswith("0,")

    def test_residues_csv(self, tmp_path):
        y = [Fraction(-1, 3), Fraction(-1, 2)]
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        rows = exact_residue_distribution(y, 8, model)
        res = exact_residues_rational(y, 8)
        path = tmp_path / "residues.csv"
        write_exact_residues_csv(rows, res.lcm, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "numerator,denominator_lcm,mass"
        assert len(lines) == len(rows) + 1
