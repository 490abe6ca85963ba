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
    rotate_distribution,
)
from stickfrag import enumeration, oracle
from stickfrag.enumeration import ALIGN_TOL, _cluster_differences, _cluster_starts, _frac
from stickfrag.model import ExponentSpec
from stickfrag.oracle import LeafList, write_exact_residues_csv, write_leaves_csv


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

    def test_guard_past_float_range(self):
        # 10**400 * log10(2) would overflow a float: the count's digits are
        # given by their own order of magnitude, in one bounded line
        with pytest.raises(ResourceLimitError) as refused:
            brute_force_leaves(make_model([0.3]), 10**400)
        assert str(refused.value) == "2**about 10^400.0 = about 10^(10^399.5) leaves exceeds guard 10000000"

    @pytest.mark.parametrize(
        "model,N",
        [
            *((ProportionVector(tuple(np.random.default_rng(m).dirichlet(np.ones(m)).tolist())), N)
              for m in (2, 3, 4, 8) for N in (0, 1, 5)),
            (ProportionVector((0.3, 0.7)), 19),
            (proportions_from_exponents(ExponentSpec((Fraction(-1, 2), -math.sqrt(2)))), 11),
            (proportions_from_exponents(ExponentSpec((-math.sqrt(2), Fraction(-1, 3), Fraction(-1, 4)))), 9),
        ],
        ids=[*(f"m{m}-N{N}" for m in (2, 3, 4, 8) for N in (0, 1, 5)), "split30", "fig7", "fig9"],
    )
    def test_bit_identical_to_broadcast_expansion(self, model, N):
        # the former expansion: each level an (n, 1) x (1, m) outer product,
        # raveled, so child j of leaf i lands at i*m + j
        lengths = np.array([1.0])
        p = np.array(model.p)
        for _ in range(N):
            lengths = (lengths[:, None] * p[None, :]).ravel()
        got = brute_force_leaves(model, N).lengths
        assert np.array_equal(got.view(np.int64), lengths.view(np.int64))


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

    @pytest.mark.parametrize("b", [7, 997])
    def test_two_children_count_is_min_n_plus_1_b(self, b):
        # m=2, y = a/b in lowest terms: a stick's residue is s*a/b mod 1 for
        # its s = 0..N cuts into the first child, distinct for s < b
        for a in (-1, 3):
            for N in (0, 1, b - 2, b - 1, b, 10**6):
                res = exact_residues_rational([(a, b)], N)
                assert res.count == min(N + 1, b), (a, b, N)

    def test_count_is_lcm_from_n_lcm_minus_1(self):
        # the a_i L/b_i generate Z_L and each cut before saturation adds a
        # class, so all L = lcm(b_i) classes are reached once N >= L - 1
        for y in [*FIGURE_EXPONENTS.values(), *random_pairs()]:
            dens = [Fraction(*e).denominator if isinstance(e, tuple) else e.denominator for e in y]
            L = math.lcm(*dens)
            for N in (L - 1, 10**6):
                res = exact_residues_rational(y, N)
                assert (res.count, res.lcm) == (L, L), (y, N)

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
        with pytest.raises(ValueError):
            exact_residues_rational([(1, 0)], 3)
        with pytest.raises(TypeError):
            exact_residues_rational([(True, 2)], 3)

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


def reference_residue_walk(y, N, base_offset):
    """exact_residues_rational's walk as first written: a fresh Fraction for
    every reached class on every call, and the offset by the array _frac.
    Returns (residues, count, lcm, denominator_bound, offset)."""
    pairs = [(f.numerator, f.denominator) for f in map(Fraction, y)]
    lcm = math.lcm(*(b for _, b in pairs))
    steps = [a * (lcm // b) for a, b in pairs]
    shifts = [sum(steps[j:]) % lcm for j in range(len(pairs) + 1)]
    seen, frontier = {0}, {0}
    for _ in range(N):
        frontier = {(v + u) % lcm for v in frontier for u in shifts} - seen
        if not frontier:
            break
        seen |= frontier
    residues = tuple(Fraction(v, lcm) for v in sorted(seen))
    offset = float(_frac(np.array([base_offset]))[0])
    return residues, len(residues), lcm, math.prod(b for _, b in pairs), offset


def walk_cases():
    """(y, Ns, base_offset per N): fig3-fig6 at N = 0..L+2 and 600, with the
    offset the engine carries, and y = 1/5003, whose walk reaches up to 5003
    classes, up to N = 10^4."""
    for y in FIGURE_EXPONENTS.values():
        p_last = proportions_from_exponents(ExponentSpec(tuple(y))).p[-1]
        L = math.lcm(*(f.denominator for f in y))
        yield y, [*range(L + 3), 600], lambda N: N * math.log10(p_last)
    yield [Fraction(1, 5003)], [0, 1, 100, 5002, 10_000], lambda N: -2.75


@pytest.mark.parametrize("y,Ns,offset_at", walk_cases(), ids=[*FIGURE_EXPONENTS, "y-1-5003"])
def test_walk_matches_reference(y, Ns, offset_at):
    for N in Ns:
        expected = reference_residue_walk(y, N, offset_at(N))
        for _ in range(2):  # the second call reuses _class_shifts' cached shifts
            res = exact_residues_rational(y, N, base_offset=offset_at(N))
            assert all(type(f) is Fraction for f in res.residues)
            assert (res.residues, res.count, res.lcm, res.denominator_bound, res.offset) == expected, N
            assert res.offset.hex() == expected[-1].hex(), N


@pytest.mark.parametrize("x", [2.25, -0.75, 1 - 5e-13, -1e-13, -0.0, 0.0, 5e-324, 1e15 + 0.5])
def test_offset_and_positions_reduce_by_array_frac(x):
    # 1 - 5e-13 and -1e-13 land within MERGE_TOL of 1 and snap to 0; -0.0
    # must give +0.0, as the array path's -0.0 - floor(-0.0) does
    res = exact_residues_rational([(1, 2)], 3, base_offset=x)
    expected = float(_frac(np.array([x]))[0])
    assert type(res.offset) is float
    assert res.offset.hex() == expected.hex()
    expected_positions = sorted(float(_frac(np.array([float(f) + res.offset]))[0]) for f in res.residues)
    assert [v.hex() for v in res.float_positions().tolist()] == [v.hex() for v in expected_positions]


@pytest.mark.parametrize("y,Ns", [*((y, [0, 1, 5, 40, 600]) for y in FIGURE_EXPONENTS.values()),
                                  ([Fraction(1, 5003)], [10_000])], ids=[*FIGURE_EXPONENTS, "y-1-5003"])
def test_classes_are_ascending_ints_behind_residues_and_count(y, Ns):
    for N in Ns:
        res = exact_residues_rational(y, N)
        assert all(type(u) is int for u in res.classes), N
        assert list(res.classes) == sorted(set(res.classes)), N
        assert 0 <= res.classes[0] and res.classes[-1] < res.lcm, N
        assert res.residues == tuple(Fraction(u, res.lcm) for u in res.classes), N
        assert res.count == len(res.classes), N


def test_float_positions_past_int64_lcm_match_fraction_floats():
    # lcm = 7 (2^64 + 166) does not fit an int64, and two of its classes
    # round differently through float(u) / float(lcm): each u / lcm must
    # round once, as float(Fraction(u, lcm)) does
    res = exact_residues_rational([Fraction(1, 2**64 + 166), Fraction(1, 7)], 3, base_offset=0.125)
    assert res.lcm > 2**64
    assert any(u / res.lcm != float(u) / float(res.lcm) for u in res.classes)
    expected = np.sort(_frac(np.array([float(f) for f in res.residues]) + res.offset))
    assert [v.hex() for v in res.float_positions().tolist()] == [v.hex() for v in expected.tolist()]


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

    @pytest.mark.parametrize("fig,N", [("fig3", 3000), ("fig4", 3000), ("fig5", 250), ("fig6", 250)])
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_engine_matches_oracle(self, fig, N, measure):
        # the engine at the N it runs at: one atom per class, each at u/L
        # plus the carried offset frac(N log10 pm), with the class's mass
        y = FIGURE_EXPONENTS[fig]
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        dist = exact_distribution(model, N, 10, measure)
        rows = exact_residue_distribution(y, N, model, measure)
        assert dist.atoms == len(rows)
        offset = N * math.log10(model.p[-1])
        positions = _frac(np.array([float(r) for r, _ in rows]) + offset)
        order = np.argsort(positions)
        gaps = np.abs(positions[order] - dist.residues)
        assert np.minimum(gaps, 1.0 - gaps).max() <= 1e-9
        masses = np.array([mass for _, mass in rows])[order]
        assert np.abs(masses - dist.masses).max() <= 1e-12

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


class TestPoweringGuard:
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_refuses_above_limit(self, measure, monkeypatch):
        monkeypatch.setattr(oracle, "_POWERING_WORK_LIMIT", 1000)
        y = FIGURE_EXPONENTS["fig4"]
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        with pytest.raises(ResourceLimitError, match=r"work estimate .* exceeds the limit 1e\+03"):
            exact_residue_distribution(y, 150, model, measure)

    def test_refuses_huge_n_with_a_bounded_estimate(self):
        # the work estimate, about 10^401, is past float range: a .3g format of it overflows
        y = FIGURE_EXPONENTS["fig3"]
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        with pytest.raises(ResourceLimitError, match=r"^residue powering work estimate about 10\^401\.2 \(L=6, "):
            exact_residue_distribution(y, 10**200, model, MEASURE_UNIFORM)

    def test_refuses_n_past_float_range(self):
        # N * log2(m) would overflow a float: the count's size in words is
        # taken in ints, and N is printed by its order of magnitude
        y = FIGURE_EXPONENTS["fig3"]
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        with pytest.raises(ResourceLimitError) as refused:
            exact_residue_distribution(y, 10**400, model, MEASURE_UNIFORM)
        assert str(refused.value) == (
            "residue powering work estimate about 10^801.5 (L=6, N=about 10^400.0, uniform) exceeds the limit 3e+10"
        )

    @pytest.mark.parametrize(
        "y,N",
        [
            (((1, 2003),), 4000),
            (((1, 4001),), 8000),
            (((1, 13), (1, 16), (1, 17)), 511),
            (((1, 59), (1, 61)), 500),
            (((1, 13), (1, 16), (1, 17)), 255),
        ],
        ids=lambda v: "-".join(str(b) for _, b in v) if isinstance(v, tuple) else str(v),
    )
    def test_refuses_before_powering(self, y, N, monkeypatch):
        # 16.9 s, 217 s, 30.1 s, 16.1 s and 14.7 s of integer products
        # (2 vCPU) without the guard; the last three are counts of 8-16 words
        def no_powering(f, g):
            raise AssertionError("the guard should refuse before any product")

        monkeypatch.setattr(oracle, "_cyclic_product", no_powering)
        model = proportions_from_exponents(ExponentSpec(y))
        L = math.lcm(*(b for _, b in y))
        with pytest.raises(ResourceLimitError, match=f"L={L}, N={N}, uniform"):
            exact_residue_distribution(y, N, model, MEASURE_UNIFORM)

    @pytest.mark.parametrize(
        "fig,measure",
        [*((fig, MEASURE_LENGTH) for fig in FIGURE_EXPONENTS), ("fig5", MEASURE_UNIFORM)],
    )
    def test_accepts_figures_at_n_1e5(self, fig, measure):
        y = FIGURE_EXPONENTS[fig]
        N = 10**5
        model = proportions_from_exponents(ExponentSpec(tuple(y)))
        rows = exact_residue_distribution(y, N, model, measure)
        assert len(rows) == exact_residues_rational(y, N).count
        # uniform masses are exact counts over m^N; float length masses carry
        # a relative error of the sum that each squaring doubles, about
        # N 2^-53 in all (4e-12 to 6e-12 on fig3-fig6)
        tol = 1e-12 if measure == MEASURE_UNIFORM else N * 2.0**-52
        assert math.fsum(mass for _, mass in rows) == pytest.approx(1.0, abs=tol)

    @pytest.mark.parametrize("fig", ["fig3", "fig4", "fig6"])
    def test_guard_accepts_uniform_figures_at_n_1e5(self, fig, monkeypatch):
        # the powering itself is run above for fig5 only
        class Accepted(Exception):
            pass

        def accepted(f, g):
            raise Accepted

        monkeypatch.setattr(oracle, "_cyclic_product", accepted)
        y = FIGURE_EXPONENTS[fig]
        with pytest.raises(Accepted):
            exact_residue_distribution(y, 10**5, proportions_from_exponents(ExponentSpec(tuple(y))))


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

    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_working_set_per_leaf(self, measure, traced_peak):
        # 2**19 leaves: the lengths, their residues and, for the length
        # measure, the merge's stable permutation and cluster mask live at
        # once, 27 B per leaf (19 for uniform, as _frac reduces the residues
        # in blocks); the merge sorts the residues in place and the weights
        # are views.  This per-leaf figure is what BRUTE_FORCE_GUARD's leaf
        # count means in bytes
        N = 19
        peak = traced_peak(lambda: cross_check(ProportionVector((0.3, 0.7)), N, measure=measure))
        assert peak <= {MEASURE_UNIFORM: 20, MEASURE_LENGTH: 30}[measure] * 2**N

    @pytest.mark.parametrize(
        "model,N",
        [
            (ProportionVector((0.3, 0.7)), 19),
            (proportions_from_exponents(ExponentSpec((Fraction(-1, 2), -math.sqrt(2)))), 11),
            (proportions_from_exponents(ExponentSpec((-math.sqrt(2), Fraction(-1, 3), Fraction(-1, 4)))), 9),
        ],
        ids=["split30", "fig7", "fig9"],
    )
    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_deviation_matches_pooled_tally(self, model, N, measure):
        # reference: pool exact and brute atoms, stable-sort, chain clusters
        # within 1e-9, bincount the signed masses, fold the 0/1 wrap
        exact = exact_distribution(model, N, 10, measure)
        brute = distribution_from_leaves(brute_force_leaves(model, N), 10, measure)
        points = np.concatenate([exact.residues, brute.residues])
        signed = np.concatenate([exact.masses, -brute.masses])
        order = np.argsort(points, kind="stable")
        points, signed = points[order], signed[order]
        per_cluster = np.bincount(np.cumsum(_cluster_starts(points, 1e-9)) - 1, weights=signed)
        if len(per_cluster) > 1 and (points[0] + 1.0 - points[-1]) <= 1e-9:
            per_cluster[0] += per_cluster[-1]
            per_cluster = per_cluster[:-1]
        expected = float(np.abs(per_cluster).max())
        rep = cross_check(model, N, measure=measure)
        assert rep.passed
        assert rep.max_mass_deviation == expected

    def test_wrap_fold(self, monkeypatch):
        # an engine atom at 0 that drifts to 1 - 5e-11 is still the brute
        # atom at 0: only the fold of the first and last cluster pairs them
        model = make_model([0.1])
        exact = exact_distribution(model, 3)
        assert exact.residues[0] == 0.0
        rotated = rotate_distribution(exact, -5e-11)
        assert rotated.residues[-1] == pytest.approx(1.0 - 5e-11, abs=1e-15)
        monkeypatch.setattr(oracle, "exact_distribution", lambda *args: rotated)
        rep = cross_check(model, 3)
        assert rep.passed and rep.max_mass_deviation <= 1e-15
        brute = distribution_from_leaves(brute_force_leaves(model, 3))
        _, unfolded = _cluster_differences(rotated, brute)
        assert np.abs(unfolded).max() > ALIGN_TOL

    def test_brute_distribution_measures(self):
        leaves = brute_force_leaves(make_model([0.25, 0.35]), 5)
        for measure in (MEASURE_UNIFORM, MEASURE_LENGTH):
            d = distribution_from_leaves(leaves, 10, measure)
            assert abs(d.total_mass() - 1.0) <= 1e-10


HALF = make_model([0.5])
FIG3 = proportions_from_exponents(ExponentSpec(tuple(FIGURE_EXPONENTS["fig3"])))


@pytest.mark.parametrize(
    "call,exc,fragment",
    [
        (lambda: brute_force_leaves(HALF, -1), ValueError, "need N >= 0"),
        (lambda: exact_residues_rational([(1, 2)], -1), ValueError, "need N >= 0"),
        (lambda: exact_residues_rational([(1, 2)], 3, base_offset=math.nan), ValueError, "base_offset must be finite"),
        (lambda: exact_residues_rational([(1, 2)], 3, base_offset=math.inf), ValueError, "base_offset must be finite"),
        (lambda: exact_residues_rational([(1, 2)], 3, base_offset=-math.inf), ValueError,
         "base_offset must be finite"),
        (lambda: exact_residue_distribution([(1, 2)], -1, HALF), ValueError, "need N >= 0"),
        (lambda: exact_residue_distribution([(1, 2)], 3, HALF, "lenght"), ValueError, "unknown measure"),
        (lambda: exact_residue_distribution([(1, 2)], 3, make_model([0.2, 0.3])), ValueError,
         "need m=2, model has m=3"),
        (lambda: distribution_from_leaves(brute_force_leaves(HALF, 2), 10, "lenght"), ValueError, "unknown measure"),
        (lambda: LeafList(np.full(3, 0.25), 2, 2), ValueError, "expected 4 leaves, got 3"),
        (lambda: LeafList(np.full(4, 0.3), 2, 2), ValueError, "not 1 within 1e-9"),
        (lambda: brute_force_leaves(HALF, 2.5), TypeError, "N must be an integer"),
        (lambda: brute_force_leaves(HALF, True), TypeError, "N must be an integer"),
        (lambda: exact_residues_rational([(1, 2)], 2.5), TypeError, "N must be an integer"),
        (lambda: exact_residues_rational([(1, 2)], True), TypeError, "N must be an integer"),
        (lambda: exact_residue_distribution([(1, 2)], 2.5, HALF), TypeError, "N must be an integer"),
        (lambda: exact_residue_distribution([(1, 2)], True, HALF), TypeError, "N must be an integer"),
        (lambda: cross_check(HALF, 2.5), TypeError, "N must be an integer"),
        (lambda: cross_check(HALF, True), TypeError, "N must be an integer"),
        (lambda: cross_check(HALF, 2, 1), ValueError, "base must be an integer >= 2"),
        (lambda: cross_check(HALF, 2, 0), ValueError, "base must be an integer >= 2"),
        (lambda: cross_check(HALF, 2, 2.5), ValueError, "base must be an integer >= 2"),
        (lambda: cross_check(HALF, 2, True), ValueError, "base must be an integer >= 2"),
        (lambda: distribution_from_leaves(brute_force_leaves(HALF, 2), 1), ValueError, "base must be an integer >= 2"),
        (lambda: distribution_from_leaves(brute_force_leaves(HALF, 2), 0), ValueError, "base must be an integer >= 2"),
        (lambda: distribution_from_leaves(brute_force_leaves(HALF, 2), 2.5), ValueError,
         "base must be an integer >= 2"),
        (lambda: distribution_from_leaves(brute_force_leaves(HALF, 2), True), ValueError,
         "base must be an integer >= 2"),
        (lambda: exact_residue_distribution(FIGURE_EXPONENTS["fig3"], np.int64(2**63 - 1), FIG3), ResourceLimitError,
         "residue powering work estimate"),
    ],
    ids=[
        "brute-negative-n", "residues-negative-n", "residues-offset-nan", "residues-offset-inf",
        "residues-offset-minus-inf", "distribution-negative-n",
        "distribution-measure", "distribution-m", "leaves-measure", "leaf-count", "leaf-sum",
        "brute-float-n", "brute-bool-n", "residues-float-n", "residues-bool-n",
        "distribution-float-n", "distribution-bool-n", "cross-check-float-n", "cross-check-bool-n",
        "cross-check-base-1", "cross-check-base-0", "cross-check-base-float", "cross-check-base-bool",
        "leaves-base-1", "leaves-base-0", "leaves-base-float", "leaves-base-bool", "distribution-int64-n-max",
    ],
)
def test_argument_checks(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()


def test_bad_base_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the base should be refused before any table or leaf is built")

    monkeypatch.setattr(enumeration, "composition_array", no_work)
    monkeypatch.setattr(oracle, "brute_force_leaves", no_work)
    for call in (lambda: exact_distribution(HALF, 3, 1), lambda: cross_check(HALF, 3, 1)):
        with pytest.raises(ValueError, match="base must be an integer >= 2"):
            call()


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
