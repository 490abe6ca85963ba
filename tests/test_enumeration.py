import math
import timeit
from fractions import Fraction

import numpy as np
import pytest

from stickfrag import (
    FixedProportions,
    MEASURE_LENGTH,
    MEASURE_UNIFORM,
    ProportionVector,
    RandomProportions,
    ResourceLimitError,
    SamplerConfig,
    WeightedMod1Distribution,
    atom_for,
    composition_count,
    compositions,
    distribution_from_residues,
    exact_distribution,
    log_multinomial,
    ExponentSpec,
    make_model,
    proportions_from_exponents,
    rotate_distribution,
    sample_leaf_residues,
    write_distribution_csv,
)
from stickfrag import enumeration
from stickfrag.enumeration import (
    MEASURES,
    MERGE_TOL,
    _atom_table,
    _frac,
    _merge_atoms,
    _peak_bytes,
    composition_array,
)
from stickfrag.oracle import brute_force_leaves

FIG7 = proportions_from_exponents(ExponentSpec((Fraction(-1, 2), -math.sqrt(2))))
FIG9 = proportions_from_exponents(ExponentSpec((-math.sqrt(2), Fraction(-1, 3), Fraction(-1, 4))))


def exact_multinomial(N, k):
    """Independent oracle: integer factorial arithmetic."""
    v = math.factorial(N)
    for kj in k:
        v //= math.factorial(kj)
    return v


def reference_merge(residues, weights, loop_max=4096):
    """_merge_atoms with its former per-cluster loop: two slice sums per cluster.

    Up to loop_max clusters it sums each cluster's 1-d slice, above that it
    uses bincount, as _merge_atoms does at loop_max=4096.
    """
    order = np.argsort(residues, kind="stable")
    r = residues[order]
    w = weights[order]
    boundary = np.empty(len(r), dtype=bool)
    boundary[0] = True
    np.greater(np.diff(r), MERGE_TOL, out=boundary[1:])
    cid = np.cumsum(boundary) - 1
    n_clusters = int(cid[-1]) + 1
    if n_clusters <= loop_max:
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], len(r))
        mass = np.array([w[a:b].sum() for a, b in zip(starts, ends)])
        rep = np.array([r[a:b].sum() for a, b in zip(starts, ends)]) / (ends - starts)
    else:
        mass = np.bincount(cid, weights=w, minlength=n_clusters)
        counts = np.bincount(cid, minlength=n_clusters)
        rep = np.bincount(cid, weights=r, minlength=n_clusters) / counts
    return rep, mass


def clustered_atoms(lens, seed):
    """Shuffled atoms in len(lens) clusters; cluster i holds lens[i] atoms
    jittered well inside the merge tolerance, clusters far apart."""
    rng = np.random.default_rng(seed)
    lens = np.asarray(lens)
    centers = (np.arange(len(lens)) + 0.5) / len(lens)
    residues = np.repeat(centers, lens) + rng.uniform(-0.4 * MERGE_TOL, 0.4 * MERGE_TOL, lens.sum())
    weights = rng.random(lens.sum())
    perm = rng.permutation(lens.sum())
    return residues[perm], weights[perm]


def bits(a):
    return a.view(np.int64)


class TestCompositions:
    def test_order_n2_m3(self):
        # frozen stream order (first part descending)
        assert [c.k for c in compositions(2, 3)] == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        ]

    def test_n0(self):
        assert [c.k for c in compositions(0, 2)] == [(0, 0)]

    def test_errors(self):
        with pytest.raises(ValueError):
            list(compositions(2, 1))
        with pytest.raises(ValueError):
            list(compositions(-1, 2))

    @pytest.mark.parametrize(
        "N,m",
        [(50, 2), (50, 3), (30, 4), (15, 5), (10, 6), (0, 4), (1, 6)],
    )
    def test_count_matches_binomial(self, N, m):
        comps = list(compositions(N, m))
        assert len(comps) == composition_count(N, m) == math.comb(N + m - 1, m - 1)
        seen = set(c.k for c in comps)
        assert len(seen) == len(comps)
        assert all(sum(c.k) == N for c in comps)

    def test_count_example_n1000_m3(self):
        assert composition_count(1000, 3) == math.comb(1002, 2) == 501501

    @pytest.mark.parametrize(
        "N,m",
        [(6, 2), (5, 3), (4, 4), (3, 5), (0, 3),
         (0, 2), (1, 2), (37, 2),  # m=2: no middle level
         (0, 4), (0, 5), (0, 6), (10, 6),
         (200, 3), (40, 4)],  # the benchmark's shapes
    )
    def test_array_matches_stream(self, N, m):
        arr = composition_array(N, m)
        assert arr.tolist() == [list(c.k) for c in compositions(N, m)]

    @pytest.mark.parametrize("N,m", [(1000, 3), (100, 4)])
    def test_array_properties_at_scale(self, N, m):
        # every row a composition of N, rows strictly descending
        # lexicographically, and as many rows as compositions: together these
        # pin down the compositions() order without streaming it
        arr = composition_array(N, m)
        assert arr.dtype == np.int64 and arr.flags.c_contiguous
        assert arr.shape == (composition_count(N, m), m)
        assert arr.min() >= 0
        assert np.all(arr.sum(axis=1) == N)
        diff = arr[:-1] - arr[1:]
        nonzero = diff != 0
        first = np.argmax(nonzero, axis=1)
        assert np.all(nonzero.any(axis=1))
        assert np.all(diff[np.arange(len(diff)), first] > 0)


class TestLogMultinomial:
    def test_examples(self):
        assert math.isclose(log_multinomial(4, (2, 1, 1)), math.log(12), rel_tol=1e-12)
        assert log_multinomial(5, (5, 0, 0)) == 0.0
        assert math.isclose(log_multinomial(2, (1, 1)), math.log(2), rel_tol=1e-12)

    def test_against_integer_factorials(self):
        for N in range(0, 21, 4):
            for c in compositions(N, 3):
                expected = math.log(exact_multinomial(N, c.k))
                got = log_multinomial(N, c)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_rejects_non_composition(self):
        with pytest.raises(ValueError):
            log_multinomial(4, (2, 1))
        with pytest.raises(ValueError):
            log_multinomial(4, (-1, 5))


class TestAtomFor:
    def test_half_model_single_cut(self):
        r, lu, ll = atom_for(make_model([0.5]), (1, 0))
        # oracle: frac(log10 0.5) evaluated directly
        assert r == pytest.approx(math.log10(0.5) + 1.0, abs=1e-15)
        assert r == pytest.approx(0.6989700043360188, abs=1e-12)

    def test_zero_composition(self):
        r, lu, ll = atom_for(make_model([0.3, 0.3]), (0, 0, 0))
        assert (r, lu, ll) == (0.0, 0.0, 0.0)

    def test_length_mass_example(self):
        _, _, ll = atom_for(make_model([0.3, 0.3]), (1, 1, 0))
        assert ll == pytest.approx(math.log(2) + math.log(0.09), abs=1e-12)

    def test_mismatched_m(self):
        with pytest.raises(ValueError):
            atom_for(make_model([0.5]), (1, 0, 0))

    def test_rejects_negative_part(self):
        # a negative part would otherwise index the lgamma table from its end
        with pytest.raises(ValueError):
            atom_for(make_model([0.5]), (-1, 2))

    def test_large_n(self):
        # only the parts' own lgamma values are needed, not a table of N + 1
        N = 10**6
        k = (N - 2, 1, 1)
        model = make_model([0.2, 0.45])
        r, lu, ll = atom_for(model, k)
        assert r == pytest.approx(sum(kj * math.log10(p) for kj, p in zip(k, model.p)) % 1.0, abs=1e-7)
        assert lu == pytest.approx(log_multinomial(N, k) - N * math.log(3), rel=1e-12)
        assert ll == pytest.approx(
            log_multinomial(N, k) + sum(kj * math.log(p) for kj, p in zip(k, model.p)), rel=1e-12
        )

    def test_bit_identical_to_table_rows(self):
        # the table as exact_distribution builds it, from its lgamma table of N + 1 values
        model = make_model([0.17, 0.52])
        N = 300
        K = composition_array(N, 3)
        lgt = np.array([math.lgamma(i + 1) for i in range(N + 1)])
        for base in (10, 7):
            table = np.empty((1 + len(MEASURES), len(K)))
            _atom_table(K, lgt[N] - lgt[K].sum(axis=1), model, base, MEASURES, table)
            residues, lu, ll = table
            for i in np.random.default_rng(3).choice(len(K), 200, replace=False).tolist() + [0, len(K) - 1]:
                got = np.array(atom_for(model, K[i].tolist(), base))
                assert np.array_equal(got.view(np.int64), np.array([residues[i], lu[i], ll[i]]).view(np.int64))

    def test_factorization_identity(self):
        # sum k_j log p_j == k1 log(p1/p2) + (k1+k2) log(p2/p3) + ... + N log pm
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(m))
            model = ProportionVector(tuple(p))
            N = int(rng.integers(0, 40))
            k = rng.multinomial(N, np.ones(m) / m)
            direct = sum(int(kj) * math.log10(pj) for kj, pj in zip(k, model.p))
            partial = np.cumsum(k)[:-1]
            tele = sum(
                s * math.log10(model.p[i] / model.p[i + 1]) for i, s in enumerate(partial)
            ) + N * math.log10(model.p[-1])
            assert direct == pytest.approx(tele, abs=1e-9)


class TestExactDistribution:
    def test_half_model_one_stage(self):
        d = exact_distribution(make_model([0.5]), 1)
        assert d.atoms == 1
        assert d.residues[0] == pytest.approx(0.6989700043360188, abs=1e-12)
        assert d.masses[0] == pytest.approx(1.0, abs=1e-15)

    def test_n0_single_atom(self):
        d = exact_distribution(make_model([0.3, 0.3]), 0)
        assert d.atoms == 1 and d.residues[0] == 0.0 and d.masses[0] == 1.0

    @pytest.mark.parametrize("measure", [MEASURE_UNIFORM, MEASURE_LENGTH])
    def test_mass_normalization(self, measure):
        rng = np.random.default_rng(17)
        for _ in range(8):
            m = int(rng.integers(2, 5))
            N = int(rng.integers(0, 201 if m < 4 else 101))
            model = ProportionVector(tuple(rng.dirichlet(np.ones(m))))
            d = exact_distribution(model, N, measure=measure)
            assert abs(d.total_mass() - 1.0) <= 1e-10

    def test_binomial_weights_m2(self):
        # uniform measure reproduces C(N,k)/2^N; oracle is exact integer comb
        N = 50
        model = make_model([0.3])
        d = exact_distribution(model, N, measure=MEASURE_UNIFORM)
        logp = [math.log10(p) for p in model.p]
        expected = sorted(
            ((k * logp[0] + (N - k) * logp[1]) % 1.0, math.comb(N, k) / 2.0**N)
            for k in range(N + 1)
        )
        assert d.atoms == N + 1
        for (r_exp, m_exp), r_got, m_got in zip(expected, d.residues, d.masses):
            assert r_got == pytest.approx(r_exp, abs=1e-9)
            assert m_got == pytest.approx(m_exp, rel=1e-10)

    def test_length_measure_is_multinomial_probability(self):
        # oracle: exact integer multinomial times p^k per composition
        model = make_model([0.2, 0.5])
        N = 9
        d = exact_distribution(model, N, measure=MEASURE_LENGTH)
        acc = {}
        for c in compositions(N, 3):
            r, _, _ = atom_for(model, c)
            w = exact_multinomial(N, c.k) * math.prod(p**kj for p, kj in zip(model.p, c.k))
            key = round(r, 9)
            acc[key] = acc.get(key, 0.0) + w
        expected = sorted(acc.items())
        assert d.atoms == len(expected)
        for (r_exp, m_exp), r_got, m_got in zip(expected, d.residues, d.masses):
            assert r_got == pytest.approx(r_exp, abs=1e-9)
            assert m_got == pytest.approx(m_exp, rel=1e-10)

    def test_permutation_leaves_atoms_unchanged(self):
        rng = np.random.default_rng(23)
        model = ProportionVector(tuple(rng.dirichlet(np.ones(3))))
        d1 = exact_distribution(model, 12)
        d2 = exact_distribution(model.permuted((2, 0, 1)), 12)
        assert d1.atoms == d2.atoms
        assert np.allclose(d1.residues, d2.residues, atol=1e-9)
        assert np.allclose(d1.masses, d2.masses, atol=1e-12)

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_BYTE_LIMIT", 1000)
        with pytest.raises(ResourceLimitError, match=r"C\(102,2\) = 5151 compositions need an estimated "
                           r"\d+ bytes, above the limit of 1000 bytes"):
            exact_distribution(make_model([0.3, 0.3]), 100)

    @pytest.mark.parametrize("m,N", [(3, 14_000), (10, 27), (4, 2000)], ids=["m3-N14000", "m10-N27", "fig5-N2000"])
    def test_refusal_allocates_nothing(self, m, N, monkeypatch, traced_peak):
        # 7.1, 11 and 96 GB by the estimate; the refusal is closed-form arithmetic before any array
        def no_table(N, m):
            raise AssertionError("the guard should refuse before the composition table")

        monkeypatch.setattr(enumeration, "composition_array", no_table)
        model = ProportionVector(tuple(np.full(m, 1.0 / m)))

        def refuse():
            with pytest.raises(ResourceLimitError, match="above the limit of 4294967296 bytes"):
                exact_distribution(model, N)

        assert traced_peak(refuse) < 64 * 1024
        assert min(timeit.repeat(refuse, number=1, repeat=5)) < 0.01

    @pytest.mark.parametrize(
        "model,N",
        [
            *((ProportionVector(tuple(np.random.default_rng(m).dirichlet(np.ones(m)))), N)
              for m, N in ((2, 300_000), (3, 774), (4, 120), (6, 30), (8, 17), (10, 12))),
            (FIG7, 774),
            (FIG9, 120),
        ],
        ids=["m2", "m3", "m4", "m6", "m8", "m10", "fig7", "fig9"],
    )
    @pytest.mark.parametrize("measure", MEASURES)
    def test_peak_estimate_bounds_traced_peak(self, model, N, measure, traced_peak):
        # about 3e5 compositions each: every atom distinct on the random
        # models, merging on fig7 and fig9, whose peak is lower
        peak = traced_peak(lambda: exact_distribution(model, N, measure=measure))
        assert peak <= _peak_bytes(N, model.m) <= 1.5 * peak

    def test_merging_tolerance(self):
        d = distribution_from_residues(
            np.array([0.5, 0.5 + 5e-13, 0.25, 0.5 - 4e-13]), MEASURE_UNIFORM, 1, 2
        )
        assert d.atoms == 2
        assert d.masses[1] == pytest.approx(0.75)

    def test_wrap_snap_near_one(self):
        d = distribution_from_residues(np.array([1.0 - 1e-13, 2e-13]), MEASURE_UNIFORM, 1, 2)
        assert d.atoms == 1
        assert d.residues[0] == pytest.approx(0.0, abs=1e-12)

    def test_threads_match_canonical(self):
        model = make_model([0.3, 0.2])
        d1 = exact_distribution(model, 120, threads=1)
        d2 = exact_distribution(model, 120, threads=3)
        assert np.array_equal(d1.residues, d2.residues)
        assert np.array_equal(d1.masses, d2.masses)

    def test_working_set_per_composition(self, traced_peak):
        # fig7 at N=1000: 501,501 compositions.  The composition table, the
        # atom table and the merge each hold about 40 B per composition and
        # die at their last use; holding them all at once took about 97 B.
        N = 1000
        peak = traced_peak(lambda: exact_distribution(FIG7, N, measure=MEASURE_LENGTH))
        assert peak <= 70 * composition_count(N, 3)

    def test_working_set_per_sample(self, traced_peak):
        # 2**17 fig7 samples: the residue copy, its sorted copy and the
        # cluster scan take about 25 B per row; a stable permutation and the
        # weights gathered by it made that 33
        n = 2**17
        residues, _ = sample_leaf_residues(SamplerConfig(seed=1, samples=n, mode=FixedProportions(FIG7)), 1000)
        peak = traced_peak(lambda: distribution_from_residues(residues, MEASURE_UNIFORM, 1000, 3))
        assert peak <= 28 * n

    def test_atoms_match_atom_for(self):
        model = make_model([0.25, 0.35])
        N = 7
        d = exact_distribution(model, N, measure=MEASURE_LENGTH)
        raw = [atom_for(model, c) for c in compositions(N, 3)]
        total = math.fsum(math.exp(ll) for _, _, ll in raw)
        assert total == pytest.approx(1.0, abs=1e-12)
        for r, _, ll in raw:
            i = int(np.argmin(np.abs(d.residues - r)))
            assert abs(d.residues[i] - r) < 1e-9


class TestDistributionValidation:
    @pytest.mark.parametrize(
        "residues,masses",
        [([0.1, np.nan], [0.5, 0.5]), ([0.1, 0.2], [0.5, np.nan])],
        ids=["nan-residue", "nan-mass"],
    )
    def test_nan_refused(self, residues, masses):
        # NaN compares False with everything, so no ordering or sum check sees it
        with pytest.raises(ValueError, match="finite"):
            WeightedMod1Distribution(np.array(residues), np.array(masses), MEASURE_UNIFORM, 1, 2)


MODEL3 = make_model([0.3, 0.3])


def atoms(residues, masses, measure=MEASURE_UNIFORM):
    return WeightedMod1Distribution(np.array(residues), np.array(masses), measure, 1, 2)


@pytest.mark.parametrize(
    "call,fragment",
    [
        (lambda: exact_distribution(MODEL3, 3, 10, "lenght"), "unknown measure"),
        (lambda: exact_distribution(MODEL3, -1), "need N >= 0"),
        (lambda: exact_distribution(MODEL3, 3, threads=0), "threads must be >= 1"),
        (lambda: atoms([0.1, 0.2], [1.0]), "equal-length"),
        (lambda: atoms([0.2, 0.1], [0.5, 0.5]), "strictly ascending"),
        (lambda: atoms([0.1, 0.2], [1.5, -0.5]), "nonnegative"),
        (lambda: atoms([0.1, 0.2], [0.5, 0.6]), "not 1 within"),
        (lambda: atoms([0.1, 0.2], [0.5, 0.5], "lenght"), "unknown measure"),
        (lambda: distribution_from_residues(np.array([]), MEASURE_UNIFORM, 1, 2), "at least one residue"),
    ],
    ids=[
        "exact-measure", "exact-negative-n", "exact-threads", "dist-shapes", "dist-unsorted",
        "dist-negative-mass", "dist-sum", "dist-measure", "residues-empty",
    ],
)
def test_argument_checks(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


CLUSTER_LENS = [
    [7] * 300 + [3] * 200 + [40] * 50,  # many clusters share a length
    list(range(1, 300)),  # every length distinct
    [100_000],  # one big cluster
    [100_000, 100_000, 9],  # two big clusters of one length
    [1] * 2000,  # singletons
]
CLUSTER_IDS = ["shared", "distinct", "big", "big-pair", "singletons"]


def equal_weight_merge_matches_reference(residues, c):
    """_merge_atoms on one weight c broadcast against the stable-order
    reference on the same weight materialised; returns the merged atoms."""
    n = len(residues)
    rep, mass = _merge_atoms(residues, np.broadcast_to(c, n))
    ref_rep, ref_mass = reference_merge(residues, np.full(n, c))
    assert np.array_equal(bits(rep), bits(ref_rep))
    assert np.array_equal(bits(mass), bits(ref_mass))
    return rep, mass


class TestMergeAtoms:
    @pytest.mark.parametrize("lens", CLUSTER_LENS, ids=CLUSTER_IDS)
    def test_bit_identical_to_slice_loop(self, lens):
        residues, weights = clustered_atoms(lens, seed=len(lens))
        rep, mass = _merge_atoms(residues, weights)
        ref_rep, ref_mass = reference_merge(residues, weights)
        assert len(rep) == len(lens)
        assert np.array_equal(bits(rep), bits(ref_rep))
        assert np.array_equal(bits(mass), bits(ref_mass))

    @pytest.mark.parametrize("n_values", [50, 5000], ids=["pairwise", "bincount"])
    def test_exact_ties_keep_input_order(self, n_values):
        # residues drawn with repetition from n_values floats (0.0, the value
        # _frac snaps to, among them) tie exactly but carry distinct weights,
        # so a cluster's sum order is the tie order of the sort
        rng = np.random.default_rng(n_values)
        values = np.append(rng.random(n_values - 1), 0.0)
        residues = rng.choice(values, 20_000)
        weights = rng.random(20_000)
        rep, mass = _merge_atoms(residues, weights)
        ref_rep, ref_mass = reference_merge(residues, weights)
        assert len(rep) == len(np.unique(residues))
        assert np.array_equal(bits(rep), bits(ref_rep))
        assert np.array_equal(bits(mass), bits(ref_mass))

    @pytest.mark.parametrize("n_clusters,other_loop_max", [(4096, 4095), (4097, 4097)])
    def test_branch_boundary(self, n_clusters, other_loop_max):
        # 4096 clusters take the pairwise sums, 4097 take bincount; lengths
        # up to 40 make the two disagree, so a moved boundary shows
        lens = np.random.default_rng(n_clusters).integers(1, 41, n_clusters)
        residues, weights = clustered_atoms(lens, seed=n_clusters)
        rep, mass = _merge_atoms(residues, weights)
        ref_rep, ref_mass = reference_merge(residues, weights)
        assert np.array_equal(bits(rep), bits(ref_rep))
        assert np.array_equal(bits(mass), bits(ref_mass))
        other_rep, other_mass = reference_merge(residues, weights, loop_max=other_loop_max)
        assert not (np.array_equal(bits(other_rep), bits(rep)) and np.array_equal(bits(other_mass), bits(mass)))

    @pytest.mark.parametrize("lens", CLUSTER_LENS, ids=CLUSTER_IDS)
    def test_equal_weight_clustered(self, lens):
        # one weight broadcast takes the value sort; its bits must be the
        # stable permutation's
        residues, _ = clustered_atoms(lens, seed=len(lens))
        rep, _ = equal_weight_merge_matches_reference(residues, 1.0 / len(residues))
        assert len(rep) == len(lens)

    @pytest.mark.parametrize("n_values", [50, 5000], ids=["pairwise", "bincount"])
    def test_equal_weight_exact_ties(self, n_values):
        rng = np.random.default_rng(n_values)
        values = np.append(rng.random(n_values - 1), 0.0)
        residues = rng.choice(values, 20_000)
        rep, _ = equal_weight_merge_matches_reference(residues, 1.0 / 20_000)
        assert len(rep) == len(np.unique(residues))

    @pytest.mark.parametrize("n_clusters,other_loop_max", [(4096, 4095), (4097, 4097)])
    def test_equal_weight_branch_boundary(self, n_clusters, other_loop_max):
        lens = np.random.default_rng(n_clusters).integers(1, 41, n_clusters)
        residues, _ = clustered_atoms(lens, seed=n_clusters)
        c = 1.0 / len(residues)
        rep, mass = equal_weight_merge_matches_reference(residues, c)
        other_rep, other_mass = reference_merge(residues, np.full(len(residues), c), loop_max=other_loop_max)
        assert not (np.array_equal(bits(other_rep), bits(rep)) and np.array_equal(bits(other_mass), bits(mass)))

    def test_equal_weight_brute_force_leaves(self):
        leaves = brute_force_leaves(ProportionVector((0.3, 0.7)), 15)
        residues = _frac(np.log10(leaves.lengths))
        equal_weight_merge_matches_reference(residues, 1.0 / len(residues))

    @pytest.mark.parametrize(
        "mode,N",
        [
            (FixedProportions(FIG7), 1000),
            (RandomProportions(3, (1.0, 1.0, 1.0)), 100),
        ],
        ids=["fig7", "dirichlet"],
    )
    def test_equal_weight_samples(self, mode, N):
        residues, _ = sample_leaf_residues(SamplerConfig(seed=3, samples=2**15, mode=mode), N)
        equal_weight_merge_matches_reference(residues, 1.0 / len(residues))


class TestRotation:
    def test_round_trip(self):
        d = exact_distribution(make_model([0.3, 0.2]), 20)
        r = rotate_distribution(rotate_distribution(d, 0.3), -0.3)
        assert np.allclose(r.residues, d.residues, atol=1e-12)
        assert np.allclose(r.masses, d.masses, atol=1e-15)

    def test_mass_conserved(self):
        d = exact_distribution(make_model([0.3, 0.2]), 20)
        r = rotate_distribution(d, math.pi / 10)
        assert abs(r.total_mass() - 1.0) <= 1e-10


class TestCsv:
    def test_format_and_determinism(self, tmp_path):
        d = exact_distribution(make_model([0.3]), 5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_distribution_csv(d, a)
        write_distribution_csv(d, b)
        text = a.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "residue,mass"
        assert len(lines) == d.atoms + 1
        assert text == b.read_text()
        # 17 significant digits round-trip
        r0 = float(lines[1].split(",")[0])
        assert r0 == d.residues[0]
